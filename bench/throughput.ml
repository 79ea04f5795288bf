(** Estimate-throughput microbenchmark: how many schedule points per
    second can the analytic oracle cost?

    The workload is what the fuzzer and every one-off compile pay per
    point (the autotuner compiles each structure once and binds its
    parallelization factors per candidate) — a full [compile] +
    [Sim.estimate] of one kernel stage
    against fixed inputs, repeated [reps] times — measured twice: once
    with the process-wide statistics cache disabled (every point
    re-derives its dataset statistics from the raw tensors) and once
    with it enabled.  The evaluation and cache-hit/miss counts are
    deterministic (sequential code, seeded data) and diffed by CI's
    perf-smoke job; the wall-clock fields and the speedup are not.

    The cached/uncached reports are also checked for bit-identity here —
    a cheap standing guard in every suite run on top of the dedicated
    tests. *)

module K = Stardust_core.Kernels
module Sim = Stardust_capstan.Sim
module D = Stardust_workloads.Datasets
module F = Stardust_tensor.Format
module Stats_cache = Stardust_tensor.Stats_cache

let reps = 60

(* Input scale: large enough that the O(nnz) statistics scans dominate an
   uncached estimate (the regime the paper's datasets are in), small
   enough that a suite run stays fast. *)
let spmv_inputs () =
  [
    ( "A",
      D.random_matrix ~seed:3 ~name:"A" ~format:(F.csr ()) ~rows:2000
        ~cols:2000 ~density:0.05 () );
    ("x", D.dense_vector ~seed:4 ~name:"x" ~dim:2000 ());
  ]

let sddmm_inputs () =
  [
    ( "B",
      D.random_matrix ~seed:5 ~name:"B" ~format:(F.csr ()) ~rows:1500
        ~cols:1500 ~density:0.05 () );
    ( "C",
      D.dense_matrix ~seed:6 ~name:"C" ~format:(F.rm ()) ~rows:1500 ~cols:64
        () );
    ( "D",
      D.dense_matrix ~seed:7 ~name:"D" ~format:(F.rm ()) ~rows:1500 ~cols:64
        () );
  ]

let plus3_inputs () =
  [
    ( "B",
      D.random_matrix ~seed:8 ~name:"B" ~format:(F.csr ()) ~rows:800
        ~cols:800 ~density:0.04 () );
    ( "C",
      D.random_matrix ~seed:9 ~name:"C" ~format:(F.csr ()) ~rows:800
        ~cols:800 ~density:0.04 () );
  ]

let workloads () =
  [
    ("spmv", K.spmv, List.hd K.spmv.K.stages, spmv_inputs ());
    ("sddmm", K.sddmm, List.hd K.sddmm.K.stages, sddmm_inputs ());
    ("plus3", K.plus3, List.hd K.plus3.K.stages, plus3_inputs ());
  ]

type row = {
  kernel : string;
  evaluations : int;  (** points costed per phase (deterministic) *)
  cache_hits : int;  (** cached phase only (deterministic) *)
  cache_misses : int;  (** cached phase only (deterministic) *)
  uncached_seconds : float;
  cached_seconds : float;
}

let speedup r =
  if r.cached_seconds > 0.0 then r.uncached_seconds /. r.cached_seconds
  else infinity

let points_per_sec n s = if s > 0.0 then float_of_int n /. s else infinity

(* One compile+estimate — the per-candidate unit of autotuner work. *)
let evaluate_once spec st ~inputs =
  Sim.estimate ~config:Sim.default_config (K.compile_stage spec st ~inputs)

let time_phase spec st ~inputs =
  let t0 = Unix.gettimeofday () in
  let last = ref None in
  for _ = 1 to reps do
    last := Some (evaluate_once spec st ~inputs)
  done;
  (Unix.gettimeofday () -. t0, Option.get !last)

let measure () =
  let was_enabled = Stats_cache.is_enabled () in
  let rows =
    List.map
      (fun (kernel, spec, st, inputs) ->
        Stats_cache.set_enabled false;
        let uncached_seconds, r_un = time_phase spec st ~inputs in
        Stats_cache.set_enabled true;
        Stats_cache.reset ();
        let cached_seconds, r_c = time_phase spec st ~inputs in
        let c = Stats_cache.counters () in
        if r_un <> r_c then
          Fmt.failwith
            "throughput: cached and uncached %s estimates differ" kernel;
        {
          kernel;
          evaluations = reps;
          cache_hits = c.Stats_cache.hits;
          cache_misses = c.Stats_cache.misses;
          uncached_seconds;
          cached_seconds;
        })
      (workloads ())
  in
  Stats_cache.set_enabled was_enabled;
  rows

(** JSON fragment for the suite document: one object per kernel.
    [evaluations]/[cache_hits]/[cache_misses] are the deterministic
    fields; the wall-clock fields are ignored by perf-diff. *)
let rows_json rows =
  let num = Stardust_json.Json.number_to_string in
  String.concat ","
    (List.map
       (fun r ->
         Printf.sprintf
           "{\"kernel\":\"%s\",\"evaluations\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"wall_uncached_seconds\":%s,\"wall_cached_seconds\":%s}"
           r.kernel r.evaluations r.cache_hits r.cache_misses
           (num r.uncached_seconds) (num r.cached_seconds))
       rows)

(** Standalone [bench estimate-throughput]: human-readable table. *)
let run () =
  let rows = measure () in
  Fmt.pr "@.== Estimate throughput (%d compile+estimate points/phase) ==@."
    reps;
  Fmt.pr "%-8s %12s %12s %8s %10s@." "kernel" "pts/s cold" "pts/s cached"
    "speedup" "hit rate";
  List.iter
    (fun r ->
      let queries = r.cache_hits + r.cache_misses in
      Fmt.pr "%-8s %12.1f %12.1f %7.1fx %9.1f%%@." r.kernel
        (points_per_sec r.evaluations r.uncached_seconds)
        (points_per_sec r.evaluations r.cached_seconds)
        (speedup r)
        (if queries = 0 then 0.0
         else 100.0 *. float_of_int r.cache_hits /. float_of_int queries))
    rows
