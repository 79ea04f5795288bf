(** Statistics-cache counts of repeated compile+estimate points.

    The workload is what the fuzzer and every one-off compile pay per
    point (the autotuner compiles each structure once and binds its
    parallelization factors per candidate) — a full [compile] +
    [Sim.estimate] of one kernel stage against fixed inputs, repeated
    [reps] times with the process-wide statistics cache on.  The
    evaluation and cache-hit/miss counts are deterministic (sequential
    code, seeded data) and diffed by CI's perf-smoke job.  That caching
    never changes an estimate is the [stats_cache] test suite's job. *)

module K = Stardust_core.Kernels
module Sim = Stardust_capstan.Sim
module D = Stardust_workloads.Datasets
module F = Stardust_tensor.Format
module Stats_cache = Stardust_tensor.Stats_cache

let reps = 60

(* Input scale: large enough that the O(nnz) statistics scans would
   dominate an uncached estimate (the regime the paper's datasets are
   in), small enough that a suite run stays fast; bench/baseline.json
   pins the counts these inputs produce. *)
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
  evaluations : int;  (** points costed (deterministic) *)
  cache_hits : int;  (** deterministic *)
  cache_misses : int;  (** deterministic *)
}

let measure () =
  let was_enabled = Stats_cache.is_enabled () in
  Stats_cache.set_enabled true;
  let rows =
    List.map
      (fun (kernel, spec, st, inputs) ->
        Stats_cache.reset ();
        for _ = 1 to reps do
          ignore
            (Sim.estimate ~config:Sim.default_config
               (K.compile_stage spec st ~inputs)
              : Sim.report)
        done;
        let c = Stats_cache.counters () in
        {
          kernel;
          evaluations = reps;
          cache_hits = c.Stats_cache.hits;
          cache_misses = c.Stats_cache.misses;
        })
      (workloads ())
  in
  Stats_cache.set_enabled was_enabled;
  rows

(** JSON fragment for the suite document: one object per kernel. *)
let rows_json rows =
  String.concat ","
    (List.map
       (fun r ->
         Printf.sprintf
           "{\"kernel\":\"%s\",\"evaluations\":%d,\"cache_hits\":%d,\"cache_misses\":%d}"
           r.kernel r.evaluations r.cache_hits r.cache_misses)
       rows)
