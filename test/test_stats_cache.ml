(* Process-wide dataset-statistics cache: behavior invariance (cached and
   uncached estimates are bit-identical), fingerprint discrimination,
   determinism under parallel Pool workers, and the cache-miss reduction
   the autotuner relies on. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Stats_cache = Stardust_tensor.Stats_cache
module K = Stardust_core.Kernels
module Compile = Stardust_core.Compile
module Sim = Stardust_capstan.Sim
module D = Stardust_workloads.Datasets
module Explore = Stardust_explore.Explore
module Eval = Stardust_explore.Eval
module Space = Stardust_explore.Space
module Case = Stardust_oracle.Case
module Gen = Stardust_oracle.Gen

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Estimate with the cache disabled, then enabled from cold, then enabled
   from warm; all three must be bit-identical (evaluation is pure and the
   fast paths run the same monomorphic code cached or not). *)
let assert_invariant name compiled =
  Stats_cache.set_enabled false;
  let uncached = Sim.estimate ~config:Sim.default_config compiled in
  Stats_cache.set_enabled true;
  Stats_cache.reset ();
  let cold = Sim.estimate ~config:Sim.default_config compiled in
  let warm = Sim.estimate ~config:Sim.default_config compiled in
  checkb (name ^ ": cached(cold) = uncached") true (cold = uncached);
  checkb (name ^ ": cached(warm) = uncached") true (warm = uncached)

let kernel_invariance () =
  let stage spec = List.hd spec.K.stages in
  let spmv =
    K.compile_stage K.spmv (stage K.spmv)
      ~inputs:
        [
          ( "A",
            D.small_random ~seed:3 ~name:"A" ~format:(F.csr ())
              ~dims:[ 32; 32 ] ~density:0.2 () );
          ("x", D.dense_vector ~seed:4 ~name:"x" ~dim:32 ());
        ]
  in
  assert_invariant "spmv" spmv;
  let sddmm =
    K.compile_stage K.sddmm (stage K.sddmm)
      ~inputs:
        [
          ( "B",
            D.small_random ~seed:5 ~name:"B" ~format:(F.csr ())
              ~dims:[ 20; 22 ] ~density:0.2 () );
          ( "C",
            D.dense_matrix ~seed:6 ~name:"C" ~format:(F.rm ()) ~rows:20
              ~cols:8 () );
          ( "D",
            D.dense_matrix ~seed:7 ~name:"D" ~format:(F.rm ()) ~rows:22
              ~cols:8 () );
        ]
  in
  assert_invariant "sddmm" sddmm;
  let ttv =
    K.compile_stage K.ttv (stage K.ttv)
      ~inputs:
        [
          ( "B",
            D.small_random ~seed:8 ~name:"B" ~format:(F.csf 3)
              ~dims:[ 10; 11; 12 ] ~density:0.15 () );
          ("c", D.dense_vector ~seed:9 ~name:"c" ~dim:12 ());
        ]
  in
  assert_invariant "ttv" ttv

(* 50 generator-drawn cases: every one that compiles must estimate
   bit-identically with and without the cache. *)
let oracle_case_invariance () =
  let attempted = ref 0 in
  for seed = 0 to 49 do
    match Case.prepare (Gen.gen ~seed) with
    | Error _ -> ()
    | Ok p -> (
        match
          Compile.compile_result ~name:"fuzz" p.Case.sched
            ~inputs:p.Case.inputs
        with
        | Error _ -> ()
        | Ok c -> (
            match
              Stats_cache.set_enabled false;
              Sim.estimate c
            with
            | exception Sim.Sim_error _ -> Stats_cache.set_enabled true
            | uncached ->
                Stats_cache.set_enabled true;
                Stats_cache.reset ();
                incr attempted;
                let cached = Sim.estimate c in
                checkb
                  (Printf.sprintf "case %d cached = uncached" seed)
                  true (cached = uncached)))
  done;
  checkb "estimated a meaningful number of cases" true (!attempted >= 10)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let of_entries name entries =
  T.of_entries ~name ~format:(F.csr ()) ~dims:[ 8; 8 ] entries

let fingerprint_discriminates () =
  let e1 = [ ([ 0; 1 ], 1.0); ([ 3; 4 ], 2.0); ([ 7; 2 ], 3.0) ] in
  let e2 = [ ([ 0; 1 ], 1.0); ([ 3; 4 ], 2.5); ([ 7; 2 ], 3.0) ] in
  let e3 = [ ([ 0; 1 ], 1.0); ([ 3; 5 ], 2.0); ([ 7; 2 ], 3.0) ] in
  let fp l = Stats_cache.fingerprint (of_entries "A" l) in
  check Alcotest.string "same data, same fingerprint" (fp e1) (fp e1);
  checkb "different values differ" false (fp e1 = fp e2);
  checkb "different coordinates differ" false (fp e1 = fp e3);
  checkb "different name differs" false
    (fp e1 = Stats_cache.fingerprint (of_entries "B" e1))

(* ------------------------------------------------------------------ *)
(* Enable/disable round-trip                                           *)
(* ------------------------------------------------------------------ *)

let no_cache_round_trip () =
  let a =
    D.small_random ~seed:11 ~name:"A" ~format:(F.csr ()) ~dims:[ 16; 16 ]
      ~density:0.3 ()
  in
  Stats_cache.set_enabled true;
  Stats_cache.reset ();
  let s1 = Stats_cache.stats a in
  let c1 = Stats_cache.counters () in
  checki "first query misses" 1 c1.Stats_cache.misses;
  let s2 = Stats_cache.stats a in
  let c2 = Stats_cache.counters () in
  checki "second query hits" 1 c2.Stats_cache.hits;
  checkb "hit returns the same stats" true (s1 = s2);
  Stats_cache.set_enabled false;
  checkb "disabled reports disabled" false (Stats_cache.is_enabled ());
  let c0 = Stats_cache.counters () in
  let s3 = Stats_cache.stats a in
  let s4 = Stats_cache.stats a in
  let c3 = Stats_cache.counters () in
  checki "disabled queries all miss"
    (c0.Stats_cache.misses + 2)
    c3.Stats_cache.misses;
  checki "disabled queries never hit" c0.Stats_cache.hits
    c3.Stats_cache.hits;
  checkb "disabled results identical" true (s1 = s3 && s3 = s4);
  Stats_cache.set_enabled true;
  let s5 = Stats_cache.stats a in
  checkb "re-enabled results identical" true (s1 = s5)

(* ------------------------------------------------------------------ *)
(* LRU capacity bound                                                  *)
(* ------------------------------------------------------------------ *)

(* Shrink the bound to 2 entries and query 3 distinct tensors: the table
   stays bounded, evictions are counted, an evicted entry recomputes
   (bit-identically), and a kept entry still hits. *)
let lru_eviction () =
  let tensor seed =
    D.small_random ~seed ~name:(Printf.sprintf "T%d" seed)
      ~format:(F.csr ()) ~dims:[ 12; 12 ] ~density:0.3 ()
  in
  let orig_capacity = Stats_cache.capacity () in
  Fun.protect
    ~finally:(fun () -> Stats_cache.set_capacity orig_capacity)
    (fun () ->
      Stats_cache.set_enabled true;
      Stats_cache.reset ();
      Stats_cache.set_capacity 2;
      checki "capacity reports the bound" 2 (Stats_cache.capacity ());
      let a = tensor 31 and b = tensor 32 and c = tensor 33 in
      let sa = Stats_cache.stats a in
      let _ = Stats_cache.stats b in
      let _ = Stats_cache.stats c in
      checkb "table bounded to capacity" true (Stats_cache.size () <= 2);
      let after_fill = Stats_cache.counters () in
      checkb "overflow evicted at least one entry" true
        (after_fill.Stats_cache.evictions >= 1);
      (* [a] is the least recently used entry, so it was the victim;
         re-querying recomputes the same stats *)
      let sa' = Stats_cache.stats a in
      let after_requery = Stats_cache.counters () in
      checki "evicted entry recomputes (a miss)"
        (after_fill.Stats_cache.misses + 1)
        after_requery.Stats_cache.misses;
      checkb "recomputed stats bit-identical" true (sa = sa');
      (* [a] is now the most recent entry and must hit *)
      let _ = Stats_cache.stats a in
      checki "refilled entry hits"
        (after_requery.Stats_cache.hits + 1)
        (Stats_cache.counters ()).Stats_cache.hits;
      (* growing the bound back stops eviction *)
      Stats_cache.set_capacity 64;
      let grown = (Stats_cache.counters ()).Stats_cache.evictions in
      let _ = Stats_cache.stats b in
      let _ = Stats_cache.stats c in
      checki "no eviction under a roomy bound" grown
        (Stats_cache.counters ()).Stats_cache.evictions)

(* ------------------------------------------------------------------ *)
(* Search integration                                                  *)
(* ------------------------------------------------------------------ *)

let spmv_problem () =
  let a =
    D.small_random ~seed:21 ~name:"A" ~format:(F.csr ()) ~dims:[ 24; 24 ]
      ~density:0.2 ()
  in
  let x = D.dense_vector ~seed:22 ~name:"x" ~dim:24 () in
  Eval.problem_of_string ~name:"spmv"
    ~formats:[ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ]
    ~inputs:[ ("A", a); ("x", x) ]
    "y(i) = A(i,j) * x(j)"

let sddmm_problem () =
  let b =
    D.small_random ~seed:23 ~name:"B" ~format:(F.csr ()) ~dims:[ 16; 18 ]
      ~density:0.2 ()
  in
  let c =
    D.dense_matrix ~seed:24 ~name:"C" ~format:(F.rm ()) ~rows:16 ~cols:8 ()
  in
  let d =
    D.dense_matrix ~seed:25 ~name:"D" ~format:(F.rm ()) ~rows:18 ~cols:8 ()
  in
  Eval.problem_of_string ~name:"sddmm"
    ~formats:
      [ ("A", F.csr ()); ("B", F.csr ()); ("C", F.rm ()); ("D", F.rm ()) ]
    ~inputs:[ ("B", b); ("C", c); ("D", d) ]
    "A(i,j) = B(i,j) * C(i,k) * D(j,k)"

let frontier_sig (r : Explore.result) =
  List.map
    (fun (e : Eval.eval) ->
      ( Stardust_explore.Point.fingerprint e.Eval.point,
        Eval.cycles e ))
    r.Explore.frontier

(* Domains racing on the shared cache must not change any search result:
   the frontier and every evaluation are identical at 1 and 4 workers. *)
let pool_determinism () =
  let p = spmv_problem () in
  Stats_cache.set_enabled true;
  Stats_cache.reset ();
  let r1 = Explore.run ~workers:1 p in
  Stats_cache.reset ();
  let r4 = Explore.run ~workers:4 p in
  checkb "frontier identical at 1 vs 4 workers" true
    (frontier_sig r1 = frontier_sig r4);
  checkb "evaluated cycles identical at 1 vs 4 workers" true
    (List.map Eval.cycles r1.Explore.evaluated
    = List.map Eval.cycles r4.Explore.evaluated)

(* The acceptance check of the statistics cache: evaluating every point
   of the SDDMM grid performs >= 10x fewer raw statistics computations
   with the cache than without, with identical answers.  The points go
   through per-point uncached evaluation ([Eval.compute]), which compiles
   every point: a search now compiles each structure once and binds its
   parallelization factors per point, so it no longer repeats the
   per-compile statistics work the cache exists to absorb. *)
let grid_miss_reduction () =
  let p = sddmm_problem () in
  let pts =
    Space.points ~formats:p.Eval.formats p.Eval.expr
      (Space.default_axes ~formats:p.Eval.formats p.Eval.expr)
  in
  let grid () = List.map (fun pt -> Eval.cycles (Eval.compute p pt)) pts in
  Stats_cache.set_enabled true;
  Stats_cache.reset ();
  let c_on = grid () in
  let on = Stats_cache.counters () in
  Stats_cache.set_enabled false;
  Stats_cache.reset ();
  let c_off = grid () in
  let off = Stats_cache.counters () in
  Stats_cache.set_enabled true;
  checkb "answers unchanged by caching" true (c_on = c_off);
  checkb
    (Printf.sprintf "raw computations reduced >= 10x (%d -> %d)"
       off.Stats_cache.misses on.Stats_cache.misses)
    true
    (off.Stats_cache.misses >= 10 * on.Stats_cache.misses)

let suite =
  [
    Alcotest.test_case "cached estimates bit-identical (kernels)" `Quick
      kernel_invariance;
    Alcotest.test_case "cached estimates bit-identical (oracle cases)"
      `Quick oracle_case_invariance;
    Alcotest.test_case "fingerprint discriminates data" `Quick
      fingerprint_discriminates;
    Alcotest.test_case "no-stats-cache round-trip" `Quick
      no_cache_round_trip;
    Alcotest.test_case "LRU eviction under a tiny bound" `Quick lru_eviction;
    Alcotest.test_case "pool workers 1 vs 4 deterministic" `Quick
      pool_determinism;
    Alcotest.test_case "grid search >=10x fewer raw computations" `Quick
      grid_miss_reduction;
  ]
