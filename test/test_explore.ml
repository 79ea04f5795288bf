(* Tests for Stardust_explore: legality predicates, the parallel pool,
   Pareto filtering, and end-to-end search properties. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module P = Stardust_ir.Parser
module Legality = Stardust_core.Legality
module K = Stardust_core.Kernels
module Resources = Stardust_capstan.Resources
module D = Stardust_workloads.Datasets
module Explore = Stardust_explore.Explore
module Eval = Stardust_explore.Eval
module Point = Stardust_explore.Point
module Space = Stardust_explore.Space
module Pool = Stardust_explore.Pool
module Pareto = Stardust_explore.Pareto
module Prune = Stardust_explore.Prune
module Kx = Stardust_core.Kernels_extra
module Auto = Stardust_core.Autoschedule
module Plan = Stardust_core.Plan
module Lower = Stardust_core.Lower
module Compile = Stardust_core.Compile
module Schedule = Stardust_schedule.Schedule
module Spatial_ir = Stardust_spatial.Spatial_ir
module Arch = Stardust_capstan.Arch
module Sim = Stardust_capstan.Sim
module Metrics = Stardust_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Legality predicates (shared by the heuristic and the explorer)      *)
(* ------------------------------------------------------------------ *)

let spmv_assign = P.parse_assign "y(i) = A(i,j) * x(j)"
let spmv_formats = [ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ]

let sddmm_assign = P.parse_assign "A(i,j) = B(i,j) * C(i,k) * D(j,k)"

let sddmm_formats =
  [ ("A", F.csr ()); ("B", F.csr ()); ("C", F.rm ()); ("D", F.rm ()) ]

let test_respects_levels () =
  Alcotest.(check bool)
    "CSR canonical order is legal" true
    (Legality.respects_levels ~formats:spmv_formats spmv_assign [ "i"; "j" ]);
  Alcotest.(check bool)
    "CSR reversed order binds j before its parent level" false
    (Legality.respects_levels ~formats:spmv_formats spmv_assign [ "j"; "i" ])

let test_legal_orders () =
  Alcotest.(check (list (list string)))
    "SpMV has exactly one legal order" [ [ "i"; "j" ] ]
    (Legality.legal_orders ~formats:spmv_formats spmv_assign [ "i"; "j" ]);
  let orders =
    Legality.legal_orders ~formats:sddmm_formats sddmm_assign [ "i"; "j"; "k" ]
  in
  Alcotest.(check bool)
    "SDDMM canonical order is among the legal ones" true
    (List.mem [ "i"; "j"; "k" ] orders);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Fmt.str "order %s respects levels" (String.concat "," o))
        true
        (Legality.respects_levels ~formats:sddmm_formats sddmm_assign o))
    orders

let test_dense_last () =
  (* A reduction variable that only indexes dense levels sinks below the
     ones that touch compressed levels. *)
  let formats = [ ("alpha", F.make []); ("b", F.sv ()); ("c", F.dv ()) ] in
  let a = P.parse_assign "alpha = b(i) * c(j)" in
  let reordered, moved = Legality.dense_last ~formats a [ "j"; "i" ] in
  Alcotest.(check bool) "dense-only var moved" true moved;
  Alcotest.(check (list string))
    "j sinks below the sparse var" [ "i"; "j" ] reordered;
  (* SpMV's reduction variable indexes a compressed level: no move. *)
  let same, moved =
    Legality.dense_last ~formats:spmv_formats spmv_assign [ "j" ]
  in
  Alcotest.(check bool) "nothing to move for SpMV" false moved;
  Alcotest.(check (list string)) "order unchanged" [ "j" ] same

let test_uses_gather () =
  Alcotest.(check bool)
    "SpMV gathers the dense vector" true
    (Legality.uses_gather ~formats:spmv_formats spmv_assign);
  let formats = [ ("a", F.sv ()); ("b", F.sv ()); ("c", F.sv ()) ] in
  Alcotest.(check bool)
    "sparse-sparse add gathers nothing" false
    (Legality.uses_gather ~formats (P.parse_assign "a(i) = b(i) + c(i)"))

(* ------------------------------------------------------------------ *)
(* Pool: deterministic parallel map and memo cache                     *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let xs = Array.init 100 (fun i -> i) in
  let expect = Array.map (fun i -> i * i) xs in
  List.iter
    (fun workers ->
      Alcotest.(check (array int))
        (Fmt.str "map with %d workers preserves order" workers)
        expect
        (Pool.map ~workers (fun i -> i * i) xs))
    [ 1; 2; 4 ]

let test_pool_map_exception () =
  List.iter
    (fun workers ->
      match
        Pool.map ~workers
          (fun i -> if i = 7 then failwith "boom 7" else i)
          (Array.init 16 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Worker_error"
      | exception Pool.Worker_error { index; exn = Failure m } ->
          Alcotest.(check int)
            (Fmt.str "failing item index with %d workers" workers)
            7 index;
          Alcotest.(check string) "original exception carried" "boom 7" m
      | exception e ->
          Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
    [ 1; 4 ]

(* Persistent pool lifecycle: a created handle serves many maps on the
   same parked domains, keeps the one-shot ordering guarantee, degrades
   to inline execution after shutdown, and runs nested submissions from
   inside a batch item inline instead of deadlocking. *)
let test_pool_lifecycle () =
  let pool = Pool.create ~workers:3 () in
  Alcotest.(check int) "size reports total workers" 3 (Pool.size pool);
  let xs = Array.init 50 (fun i -> i) in
  let expect = Array.map (fun i -> i + 1) xs in
  for round = 1 to 3 do
    Alcotest.(check (array int))
      (Fmt.str "round %d reuses the parked domains" round)
      expect
      (Pool.map ~pool (fun i -> i + 1) xs)
  done;
  (* a nested map from inside a batch item runs inline, not deadlocked;
     the flag is recorded per item and checked here on the main domain,
     because Alcotest's Format output is not domain-safe *)
  let nested =
    Pool.map ~pool
      (fun i ->
        ( Pool.in_pooled_task (),
          Array.fold_left ( + ) 0
            (Pool.map ~pool (fun j -> i * j) (Array.init 4 (fun j -> j))) ))
      (Array.init 6 (fun i -> i))
  in
  Alcotest.(check (array bool))
    "inside a pooled item the flag is set" (Array.make 6 true)
    (Array.map fst nested);
  Alcotest.(check (array int))
    "nested results correct" [| 0; 6; 12; 18; 24; 30 |] (Array.map snd nested);
  Alcotest.(check bool)
    "flag cleared outside pooled items" false (Pool.in_pooled_task ());
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.(check (array int))
    "map after shutdown degrades to inline" expect
    (Pool.map ~pool (fun i -> i + 1) xs)

(* Shutdown degradation is structured, never a hang or an assert:
   double shutdown is a no-op, submit-after-shutdown computes inline
   with correct values, and a shutdown from inside a pooled task is
   refused with a stable diagnostic instead of deadlocking the pool. *)
let test_pool_shutdown_edges () =
  let pool = Pool.create ~workers:2 () in
  (* shutdown requested from inside a pooled task: refused, stable code *)
  (* each item records its refusal's code; the checks run on the main
     domain, because Alcotest's Format output is not domain-safe *)
  let results =
    Pool.map ~pool
      (fun i ->
        match Pool.shutdown pool with
        | () -> ("not refused", i * 2)
        | exception Stardust_diag.Diag.Fail ds ->
            ((List.hd ds).Stardust_diag.Diag.code, i * 2))
      (Array.init 4 (fun i -> i))
  in
  Alcotest.(check (array string))
    "refusal carries the internal-invariant code"
    (Array.make 4 Stardust_diag.Diag.code_internal)
    (Array.map fst results);
  Alcotest.(check (array int))
    "batch completes despite the refused shutdown" [| 0; 2; 4; 6 |]
    (Array.map snd results);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent, any number of times *);
  Alcotest.(check (array int))
    "submit after shutdown answers inline, right values" [| 1; 2; 3 |]
    (Pool.map ~pool (fun i -> i + 1) [| 0; 1; 2 |])

(* The deadline wrapper: timely work returns Ok, slow work is abandoned
   with the elapsed budget, and exceptions propagate unwrapped. *)
let test_pool_with_deadline () =
  (match Pool.with_deadline ~seconds:30.0 (fun () -> 6 * 7) with
  | Ok v -> Alcotest.(check int) "timely work returns its value" 42 v
  | Error _ -> Alcotest.fail "timely work must not be abandoned");
  (match
     Pool.with_deadline ~seconds:0.05 (fun () ->
         (* spin, don't sleep: abandonment must not depend on the
            workload yielding *)
         let rec spin deadline =
           if Unix.gettimeofday () < deadline then spin deadline
         in
         spin (Unix.gettimeofday () +. 10.0);
         0)
   with
  | Ok _ -> Alcotest.fail "spinning work must be abandoned"
  | Error (Pool.Deadline_expired seconds) ->
      Alcotest.(check (float 0.001)) "abandoned with its budget" 0.05 seconds
  | Error (Pool.Deadline_unenforceable _) ->
      Alcotest.fail "one runaway must not spend the abandoned budget");
  match Pool.with_deadline ~seconds:30.0 (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the exception to propagate"
  | exception Failure m ->
      Alcotest.(check string) "exception propagates unwrapped" "boom" m

(* Abandoned-domain accounting: runaways whose computations finish are
   reaped (joined) by later deadline-bearing calls, so a burst of
   short-lived timeouts never degrades deadline enforcement. *)
let test_pool_abandon_reap () =
  (* earlier tests may have left their own runaways (the with_deadline
     test's 10 s spinner); only this test's six must be reaped *)
  let baseline = Pool.reap_abandoned () in
  (* pile up several abandoned-but-finite runaways: each blows a 1 ms
     deadline, then finishes on its own ~50 ms later *)
  let spin_for seconds () =
    let stop = Unix.gettimeofday () +. seconds in
    let rec spin () = if Unix.gettimeofday () < stop then spin () in
    spin ();
    0
  in
  for _ = 1 to 6 do
    match Pool.with_deadline ~seconds:0.001 (spin_for 0.05) with
    | Ok _ -> Alcotest.fail "a 50ms spin must blow a 1ms deadline"
    | Error (Pool.Deadline_expired _) -> ()
    | Error (Pool.Deadline_unenforceable _) ->
        Alcotest.fail "six short runaways must not spend the budget"
  done;
  (* once the runaways have finished, the next call reaps them all and
     deadline enforcement is fully available again *)
  Unix.sleepf 0.2;
  (match Pool.with_deadline ~seconds:30.0 (fun () -> 21 * 2) with
  | Ok v -> Alcotest.(check int) "post-reap call succeeds" 42 v
  | Error _ -> Alcotest.fail "post-reap call must not be refused");
  Alcotest.(check bool)
    "every finished runaway reaped" true
    (Pool.reap_abandoned () <= baseline)

(* With the abandoned budget spent, a timed map item is refused before
   it runs (no sub-domain, no inline run without a deadline) and fails
   with a structured E0905. *)
let test_pool_timed_map_refused () =
  let release = Atomic.make false in
  let parked () =
    while not (Atomic.get release) do
      Unix.sleepf 0.001
    done;
    0
  in
  (* earlier tests may have left runaways of their own *)
  let baseline = Pool.reap_abandoned () in
  let park_until_spent () =
    let rec go n =
      if n < Pool.abandoned_budget then
        match Pool.with_deadline ~seconds:0.001 parked with
        | Error (Pool.Deadline_expired _) -> go (Pool.reap_abandoned ())
        | Ok _ | Error (Pool.Deadline_unenforceable _) ->
            Alcotest.fail "a parked runaway must blow its deadline"
    in
    go baseline
  in
  let ran = Atomic.make 0 in
  let results =
    Fun.protect
      ~finally:(fun () -> Atomic.set release true)
      (fun () ->
        park_until_spent ();
        Pool.map_result ~timeout:30.0 ~workers:1
          (fun x -> Atomic.incr ran; x)
          [| 1 |])
  in
  Alcotest.(check int) "refused item never ran" 0 (Atomic.get ran);
  (match results.(0) with
  | Error (Pool.Failure_raised { exn = Stardust_diag.Diag.Fail [ d ]; _ }) ->
      Alcotest.(check string) "refusal code" "E0905" d.Stardust_diag.Diag.code;
      Alcotest.(check bool) "abandoned count in context" true
        (List.mem_assoc "abandoned_domains" d.Stardust_diag.Diag.context)
  | _ -> Alcotest.fail "expected a structured E0905 refusal");
  (* released runaways finish and are reaped, restoring the budget *)
  let rec drain k =
    if Pool.reap_abandoned () > baseline && k > 0 then begin
      Unix.sleepf 0.01;
      drain (k - 1)
    end
  in
  drain 500;
  match Pool.map_result ~timeout:30.0 ~workers:1 (fun x -> x + 1) [| 1 |] with
  | [| Ok 2 |] -> ()
  | _ -> Alcotest.fail "timed map must run again once runaways are reaped"

let test_pool_cache () =
  let cache : int Pool.Cache.t = Pool.Cache.create () in
  let calls = ref 0 in
  let f () = incr calls; 41 + 1 in
  let a = Pool.Cache.find_or_compute cache "k" f in
  let b = Pool.Cache.find_or_compute cache "k" f in
  Alcotest.(check int) "value" 42 a;
  Alcotest.(check int) "cached value" 42 b;
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "one entry" 1 (Pool.Cache.size cache)

(* ------------------------------------------------------------------ *)
(* Pareto frontier                                                     *)
(* ------------------------------------------------------------------ *)

let test_pareto () =
  let pts = [ (4., 1.); (1., 4.); (2., 2.); (3., 3.); (2., 2.); (5., 0.5) ] in
  let obj x = Some x in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "dominated points dropped, sorted by primary"
    [ (1., 4.); (2., 2.); (4., 1.); (5., 0.5) ]
    (Pareto.frontier obj pts);
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "best is the cycle minimum" (Some (1., 4.))
    (Pareto.best obj pts);
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "empty input" None
    (Pareto.best obj [])

(* ------------------------------------------------------------------ *)
(* End-to-end search properties                                        *)
(* ------------------------------------------------------------------ *)

let spmv_problem seed =
  let a = D.small_random ~seed ~name:"A" ~format:(F.csr ()) ~dims:[ 24; 24 ]
      ~density:0.2 () in
  let x = D.dense_vector ~seed:(seed + 1) ~name:"x" ~dim:24 () in
  Eval.problem ~name:"spmv" ~formats:spmv_formats
    ~inputs:[ ("A", a); ("x", x) ]
    spmv_assign

let sddmm_problem seed =
  let b = D.small_random ~seed ~name:"B" ~format:(F.csr ()) ~dims:[ 16; 18 ]
      ~density:0.2 () in
  let c = D.dense_matrix ~seed:(seed + 1) ~name:"C" ~format:(F.rm ()) ~rows:16
      ~cols:8 () in
  let d = D.dense_matrix ~seed:(seed + 2) ~name:"D" ~format:(F.rm ()) ~rows:18
      ~cols:8 () in
  Eval.problem ~name:"sddmm" ~formats:sddmm_formats
    ~inputs:[ ("B", b); ("C", c); ("D", d) ]
    sddmm_assign

let mttkrp_problem seed =
  let st = List.hd K.mttkrp.K.stages in
  let b = D.small_random ~seed ~name:"B" ~format:(F.csf 3)
      ~dims:[ 8; 9; 10 ] ~density:0.15 () in
  let c = D.dense_matrix ~seed:(seed + 1) ~name:"C" ~format:(F.rm ()) ~rows:9
      ~cols:6 () in
  let d = D.dense_matrix ~seed:(seed + 2) ~name:"D" ~format:(F.rm ()) ~rows:10
      ~cols:6 () in
  Eval.problem_of_string ~name:"mttkrp" ~formats:st.K.formats
    ~inputs:[ ("B", b); ("C", c); ("D", d) ]
    st.K.expr

(* The heuristic's point is always enumerated first, so the explorer's
   best can never be slower than the autoscheduler's choice. *)
let check_never_worse name problem =
  let r = Explore.run ~workers:2 problem in
  (match (Option.bind r.Explore.best Eval.cycles,
          Eval.cycles r.Explore.seed_eval) with
  | Some best, Some seed ->
      if best > seed then
        Alcotest.failf "%s: explorer best %.0f slower than heuristic %.0f"
          name best seed
  | None, Some seed ->
      Alcotest.failf "%s: heuristic feasible (%.0f) but explorer found nothing"
        name seed
  | _, None -> (* heuristic point over budget: nothing to compare *) ());
  (* every frontier point must fit on the chip *)
  List.iter
    (fun (e : Eval.eval) ->
      match e.Eval.outcome with
      | Eval.Feasible { usage; _ } ->
          Alcotest.(check bool)
            (Fmt.str "%s frontier point %s fits" name
               (Point.to_string e.Eval.point))
            true usage.Resources.feasible
      | Eval.Infeasible reason ->
          Alcotest.failf "%s: infeasible point %s on the frontier (%s)" name
            (Point.to_string e.Eval.point) reason)
    r.Explore.frontier

let prop_never_worse =
  QCheck.Test.make ~name:"explorer best never slower than heuristic" ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      check_never_worse "spmv" (spmv_problem seed);
      check_never_worse "sddmm" (sddmm_problem seed);
      check_never_worse "mttkrp" (mttkrp_problem seed);
      true)

let frontier_points (r : Explore.result) =
  List.map (fun (e : Eval.eval) -> e.Eval.point) r.Explore.frontier

let test_determinism () =
  let p = sddmm_problem 11 in
  let r1 = Explore.run ~workers:1 p in
  let r4 = Explore.run ~workers:4 p in
  Alcotest.(check int)
    "same candidate count" r1.Explore.candidates r4.Explore.candidates;
  Alcotest.(check bool)
    "identical frontier regardless of worker count" true
    (List.for_all2 Point.equal (frontier_points r1) (frontier_points r4));
  let rh1 = Explore.run ~workers:1 ~strategy:Explore.Halving p in
  let rh4 = Explore.run ~workers:4 ~strategy:Explore.Halving p in
  Alcotest.(check bool)
    "halving is worker-count independent too" true
    (List.for_all2 Point.equal (frontier_points rh1) (frontier_points rh4))

let test_strategies_agree () =
  (* Halving searches a subset of exhaustive's space that always holds
     the seed, so it can never beat exhaustive and never lose to the
     seed. *)
  let p = spmv_problem 5 in
  let rex = Explore.run p in
  let rh = Explore.run ~strategy:Explore.Halving p in
  match (Option.bind rex.Explore.best Eval.cycles,
         Option.bind rh.Explore.best Eval.cycles) with
  | Some ex, Some h ->
      Alcotest.(check bool) "halving >= exhaustive best" true (h >= ex);
      (match Eval.cycles rh.Explore.seed_eval with
      | Some seed ->
          Alcotest.(check bool) "halving <= its seed" true (h <= seed)
      | None -> ())
  | _ -> Alcotest.fail "expected feasible best for SpMV"

(* ------------------------------------------------------------------ *)
(* Budgeted strategies                                                 *)
(* ------------------------------------------------------------------ *)

let eval_fps (r : Explore.result) =
  List.map
    (fun (e : Eval.eval) -> Point.fingerprint e.Eval.point)
    r.Explore.evaluated

(* Halving is driven entirely from the driver thread (ranking, rung
   scheduling), so its whole evaluation trail — not just the frontier —
   must be bit-identical at any worker count. *)
let test_budgeted_determinism () =
  let p = sddmm_problem 11 in
  List.iter
    (fun (name, strategy) ->
      let r1 = Explore.run ~workers:1 ~strategy p in
      let r4 = Explore.run ~workers:4 ~strategy p in
      Alcotest.(check (list string))
        (name ^ ": identical evaluation trail workers 1 vs 4")
        (eval_fps r1) (eval_fps r4);
      Alcotest.(check (list string))
        (name ^ ": identical frontier workers 1 vs 4")
        (List.map Point.fingerprint (frontier_points r1))
        (List.map Point.fingerprint (frontier_points r4));
      Alcotest.(check int)
        (name ^ ": same full-evaluation count")
        (List.length r1.Explore.evaluated)
        (List.length r4.Explore.evaluated);
      Alcotest.(check int)
        (name ^ ": same bound-evaluation count")
        r1.Explore.bound_evals r4.Explore.bound_evals)
    [ ("halving", Explore.Halving) ]

(* An explicit budget caps the number of distinct points submitted for
   full evaluation, whatever the strategy. *)
let test_budget_cap () =
  let p = spmv_problem 3 in
  List.iter
    (fun strategy ->
      let r = Explore.run ~workers:2 ~strategy ~budget:5 p in
      Alcotest.(check bool)
        "full evaluations within budget" true
        (List.length r.Explore.evaluated <= 5);
      Alcotest.(check (option int)) "budget reported" (Some 5) r.Explore.budget)
    [ Explore.Exhaustive; Explore.Halving ]

(* Acceptance: on the paper kernels at bench scale, halving reproduces
   exhaustive enumeration's exact Pareto frontier with at most a tenth
   of its full simulator evaluations. *)
let kernel_problem name n =
  let spec = Option.get (K.find name) in
  let st = List.hd spec.K.stages in
  Eval.problem_of_string ~name ~formats:st.K.formats
    ~inputs:(Stardust_serve.Workload.stage_random_inputs st n)
    st.K.expr

let test_budget_efficiency () =
  List.iter
    (fun kname ->
      let p = kernel_problem kname 256 in
      let axes =
        Space.efficiency_axes ~formats:p.Eval.formats p.Eval.expr
      in
      let ex = Explore.run ~workers:2 ~axes p in
      let ex_est = Explore.estimate_count ex in
      List.iter
        (fun (sname, strategy, budget) ->
          let r = Explore.run ~workers:2 ~strategy ~budget ~axes p in
          Alcotest.(check (list string))
            (Fmt.str "%s/%s: frontier identical to exhaustive" kname sname)
            (List.map Point.fingerprint (frontier_points ex))
            (List.map Point.fingerprint (frontier_points r));
          let est = Explore.estimate_count r in
          Alcotest.(check bool)
            (Fmt.str "%s/%s: %d estimates <= 10%% of exhaustive's %d" kname
               sname est ex_est)
            true
            (est * 10 <= ex_est))
        [ ("halving", Explore.Halving, 24) ])
    [ "spmv"; "sddmm"; "plus3" ]

(* The racing strategy discards candidates whose lower bound
   exceeds a measured champion, so the bound must never exceed the
   simulator's estimate.  Checked over oracle-generated cases — the same
   adversarial corpus the differential tests use — at a grid of
   parallelization points. *)
let oracle_problem seed =
  let case = Stardust_oracle.Gen.gen ~seed in
  match Stardust_oracle.Case.prepare case with
  | Error _ -> None
  | Ok prep ->
      let formats =
        List.map
          (fun (ts : Stardust_oracle.Case.tensor_spec) ->
            (ts.Stardust_oracle.Case.tname, ts.Stardust_oracle.Case.fmt))
          case.Stardust_oracle.Case.tensors
        @ [
            ( case.Stardust_oracle.Case.result,
              case.Stardust_oracle.Case.result_format );
          ]
      in
      Some
        (Eval.problem_of_string ~name:"oracle" ~formats
           ~inputs:prep.Stardust_oracle.Case.inputs
           case.Stardust_oracle.Case.expr)

let bound_admissible seed =
  match oracle_problem seed with
  | None -> true
  | Some p ->
      let pre = Eval.prepare p in
      List.iter
        (fun (op, ip) ->
          let pt = Point.make ~outer_par:op ~inner_par:ip () in
          match Eval.cycles (Eval.compute p pt) with
          | None -> ()
          | Some cycles ->
              let b = Eval.lower_bound pre pt in
              if b > cycles +. 1e-6 then
                QCheck.Test.fail_reportf
                  "seed %d %a: bound %.2f > estimate %.2f at op=%d ip=%d"
                  seed Stardust_ir.Ast.pp_assign p.Eval.expr b cycles op ip)
        [ (1, 1); (1, 16); (4, 4); (16, 1); (16, 16) ];
      true

let prop_bound_admissible =
  QCheck.Test.make ~name:"lower bound never exceeds the estimate" ~count:25
    QCheck.(int_range 0 10_000)
    bound_admissible

(* Oracle seeds whose cases once made the [Stats] co-iteration counts raise
   [Invalid_argument "Array.sub"] from inside [Sim.estimate] (1440,
   9923), or made [Gen.gen]'s dense fallback find no legal loop order
   (281, 778). *)
let regression_seeds = [ 1440; 9923; 281; 778 ]

let test_bound_regression_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Fmt.str "seed %d bound admissible" seed)
        true (bound_admissible seed))
    regression_seeds

(* Random inputs for one kernel stage, every dimension [n]. *)
let stage_problem ~n (spec : K.spec) (st : K.stage) =
  let inputs =
    List.filter_map
      (fun (tname, fmt) ->
        if tname = st.K.result || tname.[0] = '_' then None
        else
          let order = F.order fmt in
          let dims = List.init order (fun _ -> n) in
          let seed = Hashtbl.hash tname in
          Some
            ( tname,
              if order = 0 then T.scalar ~name:tname 1.5
              else if F.is_fully_dense fmt then
                D.small_random ~seed ~name:tname ~format:fmt ~dims ~density:1.0 ()
              else
                D.small_random ~seed ~name:tname ~format:fmt ~dims ~density:0.1 ()
            ))
      st.K.formats
  in
  Eval.problem_of_string ~name:(String.lowercase_ascii spec.K.kname)
    ~formats:st.K.formats ~inputs st.K.expr

let efficiency_points (p : Eval.problem) =
  Space.points ~formats:p.Eval.formats p.Eval.expr
    (Space.efficiency_axes ~formats:p.Eval.formats p.Eval.expr)

(* ------------------------------------------------------------------ *)
(* Structure + bind                                                    *)
(* ------------------------------------------------------------------ *)

(* A point compiled the direct way, as perfbench replays it: the
   schedule built at the point's own factors, planned, lowered and
   validated, with no structure in between.  [None] when any stage
   fails. *)
let direct_compile (p : Eval.problem) (pt : Point.t) =
  let arch = p.Eval.config.Sim.arch in
  match
    let d =
      { Auto.order = pt.Point.order; inner_par = pt.Point.inner_par;
        outer_par = pt.Point.outer_par }
    in
    let sched = Auto.schedule_point ~formats:p.Eval.formats p.Eval.expr d in
    let sched =
      match pt.Point.split with
      | None -> sched
      | Some (v, c) -> Schedule.split_up sched v (v ^ "_o") (v ^ "_i") c
    in
    let sram_budget =
      match pt.Point.gather with
      | Point.Auto -> None
      | Point.On_chip -> Some (arch.Arch.num_pmu * Arch.pmu_words arch)
      | Point.Off_chip -> Some 0
    in
    let plan = Plan.build ?sram_budget sched ~inputs:p.Eval.inputs in
    let program = Lower.lower ~name:p.Eval.name plan in
    (sched, plan, program)
  with
  | exception _ -> None
  | sched, plan, program ->
      if Spatial_ir.validate program <> [] then None
      else
        Some
          { Compile.name = p.Eval.name; schedule = sched; plan; program;
            inputs = p.Eval.inputs }

(* The outcome [Eval] would report for a directly compiled point. *)
let direct_outcome (p : Eval.problem) c =
  match Prune.check ~arch:p.Eval.config.Sim.arch c with
  | Prune.Reject r -> Eval.Infeasible r
  | Prune.Pass usage -> (
      match Sim.estimate ~config:p.Eval.config c with
      | report -> Eval.Feasible { report; usage }
      | exception Sim.Sim_error { kind; message } ->
          Eval.Infeasible
            (Fmt.str "simulate(%s): %s" (Sim.error_kind_name kind) message))

let compile_failure r =
  let starts pre =
    String.length r >= String.length pre
    && String.sub r 0 (String.length pre) = pre
  in
  starts "compile: " || starts "schedule: "

(* Every point of [p]'s efficiency space, through [Eval]'s structure +
   bind and through a direct compile at the point's factors, must give
   equal programs, plan factors, resource counts, prune verdicts and
   estimates, and fail to compile on the same points.  Returns how many
   points compiled. *)
let check_bind_equals_direct what (p : Eval.problem) =
  let arch = p.Eval.config.Sim.arch in
  let structures = Hashtbl.create 16 in
  let structure pt =
    let k = Eval.structure_key pt in
    match Hashtbl.find_opt structures k with
    | Some s -> s
    | None ->
        let s = Eval.structure p k in
        Hashtbl.add structures k s;
        s
  in
  List.fold_left
    (fun compiled pt ->
      let fail fmt =
        Alcotest.failf ("%s %s: " ^^ fmt) what (Point.to_string pt)
      in
      let s = structure pt in
      let via_eval = Eval.bind p s pt in
      match (s, direct_compile p pt) with
      | Error r, None when compile_failure r -> compiled
      | _, None -> fail "only the direct compile failed"
      | Error r, Some _ when compile_failure r ->
          fail "only the structure failed to compile: %s" r
      | _, Some d ->
          if via_eval.Eval.outcome <> direct_outcome p d then
            fail "outcomes differ";
          (match s with
          | Error _ -> ()
          | Ok s ->
              let b =
                Compile.bind ~inner:pt.Point.inner_par
                  ~outer:pt.Point.outer_par s
              in
              if not (Spatial_ir.equal_program b.Compile.program d.Compile.program)
              then fail "programs differ";
              if
                ( b.Compile.plan.Plan.inner_par,
                  b.Compile.plan.Plan.outer_par )
                <> (d.Compile.plan.Plan.inner_par, d.Compile.plan.Plan.outer_par)
              then fail "plan factors differ";
              if Resources.count arch b <> Resources.count arch d then
                fail "resource counts differ";
              if Prune.check ~arch b <> Prune.check ~arch d then
                fail "prune verdicts differ");
          compiled + 1)
    0 (efficiency_points p)

let test_bind_equals_direct_kernels () =
  List.iter
    (fun (spec : K.spec) ->
      List.iter
        (fun st ->
          let p = stage_problem ~n:16 spec st in
          let what = Fmt.str "%s [%s]" spec.K.kname st.K.expr in
          Alcotest.(check bool)
            (what ^ ": some point compiles")
            true
            (check_bind_equals_direct what p > 0))
        spec.K.stages)
    (K.all @ Kx.all)

let test_bind_equals_direct_oracle () =
  List.iter
    (fun seed ->
      match oracle_problem seed with
      | None -> ()
      | Some p ->
          ignore (check_bind_equals_direct (Fmt.str "oracle seed %d" seed) p))
    regression_seeds

(* A search compiles each distinct (order, split, gather) structure it
   visits exactly once, and no point on its own. *)
let test_search_compiles_structures_once () =
  List.iter
    (fun strategy ->
      let p = stage_problem ~n:16 K.sddmm (List.hd K.sddmm.K.stages) in
      let axes = Space.efficiency_axes ~formats:p.Eval.formats p.Eval.expr in
      Metrics.reset ();
      let r = Explore.run ~workers:2 ~strategy ~axes p in
      let compiles = Metrics.value (Metrics.counter "compile_total") in
      Metrics.reset ();
      let structures =
        List.sort_uniq compare
          (List.map
             (fun (e : Eval.eval) -> Eval.structure_key e.Eval.point)
             r.Explore.evaluated)
      in
      Alcotest.(check int)
        (Explore.strategy_name strategy ^ ": one compile per structure")
        (List.length structures) (int_of_float compiles);
      Alcotest.(check bool)
        (Explore.strategy_name strategy ^ ": structures are shared")
        true
        (List.length structures < List.length r.Explore.evaluated))
    [ Explore.Exhaustive; Explore.Halving ]

(* The racing strategy's admissibility, checked exhaustively: the
   stats-only bound never exceeds the estimate at any feasible point of
   the efficiency space of any paper kernel at n=32. *)
let test_bound_admissible_kernels () =
  List.iter
    (fun (spec : K.spec) ->
      let p = stage_problem ~n:32 spec (List.hd spec.K.stages) in
      let axes = Space.efficiency_axes ~formats:p.Eval.formats p.Eval.expr in
      let r = Explore.run ~workers:2 ~axes p in
      let pre = Eval.prepare p in
      List.iter
        (fun (e : Eval.eval) ->
          match Eval.cycles e with
          | None -> ()
          | Some cycles ->
              let b = Eval.lower_bound pre e.Eval.point in
              if b > cycles +. 1e-6 then
                Alcotest.failf "%s %s: bound %g > estimate %g" spec.K.kname
                  (Point.to_string e.Eval.point) b cycles)
        r.Explore.evaluated)
    K.all

let test_seed_first () =
  (* The candidate list starts with the heuristic decision. *)
  let axes = Space.default_axes ~formats:spmv_formats spmv_assign in
  let pts = Space.points ~formats:spmv_formats spmv_assign axes in
  let seed = Space.seed ~formats:spmv_formats spmv_assign in
  Alcotest.(check bool) "non-empty space" true (pts <> []);
  Alcotest.(check bool)
    "heuristic seed enumerated first" true
    (Point.equal (List.hd pts) seed)

let suite =
  [
    Alcotest.test_case "legality: respects_levels" `Quick test_respects_levels;
    Alcotest.test_case "legality: legal_orders" `Quick test_legal_orders;
    Alcotest.test_case "legality: dense_last" `Quick test_dense_last;
    Alcotest.test_case "legality: uses_gather" `Quick test_uses_gather;
    Alcotest.test_case "pool: map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "pool: exceptions propagate" `Quick
      test_pool_map_exception;
    Alcotest.test_case "pool: memo cache" `Quick test_pool_cache;
    Alcotest.test_case "pool: persistent lifecycle" `Quick
      test_pool_lifecycle;
    Alcotest.test_case "pool: shutdown edges are structured" `Quick
      test_pool_shutdown_edges;
    Alcotest.test_case "pool: with_deadline abandons slow work" `Quick
      test_pool_with_deadline;
    Alcotest.test_case "pool: abandoned domains are reaped" `Quick
      test_pool_abandon_reap;
    Alcotest.test_case "pool: timed map refused when budget spent" `Quick
      test_pool_timed_map_refused;
    Alcotest.test_case "pareto frontier" `Quick test_pareto;
    Alcotest.test_case "search: worker-count determinism" `Quick
      test_determinism;
    Alcotest.test_case "search: strategies consistent" `Quick
      test_strategies_agree;
    Alcotest.test_case "space: seed enumerated first" `Quick test_seed_first;
    Alcotest.test_case "budgeted: worker-count determinism" `Quick
      test_budgeted_determinism;
    Alcotest.test_case "budgeted: explicit budget caps evaluations" `Quick
      test_budget_cap;
    Alcotest.test_case "budgeted: frontier at <=10% of exhaustive" `Quick
      test_budget_efficiency;
    QCheck_alcotest.to_alcotest prop_never_worse;
    QCheck_alcotest.to_alcotest prop_bound_admissible;
    Alcotest.test_case "lower bound: oracle regression seeds" `Quick
      test_bound_regression_seeds;
    Alcotest.test_case "lower bound: every feasible kernel point" `Quick
      test_bound_admissible_kernels;
    Alcotest.test_case "structure+bind equals direct: kernels" `Quick
      test_bind_equals_direct_kernels;
    Alcotest.test_case "structure+bind equals direct: oracle seeds" `Quick
      test_bind_equals_direct_oracle;
    Alcotest.test_case "search: one compile per structure" `Quick
      test_search_compiles_structures_once;
  ]
