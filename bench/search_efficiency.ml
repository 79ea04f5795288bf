(** Search-efficiency benchmark: the evaluation budget of bound-guided
    successive halving against exhaustive enumeration.

    For each paper kernel the wide {!Stardust_explore.Space.efficiency_axes}
    grid is searched both ways, and each run reports how many full estimator walks it spent, whether its
    Pareto frontier is point-identical to exhaustive enumeration's, and
    whether it stayed within a tenth of exhaustive's evaluations.

    Everything except wall-clock is deterministic: the inputs are seeded,
    the strategies run their control flow on the driver thread, and the
    budgets are pinned.  CI's perf-smoke job diffs the rows, so a change
    that degrades a strategy's frontier quality ([frontier_match] flips
    to 0), inflates its evaluation count, or loosens the admissible bound
    ([bound_evals]) fails the build — the acceptance criterion of the
    budgeted-search work, held as a standing regression gate. *)

module K = Stardust_core.Kernels
module Explore = Stardust_explore.Explore
module Eval = Stardust_explore.Eval
module Point = Stardust_explore.Point
module Space = Stardust_explore.Space
module Metrics = Stardust_obs.Metrics

let scale = 256
let kernels = [ "spmv"; "sddmm"; "plus3" ]

(* Pinned budget: the tightest value at which halving still reproduces
   the exact exhaustive frontier on every kernel above (with headroom of
   a few evaluations). *)
let strategies =
  [
    ("exhaustive", Explore.Exhaustive, None);
    ("halving", Explore.Halving, Some 24);
  ]

type row = {
  kernel : string;
  strategy : string;
  budget : int;  (** 0 = uncapped *)
  candidates : int;
  full_evals : int;
  estimates : int;  (** full evaluations that reached the estimator *)
  bound_evals : int;  (** stats-only lower bounds (cheap) *)
  frontier_size : int;
  frontier_match : bool;  (** frontier point-identical to exhaustive *)
  within_tenth : bool;  (** estimates <= 10% of exhaustive's *)
  wall_seconds : float;
}

let problem_of kname =
  let spec =
    match K.find kname with
    | Some s -> s
    | None -> Fmt.failwith "search-efficiency: unknown kernel %s" kname
  in
  let st = List.hd spec.K.stages in
  Eval.problem_of_string ~name:kname ~formats:st.K.formats
    ~inputs:(Autotune.stage_inputs st scale)
    st.K.expr

let frontier_fps (r : Explore.result) =
  List.map (fun (e : Eval.eval) -> Point.fingerprint e.Eval.point)
    r.Explore.frontier

let measure () =
  List.concat_map
    (fun kernel ->
      let p = problem_of kernel in
      let axes =
        Space.efficiency_axes ~formats:p.Eval.formats p.Eval.expr
      in
      let runs =
        List.map
          (fun (sname, strategy, budget) ->
            let t0 = Unix.gettimeofday () in
            let r = Explore.run ~workers:4 ~strategy ?budget ~axes p in
            (sname, r, Unix.gettimeofday () -. t0))
          strategies
      in
      let ex =
        match runs with
        | ("exhaustive", r, _) :: _ -> r
        | _ -> assert false
      in
      let ex_fps = frontier_fps ex and ex_est = Explore.estimate_count ex in
      List.map
        (fun (sname, (r : Explore.result), wall) ->
          let estimates = Explore.estimate_count r in
          {
            kernel;
            strategy = sname;
            budget = (match r.Explore.budget with None -> 0 | Some b -> b);
            candidates = r.Explore.candidates;
            full_evals = List.length r.Explore.evaluated;
            estimates;
            bound_evals = r.Explore.bound_evals;
            frontier_size = List.length r.Explore.frontier;
            frontier_match = frontier_fps r = ex_fps;
            within_tenth = estimates * 10 <= ex_est;
            wall_seconds = wall;
          })
        runs)
    kernels

(** JSON fragment for the suite document: one object per kernel/strategy
    pair.  Every field except [wall_seconds] is deterministic and diffed
    by perf-smoke. *)
let rows_json rows =
  let num = Stardust_json.Json.number_to_string in
  String.concat ","
    (List.map
       (fun r ->
         Printf.sprintf
           "{\"kernel\":\"%s\",\"strategy\":\"%s\",\"budget\":%d,\"candidates\":%d,\"full_evals\":%d,\"estimates\":%d,\"bound_evals\":%d,\"frontier_size\":%d,\"frontier_match\":%d,\"within_tenth\":%d,\"wall_seconds\":%s}"
           r.kernel r.strategy r.budget r.candidates r.full_evals r.estimates
           r.bound_evals r.frontier_size
           (if r.frontier_match then 1 else 0)
           (if r.within_tenth then 1 else 0)
           (num r.wall_seconds))
       rows)

(** Standalone [bench search-efficiency]: human-readable table. *)
let run () =
  let rows = measure () in
  Fmt.pr "@.== Search efficiency: halving vs exhaustive (n=%d) ==@."
    scale;
  Fmt.pr "%-8s %-11s %7s %6s %10s %7s %9s %7s %7s@." "kernel" "strategy"
    "budget" "cand" "estimates" "bounds" "frontier" "exact" "<=10%";
  List.iter
    (fun r ->
      Fmt.pr "%-8s %-11s %7s %6d %10d %7d %9d %7s %7s@." r.kernel r.strategy
        (if r.budget = 0 then "-" else string_of_int r.budget)
        r.candidates r.estimates r.bound_evals r.frontier_size
        (if r.frontier_match then "yes" else "no")
        (if r.within_tenth then "yes" else "no"))
    rows
