(** The design-space exploration driver (autotuner).

    Pipeline: {!Space} generates legal candidates seeded by the
    {!Stardust_core.Autoschedule} heuristic → {!Prune} rejects points that
    cannot be placed → {!Eval} costs the survivors with
    {!Stardust_capstan.Sim.estimate} on a {!Pool} of OCaml domains →
    {!Pareto} keeps the (cycles, chip-resources) frontier.

    Two strategies share that pipeline:

    - {b exhaustive} grid: every candidate, evaluated in parallel — the
      reference answer, and the only strategy that is right on every
      space;
    - {b halving} (racing): the stats-only admissible bound
      {!Eval.lower_bound} ranks every candidate within its resource
      group ({!Point.resource_signature}); rungs promote each group's
      best-ranked survivor to a full evaluation until the group's
      champion provably beats everything still queued.  It honors a
      {b budget} — a hard cap on distinct points promoted to full
      evaluation — and spends stats-only bounds (three orders of
      magnitude cheaper) to decide where the budget goes.

    Both are deterministic and independent of the worker count:
    candidates are enumerated in a fixed order, batches preserve input
    order ({!Pool.map}), budget accounting happens before batches fan
    out, and memoisation only short-circuits recomputation of a pure
    function. *)

module Json = Stardust_json.Json
module Sim = Stardust_capstan.Sim
module Resources = Stardust_capstan.Resources

type strategy = Exhaustive | Halving

let strategy_name = function
  | Exhaustive -> "exhaustive"
  | Halving -> "halving"

type result = {
  problem : Eval.problem;
  strategy : strategy;
  workers : int;
  candidates : int;  (** size of the enumerated space *)
  evaluated : Eval.eval list;  (** deterministic order, duplicates removed *)
  pruned : int;  (** evaluated points rejected before simulation *)
  bound_evals : int;  (** stats-only lower bounds computed *)
  budget : int option;  (** effective cap on full evaluations, if any *)
  seed_eval : Eval.eval;  (** the heuristic point's evaluation *)
  frontier : Eval.eval list;  (** feasible non-dominated, by cycles asc *)
  best : Eval.eval option;  (** frontier head: minimum cycles *)
}

(** Did this evaluation reach {!Sim.estimate}?  True for feasible points
    and for capacity guards raised {e inside} the estimator; false for
    compile/schedule/prune rejections, which never cost an estimator
    walk.  [estimate_count] is the budget-efficiency instrument: the
    acceptance criterion compares a budgeted strategy's count against
    exhaustive's. *)
let reached_estimate (e : Eval.eval) =
  match e.Eval.outcome with
  | Eval.Feasible _ -> true
  | Eval.Infeasible r ->
      String.length r >= 9 && String.sub r 0 9 = "simulate("

let estimate_count r =
  List.length (List.filter reached_estimate r.evaluated)

let objectives (e : Eval.eval) =
  match (Eval.cycles e, Eval.resource_frac e) with
  | Some c, Some r -> Some (c, r)
  | _ -> None

(* Deduplicate while preserving first-occurrence order. *)
let dedup evals =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (e : Eval.eval) ->
      let fp = Point.fingerprint e.Eval.point in
      if Hashtbl.mem seen fp then false
      else begin
        Hashtbl.add seen fp ();
        true
      end)
    evals

(* ------------------------------------------------------------------ *)
(* Halving                                                             *)
(* ------------------------------------------------------------------ *)

(* Candidates bucketed by resource signature, in first-occurrence
   (enumeration) order.  Each group's members are ranked by (lower bound
   asc, inner_par desc, enumeration index asc): the bound's slack grows
   as parallelism shrinks, so among bound ties — typically points pinned
   to the same memory-roofline floor — the widest vector is promoted
   first.  Members carry their enumeration index so budgeted results can
   be re-sorted into enumeration order, which keeps Pareto tie-breaking
   identical to exhaustive search. *)
let resource_groups ~bound all =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iteri
    (fun i (pt : Point.t) ->
      let k = Point.resource_signature pt in
      let c = (i, pt, bound pt) in
      match Hashtbl.find_opt tbl k with
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k [ c ]
      | Some l -> Hashtbl.replace tbl k (c :: l))
    all;
  List.rev_map
    (fun k ->
      List.sort
        (fun (i1, (p1 : Point.t), b1) (i2, (p2 : Point.t), b2) ->
          compare
            (b1, -p1.Point.inner_par, i1)
            (b2, -p2.Point.inner_par, i2))
        (List.rev (Hashtbl.find tbl k)))
    !order
  |> List.rev

(* Return the collected (index, eval) pairs as an enumeration-ordered
   eval list. *)
let by_enum_order collected =
  List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) collected)

(* Successive-halving/racing.  One full evaluation per resource group
   ideally suffices: within a group every point occupies the same chip
   fraction, so only the group's minimum-cycles member can sit on the
   frontier.  Each rung promotes the best-ranked unevaluated candidate
   of every live group as one parallel batch; a group retires once its
   champion's measured cycles are below every queued candidate's lower
   bound (the candidate provably cannot win — admissibility makes the
   discard safe), and the budget caps how many rungs of slack the race
   gets for walking past infeasible heads or loose bounds. *)
let halving ~eval_batch ~remaining ~bound all =
  let groups =
    List.map (fun q -> (ref q, ref None)) (resource_groups ~bound all)
  in
  let collected = ref [] in
  let fp_index batch evals =
    (* match a rung's returned evals (budget may have dropped some) back
       to their enumeration indices *)
    let by_fp = Hashtbl.create 16 in
    List.iter
      (fun (i, (pt : Point.t), _) ->
        Hashtbl.replace by_fp (Point.fingerprint pt) i)
      batch;
    List.filter_map
      (fun (e : Eval.eval) ->
        Option.map
          (fun i -> (i, e))
          (Hashtbl.find_opt by_fp (Point.fingerprint e.Eval.point)))
      evals
  in
  let champion_beats champ (i, _, b) =
    match champ with
    | None -> false
    | Some (ci, ce) -> (
        match Eval.cycles ce with
        | None -> false
        | Some c -> b > c || (b = c && ci < i))
  in
  let rec rung () =
    if remaining () <= 0 then ()
    else begin
      (* pop one runnable candidate per live group *)
      let batch =
        List.filter_map
          (fun (queue, champ) ->
            (* drop provably-beaten candidates first *)
            let rec next () =
              match !queue with
              | [] -> None
              | c :: rest ->
                  if champion_beats !champ c then begin
                    queue := rest;
                    next ()
                  end
                  else begin
                    queue := rest;
                    Some (c, champ)
                  end
            in
            next ())
          groups
      in
      if batch = [] then ()
      else begin
        let cands = List.map fst batch in
        let evals = eval_batch (List.map (fun (_, pt, _) -> pt) cands) in
        let indexed = fp_index cands evals in
        collected := List.rev_append indexed !collected;
        (* update champions: minimum cycles, earliest index on ties *)
        List.iter
          (fun ((i, pt, _), champ) ->
            match
              List.find_opt
                (fun (_, (e : Eval.eval)) ->
                  Point.fingerprint e.Eval.point = Point.fingerprint pt)
                indexed
            with
            | None -> ()
            | Some (_, e) -> (
                match (Eval.cycles e, !champ) with
                | None, _ -> ()
                | Some _, None -> champ := Some (i, e)
                | Some c, Some (ci, ce) ->
                    let cc = Option.get (Eval.cycles ce) in
                    if c < cc || (c = cc && i < ci) then champ := Some (i, e)))
          batch;
        rung ()
      end
    end
  in
  rung ();
  by_enum_order !collected

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** Search the design space of [problem].  [axes] defaults to
    {!Space.default_axes} for the problem's expression and formats;
    [workers] to {!Pool.default_workers}; [cache] to a fresh memo table
    (pass one in to share memoised evaluations across related runs).
    With [?pool] the evaluation batches run on a persistent
    {!Pool.create}d handle — the compile service reuses one pool across
    every request instead of re-spawning domains per search.

    [budget] caps the number of {e distinct points} promoted to a full
    evaluation (the heuristic seed is always submitted first and counts).
    Points beyond the cap are dropped deterministically in submission
    order, so a budgeted run is bit-identical at any worker count.
    Halving defaults to two rungs per resource group (plus slack);
    exhaustive stays uncapped unless a budget is passed explicitly. *)
let run ?workers ?pool ?(strategy = Exhaustive) ?budget ?axes ?cache
    (p : Eval.problem) =
  let workers =
    match (pool, workers) with
    | Some pl, _ -> Pool.size pl
    | None, Some w -> max 1 w
    | None, None -> Pool.default_workers ()
  in
  let axes =
    match axes with
    | Some ax -> ax
    | None ->
        Space.default_axes ~arch:p.Eval.config.Sim.arch ~formats:p.Eval.formats
          p.Eval.expr
  in
  let cache = match cache with Some c -> c | None -> Pool.Cache.create () in
  (* One prepare per search: problem key fingerprinted once, input
     statistics warmed into the shared cache before workers fan out. *)
  let pre = Eval.prepare p in
  let all = Space.points ~formats:p.Eval.formats p.Eval.expr axes in
  let seed_pt = List.hd all in
  let group_count =
    List.length
      (List.sort_uniq compare (List.map Point.resource_signature all))
  in
  let budget =
    match (budget, strategy) with
    | Some b, _ -> Some (max 1 b)
    | None, Halving -> Some ((2 * group_count) + 4)
    | None, Exhaustive -> None
  in
  (* The budget gate: new fingerprints are admitted until the cap, then
     dropped; already-submitted points always pass (they are memoised
     and free).  Accounting happens on the driver thread before the
     batch fans out, so it cannot depend on worker scheduling. *)
  let submitted = Hashtbl.create 256 in
  let spent = ref 0 in
  let remaining () =
    match budget with None -> max_int | Some b -> max 0 (b - !spent)
  in
  let eval_batch pts =
    let pts =
      List.filter
        (fun pt ->
          let fp = Point.fingerprint pt in
          if Hashtbl.mem submitted fp then true
          else if remaining () > 0 then begin
            Hashtbl.add submitted fp ();
            incr spent;
            true
          end
          else false)
        pts
    in
    Eval.evaluate ~workers ?pool ~cache pre pts
  in
  (* The heuristic seed is always the first submission: every strategy
     starts from a known-good point, and it always fits the budget. *)
  let seed_eval = List.hd (eval_batch [ seed_pt ]) in
  let bound_count = ref 0 in
  let bound pt =
    incr bound_count;
    Eval.lower_bound pre pt
  in
  let evaluated =
    match strategy with
    | Exhaustive -> eval_batch all
    | Halving -> dedup (seed_eval :: halving ~eval_batch ~remaining ~bound all)
  in
  let pruned =
    List.length
      (List.filter
         (fun (e : Eval.eval) ->
           match e.Eval.outcome with Eval.Infeasible _ -> true | _ -> false)
         evaluated)
  in
  let frontier = Pareto.frontier objectives evaluated in
  {
    problem = p;
    strategy;
    workers;
    candidates = List.length all;
    evaluated;
    pruned;
    bound_evals = !bound_count;
    budget;
    seed_eval;
    frontier;
    best = (match frontier with [] -> None | e :: _ -> Some e);
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_eval ppf (e : Eval.eval) =
  match e.Eval.outcome with
  | Eval.Feasible { report; usage } ->
      Fmt.pf ppf "%-44s %12.0f cycles  %3.0f%% chip (%s-bound)"
        (Point.to_string e.Eval.point) report.Sim.cycles
        (100.
        *. List.fold_left Float.max usage.Resources.pcu_frac
             [ usage.Resources.pmu_frac; usage.Resources.mc_frac;
               usage.Resources.shuffle_frac ])
        usage.Resources.limiting
  | Eval.Infeasible reason ->
      Fmt.pf ppf "%-44s pruned: %s" (Point.to_string e.Eval.point) reason

(** Human-readable report: search summary, Pareto frontier, best point,
    and the improvement over the heuristic seed. *)
let pp_result ppf (r : result) =
  Fmt.pf ppf "%s: %s search, %d candidates, %d evaluated (%d pruned), %d workers@."
    r.problem.Eval.name (strategy_name r.strategy) r.candidates
    (List.length r.evaluated) r.pruned r.workers;
  (match r.budget with
  | None -> ()
  | Some b ->
      Fmt.pf ppf
        "budget: %d full evaluations (%d estimator walks spent, %d \
         stats-only bounds)@."
        b (estimate_count r) r.bound_evals);
  Fmt.pf ppf "heuristic seed: %a@." pp_eval r.seed_eval;
  Fmt.pf ppf "Pareto frontier (cycles vs chip fraction):@.";
  List.iter (fun e -> Fmt.pf ppf "  %a@." pp_eval e) r.frontier;
  match (r.best, Eval.cycles r.seed_eval) with
  | Some b, Some seed_cycles ->
      let bc = Option.get (Eval.cycles b) in
      Fmt.pf ppf "best: %a@." pp_eval b;
      if bc < seed_cycles then
        Fmt.pf ppf "%.2fx faster than the heuristic point@."
          (seed_cycles /. bc)
      else Fmt.pf ppf "heuristic point is already optimal in this space@."
  | Some b, None -> Fmt.pf ppf "best: %a@." pp_eval b
  | None, _ -> Fmt.pf ppf "no feasible point in the search space@."

let json_of_point (pt : Point.t) =
  Json.Obj
    [
      ( "order",
        match pt.Point.order with
        | None -> Json.Null
        | Some o -> Json.Str (String.concat "," o) );
      ("outer_par", Json.int pt.Point.outer_par);
      ("inner_par", Json.int pt.Point.inner_par);
      ( "split",
        match pt.Point.split with
        | None -> Json.Null
        | Some (v, c) ->
            Json.Obj [ ("var", Json.Str v); ("tile", Json.int c) ] );
      ("gather", Json.Str (Point.gather_name pt.Point.gather));
    ]

(* Cycles and DRAM bytes are reported as whole numbers. *)
let json_of_eval (e : Eval.eval) =
  let point = ("point", json_of_point e.Eval.point) in
  match e.Eval.outcome with
  | Eval.Feasible { report; usage } ->
      Json.Obj
        [
          point;
          ("cycles", Json.Num (Float.round report.Sim.cycles));
          ("seconds", Json.Num report.Sim.seconds);
          ("dram_bytes", Json.Num (Float.round report.Sim.streamed_bytes));
          ("pcu", Json.int usage.Resources.pcu);
          ("pmu", Json.int usage.Resources.pmu);
          ("mc", Json.int usage.Resources.mc);
          ("shuffle", Json.int usage.Resources.shuffle);
          ("limiting", Json.Str usage.Resources.limiting);
        ]
  | Eval.Infeasible reason -> Json.Obj [ point; ("pruned", Json.Str reason) ]

(** Machine-readable report for trajectory tracking and tooling.
    [full_evals] counts distinct points promoted to full evaluation,
    [estimates] the subset that actually reached an estimator walk,
    [bound_evals] the stats-only lower bounds spent steering, and
    [budget] the effective cap ([null] = uncapped) — together they make
    search efficiency measurable from the CLI and the daemon alike. *)
let json (r : result) =
  let evaluated = Json.int (List.length r.evaluated) in
  Json.Obj
    [
      ("kernel", Json.Str r.problem.Eval.name);
      ("strategy", Json.Str (strategy_name r.strategy));
      ("workers", Json.int r.workers);
      ("candidates", Json.int r.candidates);
      ("evaluated", evaluated);
      ("full_evals", evaluated);
      ("estimates", Json.int (estimate_count r));
      ("bound_evals", Json.int r.bound_evals);
      ("budget", match r.budget with None -> Json.Null | Some b -> Json.int b);
      ("pruned", Json.int r.pruned);
      ("heuristic", json_of_eval r.seed_eval);
      ("best", match r.best with None -> Json.Null | Some b -> json_of_eval b);
      ("frontier", Json.Arr (List.map json_of_eval r.frontier));
    ]
