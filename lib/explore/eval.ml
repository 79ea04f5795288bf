(** Evaluation layer: cost one candidate point.

    A point is built into a schedule through
    {!Stardust_core.Autoschedule.schedule_point} (so the heuristic's seed
    point evaluates to exactly the heuristic's schedule), compiled,
    pruned ({!Prune}), and finally costed with the analytic simulator
    {!Stardust_capstan.Sim.estimate} — the same oracle the paper's
    benchmarks use at scale.  Compilation is split: the par-free
    {!structure} of a point depends only on its loop order, split and
    gather region, so a search compiles each structure once and
    {!bind}s every point's parallelization factors to it.

    Evaluations are memoised in a {!Pool.Cache} keyed by a canonical
    fingerprint of (expression, formats, point, dataset statistics,
    machine configuration): identical queries across search strategies
    or across repeated [run]s sharing a cache return the stored result.
    Evaluation is pure, so memoisation cannot change any search outcome,
    only its cost. *)

module Tensor = Stardust_tensor.Tensor
module Format = Stardust_tensor.Format
module Stats_cache = Stardust_tensor.Stats_cache
module Ast = Stardust_ir.Ast
module Parser = Stardust_ir.Parser
module Schedule = Stardust_schedule.Schedule
module Auto = Stardust_core.Autoschedule
module Compile = Stardust_core.Compile
module Arch = Stardust_capstan.Arch
module Sim = Stardust_capstan.Sim
module Resources = Stardust_capstan.Resources
module Spatial_ir = Stardust_spatial.Spatial_ir

(** One search problem: the fixed algorithm/format/data triple the
    explorer searches schedules for. *)
type problem = {
  name : string;
  expr : Ast.assign;
  formats : (string * Format.t) list;
  inputs : (string * Tensor.t) list;
  config : Sim.config;
}

let problem ?(name = "kernel") ?(config = Sim.default_config) ~formats ~inputs
    expr =
  { name; expr; formats; inputs; config }

let problem_of_string ?name ?config ~formats ~inputs s =
  problem ?name ?config ~formats ~inputs (Parser.parse_assign s)

(** Canonical fingerprint of everything that determines a cost, except the
    point: expression, formats, per-tensor dataset fingerprints (dims,
    format, nnz, sampled data hash), and the {e full} machine-config
    fingerprint — [Hashtbl.hash] truncates its input and a collision
    between two configs sharing a cache would silently alias their
    costs. *)
let problem_key (p : problem) =
  let fmts =
    String.concat ","
      (List.map
         (fun (n, f) -> Fmt.str "%s:%s" n (Format.short_name f))
         (List.sort compare p.formats))
  in
  let data =
    String.concat ","
      (List.map
         (fun (n, t) -> Fmt.str "%s:%s" n (Stats_cache.fingerprint t))
         (List.sort (fun (a, _) (b, _) -> compare a b) p.inputs))
  in
  Fmt.str "%a|%s|%s|%s" Ast.pp_assign p.expr fmts data
    (Sim.config_fingerprint p.config)

(* ------------------------------------------------------------------ *)
(* Stats-only lower bound                                              *)
(* ------------------------------------------------------------------ *)

(** Per-problem inputs of {!Sim.estimate_bound}, extracted once per
    search.  [bc_streamed] counts the stored entries of every
    right-hand-side tensor whose last storage level is compressed: the
    estimator streams each such tensor's position/value arrays in full
    ([transfer_total] charges the whole level count even under a sliced
    co-iteration), so they are mandatory DRAM traffic and mandatory
    decode work for any schedule point.  [bc_occ] holds the subset whose
    {e fiber walks} are also mandatory: a tensor co-iterated
    multiplicatively against another sparse tensor over a shared index
    is excluded, because the intersection can visit fewer fibers than
    the tensor's own launch total. *)
type bound_ctx = {
  bc_streamed : float;
  bc_occ : Tensor.t list;
}

(* Tensors appearing under a [Mul] whose other side holds a sparse access
   sharing an index variable: their iteration may be an intersection. *)
let intersected_names (rhs : Ast.expr) ~sparse =
  let tbl = Hashtbl.create 8 in
  let sparse_accs e =
    List.filter (fun (a : Ast.access) -> sparse a.Ast.tensor)
      (Ast.accesses_of_expr e)
  in
  let rec go e =
    match e with
    | Ast.Access _ | Ast.Const _ -> ()
    | Ast.Neg x -> go x
    | Ast.Bin (op, a, b) ->
        go a;
        go b;
        if op = Ast.Mul then
          List.iter
            (fun (x : Ast.access) ->
              List.iter
                (fun (y : Ast.access) ->
                  if
                    List.exists
                      (fun v -> List.mem v y.Ast.indices)
                      x.Ast.indices
                  then begin
                    Hashtbl.replace tbl x.Ast.tensor ();
                    Hashtbl.replace tbl y.Ast.tensor ()
                  end)
                (sparse_accs b))
            (sparse_accs a)
  in
  go rhs;
  tbl

let bound_ctx (p : problem) : bound_ctx =
  let rhs_names =
    List.sort_uniq compare
      (List.map
         (fun (a : Ast.access) -> a.Ast.tensor)
         (Ast.accesses_of_expr p.expr.Ast.rhs))
  in
  let compressed_last n =
    match (List.assoc_opt n p.formats, List.assoc_opt n p.inputs) with
    | Some f, Some t
      when Format.order f > 0
           && Format.level_kind f (Format.order f - 1) = Format.Compressed ->
        Some t
    | _ -> None
  in
  let mandatory = List.filter_map compressed_last rhs_names in
  let sparse n = compressed_last n <> None in
  let intersected = intersected_names p.expr.Ast.rhs ~sparse in
  let occ =
    List.filter_map
      (fun n ->
        if Hashtbl.mem intersected n then None else compressed_last n)
      rhs_names
  in
  let streamed =
    List.fold_left
      (fun acc t ->
        let s = Stats_cache.stats t in
        let last = Array.length s.Stardust_tensor.Stats.dims - 1 in
        acc +. float_of_int s.Stardust_tensor.Stats.level_positions.(last))
      0.0 mandatory
  in
  { bc_streamed = streamed; bc_occ = occ }

(** A point's compiled structure: the par-free compilation
    ({!Compile.structure_result}) shared by every point with the same loop
    order, split and gather region, or the reason all of those points are
    infeasible — a schedule or compile failure, or an on-chip footprint
    over the chip's capacity.  Neither depends on a parallelization
    factor. *)
type structure = (Compile.compiled, string) result

type structure_key =
  string list option * (string * int) option * Point.gather_region

let structure_key (pt : Point.t) : structure_key =
  (pt.Point.order, pt.Point.split, pt.Point.gather)

(** A problem with its per-search work hoisted: the problem key is
    fingerprinted once, the inputs' dataset statistics are resolved
    into the process-wide {!Stats_cache}, and the lower bound's
    mandatory-traffic context is extracted — so each of the hundreds of
    points a search visits starts from warm statistics instead of
    re-deriving them from the raw tensors.  [structures] holds each
    structure the search has compiled, by {!structure_key}; it dies with
    the search. *)
type prepared = {
  problem : problem;
  key : string;
  bound : bound_ctx;
  structures : (structure_key, structure) Hashtbl.t;
}

let prepare (p : problem) : prepared =
  List.iter (fun (_, t) -> ignore (Stats_cache.stats t)) p.inputs;
  { problem = p; key = problem_key p; bound = bound_ctx p;
    structures = Hashtbl.create 16 }

(** Largest mandatory last-level fiber-launch total at the point's inner
    parallelism — the occupancy statistic of {!Sim.estimate_bound}. *)
let occupancy (pre : prepared) ~inner_par =
  let lanes = pre.problem.config.Sim.arch.Arch.lanes in
  List.fold_left
    (fun acc t ->
      let last = Array.length (Tensor.dims t) - 1 in
      Float.max acc
        (Stats_cache.fiber_launch_total ~lanes ~par:inner_par t last))
    0.0 pre.bound.bc_occ

(** Admissible lower bound on [Sim.estimate]'s cycles for one point,
    from cached dataset statistics only — roughly three orders of
    magnitude cheaper than a full evaluation.  Counted separately from
    full evaluations so budgeted searches can report both. *)
let lower_bound (pre : prepared) (pt : Point.t) =
  let module Metrics = Stardust_obs.Metrics in
  Metrics.inc
    (Metrics.counter ~help:"stats-only lower bounds computed"
       "explore_bound_evals_total");
  Sim.estimate_bound ~config:pre.problem.config
    ~streamed_elems:pre.bound.bc_streamed
    ~occupancy:(occupancy pre ~inner_par:pt.Point.inner_par)
    ~outer_par:pt.Point.outer_par ~inner_par:pt.Point.inner_par ()

type outcome =
  | Feasible of { report : Sim.report; usage : Resources.usage }
  | Infeasible of string  (** pruned, with the pruning reason *)

type eval = { point : Point.t; outcome : outcome }

let cycles (e : eval) =
  match e.outcome with
  | Feasible { report; _ } -> Some report.Sim.cycles
  | Infeasible _ -> None

(** The secondary objective for the Pareto frontier: fraction of the chip
    the point occupies (its limiting resource's share). *)
let resource_frac (e : eval) =
  match e.outcome with
  | Feasible { usage = u; _ } ->
      Some
        (List.fold_left Float.max u.Resources.pcu_frac
           [ u.Resources.pmu_frac; u.Resources.mc_frac;
             u.Resources.shuffle_frac ])
  | Infeasible _ -> None

(** Compile one structure (uncached), its schedule built at the marker
    factors. *)
let structure (p : problem) ((order, split, gather) : structure_key) :
    structure =
  let arch = p.config.Sim.arch in
  match
    let d =
      { Auto.order; inner_par = Spatial_ir.par_inner;
        outer_par = Spatial_ir.par_outer }
    in
    let sched = Auto.schedule_point ~formats:p.formats p.expr d in
    let sched =
      match split with
      | None -> sched
      | Some (v, c) -> Schedule.split_up sched v (v ^ "_o") (v ^ "_i") c
    in
    let sram_budget =
      match gather with
      | Point.Auto -> None
      | Point.On_chip -> Some (arch.Arch.num_pmu * Arch.pmu_words arch)
      | Point.Off_chip -> Some 0
    in
    Compile.structure_result ?sram_budget ~name:p.name sched ~inputs:p.inputs
  with
  | exception Schedule.Schedule_error m -> Error (Fmt.str "schedule: %s" m)
  | Error ds -> Error (Fmt.str "compile: %s" (Compile.render_diags ds))
  | Ok s -> (
      match Prune.footprint ~arch s with Some r -> Error r | None -> Ok s)

(** Cost one point on its structure: bind the point's factors, check
    resource capacity, estimate. *)
let bind (p : problem) (s : structure) (pt : Point.t) : eval =
  match s with
  | Error reason -> { point = pt; outcome = Infeasible reason }
  | Ok s -> (
      let compiled =
        Compile.bind ~inner:pt.Point.inner_par ~outer:pt.Point.outer_par s
      in
      match Prune.capacity ~arch:p.config.Sim.arch compiled with
      | Prune.Reject reason -> { point = pt; outcome = Infeasible reason }
      | Prune.Pass usage -> (
          match Sim.estimate ~config:p.config compiled with
          | report -> { point = pt; outcome = Feasible { report; usage } }
          | exception Sim.Sim_error { kind; message } ->
              (* a capacity guard the static prune missed — a pruned point,
                 not a search-aborting failure *)
              {
                point = pt;
                outcome =
                  Infeasible
                    (Fmt.str "simulate(%s): %s"
                       (Sim.error_kind_name kind)
                       message);
              }))

(** Compile and cost one point (uncached): its own structure, bound. *)
let compute (p : problem) (pt : Point.t) : eval =
  bind p (structure p (structure_key pt)) pt

(** Memoised evaluation of a batch of points of a {!prepared} problem, in
    input order.  Structures the search has not compiled yet are compiled
    first, each exactly once, in parallel; then every point binds its
    structure in parallel.  Compiling before the fan-out keeps the work,
    and every metric counted under it, independent of the worker count.

    Search metrics are counted per {e query}, not per cache fill: query
    counts depend only on the search trajectory, which is deterministic,
    whereas which worker fills a raced cache key is not. *)
let evaluate ?pool ~workers ~(cache : eval Pool.Cache.t) (pre : prepared)
    (pts : Point.t list) : eval list =
  let p = pre.problem in
  let todo =
    List.map structure_key pts
    |> List.filter (fun k -> not (Hashtbl.mem pre.structures k))
    |> List.sort_uniq compare |> Array.of_list
  in
  Array.iter2 (Hashtbl.replace pre.structures) todo
    (Pool.map ~workers ?pool (structure p) todo);
  let module Metrics = Stardust_obs.Metrics in
  let one pt =
    Metrics.inc
      (Metrics.counter ~help:"candidate evaluations queried"
         "explore_evals_total");
    let e =
      Pool.Cache.find_or_compute cache
        (pre.key ^ "|" ^ Point.fingerprint pt)
        (fun () -> bind p (Hashtbl.find pre.structures (structure_key pt)) pt)
    in
    (match e.outcome with
    | Infeasible _ ->
        Metrics.inc
          (Metrics.counter
             ~help:"evaluations rejected by pruning or capacity guards"
             "explore_pruned_total")
    | Feasible _ -> ());
    e
  in
  Array.to_list (Pool.map ~workers ?pool one (Array.of_list pts))
