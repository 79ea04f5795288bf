(** Compilation planning: loop analysis and tensor metadata.

    Before emitting Spatial code, Stardust walks the scheduled CIN once to
    decide, for every [forall], how it will iterate (via the co-iteration
    rewrite system of {!Coiter}) and, for every tensor, where each sub-array
    will live (via {!Memory}).  This module computes those tables plus the
    metadata — dimensions, per-level position counts, fiber bounds — that
    size every DRAM and on-chip allocation. *)

module Format = Stardust_tensor.Format
module Tensor = Stardust_tensor.Tensor
module Stats = Stardust_tensor.Stats
module Stats_cache = Stardust_tensor.Stats_cache
module Ast = Stardust_ir.Ast
module Cin = Stardust_ir.Cin
module Schedule = Stardust_schedule.Schedule
module Relation = Stardust_schedule.Relation

open Coiter

(** Size and structure metadata for one tensor (input or result). *)
type meta = {
  fmt : Format.t;
  dims : int array;
  level_counts : int array;
      (** per level, an upper bound on the number of positions *)
  max_fiber : int array;  (** per level, the largest single fiber *)
  num_vals : int;  (** bound on leaf values *)
  is_input : bool;
}

(** How one loop iterates. *)
type loop_info = {
  var : string;
  plan : Coiter.plan;
  result_it : Coiter.iterator option;  (** lhs iterator over this var *)
  above : Memory.site;  (** site just above this loop's header *)
  depth : int;
  is_innermost : bool;  (** no loops nested inside *)
  extent : int;  (** dense extent of the variable *)
  reduce_target : string option;
      (** set when this loop was [map]ped to a [Reduce] whose accumulator
          is the named scalar temporary *)
}

type t = {
  sched : Schedule.t;
  metas : (string * meta) list;
  loops : (string * loop_info) list;  (** by variable *)
  bindings : (string * Memory.binding list) list;  (** by tensor *)
  extents : (string * int) list;  (** by variable *)
  results : string list;  (** tensors written *)
  inner_par : int;
  outer_par : int;
}

exception Plan_error of string

let err fmt = Fmt.kstr (fun s -> raise (Plan_error s)) fmt

let loop_info t v =
  match List.assoc_opt v t.loops with
  | Some i -> i
  | None -> err "no loop over variable %s" v

let meta t name =
  match List.assoc_opt name t.metas with
  | Some m -> m
  | None -> err "no metadata for tensor %s" name

let bindings t name =
  match List.assoc_opt name t.bindings with
  | Some b -> b
  | None -> err "no memory bindings for tensor %s" name

let binding t name array =
  match Memory.find_binding (bindings t name) array with
  | Some b -> b
  | None ->
      err "no binding for %s.%s" name (Fmt.str "%a" Memory.pp_sub_array array)

(* -------------------------------------------------------------------- *)
(* Access collection                                                     *)
(* -------------------------------------------------------------------- *)

(** Unique access of each tensor in the statement.  The compiler requires a
    tensor to be accessed with a single index pattern per kernel. *)
let collect_accesses stmt =
  let add acc (a : Ast.access) =
    match List.assoc_opt a.tensor acc with
    | None -> acc @ [ (a.tensor, a.indices) ]
    | Some idx ->
        if idx <> a.indices then
          err "tensor %s accessed with conflicting index patterns" a.tensor
        else acc
  in
  List.fold_left
    (fun acc (asg : Ast.assign) ->
      let acc = add acc asg.Ast.lhs in
      List.fold_left add acc (Ast.accesses_of_expr asg.Ast.rhs))
    [] (Cin.assignments stmt)

(* -------------------------------------------------------------------- *)
(* Variable extents                                                      *)
(* -------------------------------------------------------------------- *)

(** Extent of every index variable, inferred from input tensor dimensions
    (and split/fuse relations).  Conflicting dimensions are an error. *)
let infer_extents sched (input_metas : (string * meta) list) stmt =
  let accesses = collect_accesses stmt in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (tname, indices) ->
      match List.assoc_opt tname input_metas with
      | None -> ()  (* temporaries: dims derive from their index vars *)
      | Some m ->
          List.iteri
            (fun d v ->
              let n = m.dims.(d) in
              match Hashtbl.find_opt tbl v with
              | None -> Hashtbl.add tbl v n
              | Some n' when n' = n -> ()
              | Some n' ->
                  err "variable %s has conflicting extents %d and %d" v n' n)
            indices)
    accesses;
  let base v = Hashtbl.find_opt tbl v in
  let vars = Cin.bound_vars stmt in
  List.map
    (fun v ->
      match Relation.extent_of (Schedule.relations sched) base v with
      | Some n -> (v, n)
      | None -> err "cannot infer the extent of variable %s" v)
    vars
  @ Hashtbl.fold
      (fun v n acc -> if List.mem v vars then acc else (v, n) :: acc)
      tbl []

(* -------------------------------------------------------------------- *)
(* Metadata                                                              *)
(* -------------------------------------------------------------------- *)

(* Input metadata comes from the process-wide statistics cache: a search
   rebuilds the plan for every candidate point, but the inputs are fixed,
   so the O(nnz) scans behind [Stats.of_tensor] and [max_fiber_len] run
   once per tensor per process.  The cached arrays are shared, not
   copied — plan metadata is read-only downstream. *)
let meta_of_tensor (x : Tensor.t) =
  let s = Stats_cache.stats x in
  {
    fmt = Tensor.format x;
    dims = s.Stats.dims;
    level_counts = s.Stats.level_positions;
    max_fiber = Stats_cache.max_fiber_lens x;
    num_vals = s.Stats.num_vals;
    is_input = true;
  }

(** Upper-bound metadata for a tensor the kernel produces.  Mirror results
    (driven by a single lead iterator) inherit the lead tensor's counts;
    scan results take the sum (union) or minimum (intersection) of their
    operands'; dense levels multiply by the dimension. *)
let infer_result_meta ~fmt ~indices ~loops ~extents ~input_metas name =
  let n = Format.order fmt in
  let dims =
    Array.of_list
      (List.map
         (fun v ->
           match List.assoc_opt v extents with
           | Some e -> e
           | None -> err "result %s: unknown extent for %s" name v)
         indices)
  in
  let counts = Array.make n 0 in
  let fibers = Array.make n 0 in
  let parent = ref 1 in
  for l = 0 to n - 1 do
    let d = Format.dim_of_level fmt l in
    let v = List.nth indices d in
    let dim = dims.(d) in
    (match Format.level_kind fmt l with
    | Format.Dense ->
        counts.(l) <- !parent * dim;
        fibers.(l) <- dim
    | Format.Compressed -> (
        let info : loop_info =
          match List.assoc_opt v loops with
          | Some i -> i
          | None -> err "result %s: no loop over %s" name v
        in
        let level_bound (it : Coiter.iterator) =
          match List.assoc_opt it.tensor input_metas with
          | Some m -> (m.level_counts.(it.level), m.max_fiber.(it.level))
          | None -> err "result bound: %s is not an input" it.tensor
        in
        match info.plan with
        | Pos_plan { lead; _ } ->
            let c, f = level_bound lead in
            counts.(l) <- c;
            fibers.(l) <- f
        | Scan_plan { op; a; b; _ } ->
            let ca, fa = level_bound a and cb, fb = level_bound b in
            (match op with
            | `Or ->
                counts.(l) <- ca + cb;
                fibers.(l) <- min dim (fa + fb)
            | `And ->
                counts.(l) <- min ca cb;
                fibers.(l) <- min fa fb)
        | Dense_plan _ ->
            err "result %s: compressed level %d under a dense loop" name l));
    parent := counts.(l)
  done;
  {
    fmt;
    dims;
    level_counts = counts;
    max_fiber = fibers;
    num_vals = (if n = 0 then 1 else counts.(n - 1));
    is_input = false;
  }

(* -------------------------------------------------------------------- *)
(* Loop planning                                                         *)
(* -------------------------------------------------------------------- *)

let build_loops sched extents stmt =
  let formats = List.map (fun v -> (v, Schedule.format_of sched v)) in
  let fmts =
    formats (Cin.all_tensors stmt)
  in
  let loops = ref [] in
  let rec has_loop = function
    | Cin.Forall _ -> true
    | Cin.Assign _ -> false
    | Cin.Where { consumer; producer } -> has_loop consumer || has_loop producer
    | Cin.Sequence l -> List.exists has_loop l
    | Cin.Mapped { body; _ } -> has_loop body
  in
  let rec go above depth reduce_target s =
    match s with
    | Cin.Forall { index; body } ->
        let plan, result_it = Coiter.analyze fmts index body in
        let extent =
          match List.assoc_opt index extents with
          | Some e -> e
          | None -> err "no extent for loop variable %s" index
        in
        loops :=
          ( index,
            {
              var = index;
              plan;
              result_it;
              above;
              depth;
              is_innermost = not (has_loop body);
              extent;
              reduce_target;
            } )
          :: !loops;
        go (Memory.Above_loop index) (depth + 1) None body
    | Cin.Assign _ -> ()
    | Cin.Where { consumer; producer } ->
        go above depth None producer;
        go above depth None consumer
    | Cin.Sequence l -> List.iter (go above depth None) l
    | Cin.Mapped { func = Cin.Reduction; body; _ } ->
        (* The reduce accumulator is the scalar left-hand side of the
           mapped accumulation. *)
        let target =
          match Cin.assignments body with
          | [ { lhs = { tensor; indices = [] }; accum = true; _ } ] -> Some tensor
          | _ -> err "Reduce-mapped statement must be a scalar accumulation"
        in
        go above depth target body
    | Cin.Mapped { body; _ } -> go above depth None body
  in
  go Memory.Kernel_start 0 None stmt;
  List.rev !loops

(* -------------------------------------------------------------------- *)
(* Whole-plan construction                                               *)
(* -------------------------------------------------------------------- *)

let style_of_plan = function
  | Dense_plan _ -> Memory.Affine_loop
  | Pos_plan _ -> Memory.Stream_loop
  | Scan_plan _ -> Memory.Scan_loop

(** The schedule's [(innerPar, outerPar)] factors, [(16, 1)] when unset.
    They are the only part of a plan the schedule's environment decides,
    and {!build} stamps them last. *)
let pars sched =
  ( Schedule.env_value ~default:16 sched "innerPar",
    Schedule.env_value ~default:1 sched "outerPar" )

(** Build the full compilation plan for a scheduled kernel over the given
    input tensors.  [sram_budget] bounds on-chip staging of gather arrays
    (defaults to 4 PMUs' worth of words). *)
let build ?(sram_budget = 4 * 16 * 4096) sched ~(inputs : (string * Tensor.t) list) =
  let stmt = Schedule.stmt sched in
  let input_metas = List.map (fun (n, x) -> (n, meta_of_tensor x)) inputs in
  (* Sanity: declared formats must match the supplied tensors. *)
  List.iter
    (fun (n, (m : meta)) ->
      if Schedule.has_tensor sched n then begin
        let f = Schedule.format_of sched n in
        if not (Format.equal { f with region = m.fmt.Format.region } m.fmt) then
          err "tensor %s: supplied data does not match its declared format" n
      end)
    input_metas;
  let extents = infer_extents sched input_metas stmt in
  let loops = build_loops sched extents stmt in
  let accesses = collect_accesses stmt in
  let results = Cin.tensors_written stmt in
  (* Metadata for every tensor (inputs as measured; others bounded). *)
  let metas =
    List.map
      (fun (name, indices) ->
        match List.assoc_opt name input_metas with
        | Some m -> (name, m)
        | None ->
            let fmt = Schedule.format_of sched name in
            if Format.order fmt = 0 then
              ( name,
                {
                  fmt;
                  dims = [||];
                  level_counts = [||];
                  max_fiber = [||];
                  num_vals = 1;
                  is_input = false;
                } )
            else
              ( name,
                infer_result_meta ~fmt ~indices ~loops ~extents ~input_metas
                  name ))
      accesses
  in
  (* Memory bindings per tensor. *)
  let bindings =
    List.map
      (fun (name, indices) ->
        let m = List.assoc name metas in
        let level_var l =
          let d = Format.dim_of_level m.fmt l in
          List.nth_opt indices d
        in
        let lookup_loop v = List.assoc_opt v loops in
        let ctx : Memory.access_ctx =
          {
            fmt = m.fmt;
            is_result = List.mem name results;
            level_var;
            level_style =
              (fun l ->
                match level_var l with
                | None -> Memory.Affine_loop
                | Some v -> (
                    match lookup_loop v with
                    | Some i -> style_of_plan i.plan
                    | None -> Memory.Affine_loop));
            leads_level =
              (fun l ->
                match level_var l with
                | None -> false
                | Some v -> (
                    match lookup_loop v with
                    | Some i ->
                        List.exists
                          (fun (it : Coiter.iterator) ->
                            it.tensor = name && it.level = l)
                          (Coiter.plan_compressed i.plan)
                    | None -> false));
            var_loop_above =
              (fun v ->
                match lookup_loop v with
                | Some i -> i.above
                | None -> Memory.Kernel_start);
            total_words = (if Format.order m.fmt = 0 then 1 else m.num_vals);
            sram_budget;
          }
        in
        (name, Memory.analyze ctx))
      accesses
  in
  let ip, op = pars sched in
  {
    sched;
    metas;
    loops;
    bindings;
    extents;
    results;
    inner_par = ip;
    outer_par = op;
  }

(** The access indices (loop variables, logical order) of a tensor. *)
let access_indices t name =
  match List.assoc_opt name (collect_accesses (Schedule.stmt t.sched)) with
  | Some idx -> idx
  | None -> err "tensor %s is not accessed" name

(** Loop variable bound to storage level [l] of tensor [name]. *)
let level_var t name l =
  let m = meta t name in
  let d = Format.dim_of_level m.fmt l in
  List.nth (access_indices t name) d
