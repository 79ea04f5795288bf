(** The Stardust scheduling language (paper Tables 1 and 2).

    A {!t} is a scheduled program: a CIN statement plus the format
    environment for every tensor it mentions, the global hardware
    configuration variables set by [environment], the index-variable
    relations introduced by loop transformations, and a trace of applied
    commands (used for the paper's input-lines-of-code accounting).

    Commands from prior TACO work: {!precompute}, {!split_up},
    {!split_down}, {!fuse}, {!reorder}.  New Stardust commands:
    {!map_to}, {!accelerate}, {!set_environment}. *)

module Format = Stardust_tensor.Format
module Ast = Stardust_ir.Ast
module Cin = Stardust_ir.Cin

exception Schedule_error of string

let err fmt = Fmt.kstr (fun s -> raise (Schedule_error s)) fmt

type t = {
  stmt : Cin.stmt;
  formats : (string * Format.t) list;  (** every tensor name -> format *)
  environment : (string * int) list;  (** global configuration variables *)
  relations : Relation.t list;
  temporaries : string list;  (** tensors introduced by scheduling *)
  trace : string list;  (** applied commands, oldest first *)
}

let stmt t = t.stmt
let environment t = t.environment
let relations t = t.relations
let trace t = List.rev t.trace

let format_of t name =
  match List.assoc_opt name t.formats with
  | Some f -> f
  | None -> err "no format declared for tensor %s" name

let has_tensor t name = List.mem_assoc name t.formats

let log cmd t = { t with trace = cmd :: t.trace }

(** [of_assign ~formats a] concretizes an index-notation assignment into the
    canonical CIN loop nest.  [formats] must cover every tensor in [a].

    When the right-hand side mixes terms with and without reduction
    variables (e.g. Residual's [y(i) = b(i) - A(i,j)*x(j)]), the naive nest
    [forall i forall j (y += b - A*x)] would add [b] once per [j]; instead
    the reduction terms are automatically precomputed into an on-chip
    scalar workspace [_rs] under a [where] node, matching the workspaces
    transformation of Kjolstad et al.

    @raise Schedule_error on a missing format, arity mismatch, or a term
    that covers only part of the reduction space. *)
let of_assign ~formats (a : Ast.assign) =
  let check (acc : Ast.access) =
    match List.assoc_opt acc.tensor formats with
    | None -> err "of_assign: tensor %s has no declared format" acc.tensor
    | Some f ->
        if Format.order f <> List.length acc.indices then
          err "of_assign: tensor %s is order-%d but accessed with %d indices"
            acc.tensor (Format.order f)
            (List.length acc.indices)
  in
  check a.lhs;
  List.iter check (Ast.accesses_of_expr a.rhs);
  let rvars = Ast.reduction_vars a in
  let terms = Ast.linear_terms a.Ast.rhs in
  let covers_all (_, t) =
    List.for_all (fun v -> List.mem v (Ast.indices_of_expr t)) rvars
  in
  let stmt, formats, temporaries =
    if rvars = [] || List.for_all covers_all terms then
      (Cin.concretize a, formats, [])
    else begin
      let red, nonred =
        List.partition
          (fun (_, t) ->
            List.exists (fun v -> List.mem v rvars) (Ast.indices_of_expr t))
          terms
      in
      (match List.find_opt (Fun.negate covers_all) red with
      | Some (_, t) ->
          err "of_assign: term %a covers only part of the reduction space"
            Ast.pp_expr t
      | None -> ());
      let ws = "_rs" in
      let consumer =
        Cin.Assign
          {
            a with
            rhs = Ast.of_linear_terms (nonred @ [ (false, Ast.access ws []) ]);
          }
      in
      let producer =
        Cin.foralls rvars
          (Cin.Assign
             {
               lhs = { tensor = ws; indices = [] };
               accum = true;
               rhs = Ast.of_linear_terms red;
             })
      in
      ( Cin.foralls a.Ast.lhs.Ast.indices (Cin.Where { consumer; producer }),
        (ws, Format.make ~region:Format.On_chip []) :: formats,
        [ ws ] )
    end
  in
  {
    stmt;
    formats;
    environment = [];
    relations = [];
    temporaries;
    trace = [ Fmt.str "algorithm: %a" Ast.pp_assign a ];
  }

(* -------------------------------------------------------------------- *)
(* environment (Table 2)                                                 *)
(* -------------------------------------------------------------------- *)

(** [set_environment t var c] sets a global hardware configuration variable
    (e.g. [innerPar], [outerPar]) passed through to the backend. *)
let set_environment t var c =
  log (Fmt.str "environment(%s, %d)" var c)
    { t with environment = (var, c) :: List.remove_assoc var t.environment }

(** [rebind_environment t var c] gives [var] the value [c] as if the
    command that set it had said [c]: the environment entry and that
    command's trace line change in place, and no command is appended.  A
    no-op when [var] is unset. *)
let rebind_environment t var c =
  match List.assoc_opt var t.environment with
  | None -> t
  | Some old ->
      let cmd v = Fmt.str "environment(%s, %d)" var v in
      let before = cmd old and after = cmd c in
      {
        t with
        environment =
          List.map (fun (k, v) -> if k = var then (k, c) else (k, v)) t.environment;
        trace = List.map (fun s -> if s = before then after else s) t.trace;
      }

let env_value ?default t var =
  match (List.assoc_opt var t.environment, default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> err "environment variable %s is unset" var

(* -------------------------------------------------------------------- *)
(* precompute (Table 1)                                                  *)
(* -------------------------------------------------------------------- *)

let rec expr_contains ~needle e =
  Ast.equal_expr e needle
  ||
  match e with
  | Ast.Access _ | Ast.Const _ -> false
  | Ast.Neg e' -> expr_contains ~needle e'
  | Ast.Bin (_, a, b) -> expr_contains ~needle a || expr_contains ~needle b

let rec expr_replace ~needle ~by e =
  if Ast.equal_expr e needle then by
  else
    match e with
    | Ast.Access _ | Ast.Const _ -> e
    | Ast.Neg e' -> Ast.Neg (expr_replace ~needle ~by e')
    | Ast.Bin (op, a, b) ->
        Ast.Bin (op, expr_replace ~needle ~by a, expr_replace ~needle ~by b)

(** First assignment in [s] whose right-hand side contains [needle]. *)
let find_assign_with ~needle s =
  Cin.fold
    (fun acc n ->
      match (acc, n) with
      | Some _, _ -> acc
      | None, Cin.Assign a when expr_contains ~needle a.Ast.rhs -> Some a
      | None, _ -> None)
    None s

(** [precompute t e i_star iw_star (name, fmt)] inserts a [where] node that
    precomputes sub-expression [e] into a temporary tensor [name] (Table 1).

    Two shapes are supported, mirroring the paper's uses:

    - [i_star = []] (scalar workspace, Figure 5 line 22): the innermost
      forall nest over the reduction variables of [e] moves into the
      producer, which accumulates into the scalar temporary; the consumer
      reads it back.  This exposes the forall-accumulation pattern that
      [accelerate] later maps to a [Reduce].

    - [i_star <> []] (tensor staging, Figure 6): every occurrence of [e] in
      the matched assignment is replaced by [name(i_star)], and a producer
      [forall(iw_star) name(iw_star) = e\[iw_star/i_star\]] is attached with
      a [where] node — at the top level by default, or inside the forall
      over [?at] for partial (per-iteration) staging as in Figure 6a. *)
let precompute ?at t e i_star iw_star (name, fmt) =
  if has_tensor t name then err "precompute: tensor %s already exists" name;
  if List.length i_star <> List.length iw_star then
    err "precompute: i* and iw* must have equal length";
  (match find_assign_with ~needle:e t.stmt with
  | None -> err "precompute: expression %a not found" Ast.pp_expr e
  | Some _ -> ());
  let ren = List.combine i_star iw_star in
  let stmt' =
    if i_star = [] then begin
      (* Scalar-workspace case: hoist the reduction loops into the producer. *)
      let target = Option.get (find_assign_with ~needle:e t.stmt) in
      let evars = Ast.indices_of_expr e in
      let rvars =
        List.filter (fun v -> List.mem v (Ast.reduction_vars target)) evars
      in
      (* The forall nest over [rvars] must directly wrap the assignment. *)
      let rec rewrite s =
        match s with
        | Cin.Forall { index; body } when List.mem index rvars ->
            (* Collect the full nest from here down. *)
            let rec collect vars s =
              match s with
              | Cin.Forall { index; body } when List.mem index rvars ->
                  collect (index :: vars) body
              | Cin.Assign a when Ast.equal_assign a target ->
                  Some (List.rev vars, a)
              | _ -> None
            in
            (match collect [] s with
            | Some (vars, a) ->
                let remaining =
                  List.filter (fun v -> not (List.mem v vars)) (Ast.reduction_vars a)
                in
                let consumer_accum =
                  remaining <> [] || (a.Ast.accum && Ast.reduction_vars a = [])
                in
                let consumer =
                  Cin.Assign
                    {
                      a with
                      accum = consumer_accum;
                      rhs =
                        expr_replace ~needle:e
                          ~by:(Ast.access name [])
                          a.Ast.rhs;
                    }
                in
                let producer =
                  Cin.foralls vars
                    (Cin.Assign { lhs = { tensor = name; indices = [] };
                                  accum = vars <> [];
                                  rhs = e })
                in
                Cin.Where { consumer; producer }
            | None -> Cin.Forall { index; body = rewrite body })
        | Cin.Forall r -> Cin.Forall { r with body = rewrite r.body }
        | Cin.Where { consumer; producer } ->
            Cin.Where { consumer = rewrite consumer; producer = rewrite producer }
        | Cin.Sequence l -> Cin.Sequence (List.map rewrite l)
        | Cin.Mapped r -> Cin.Mapped { r with body = rewrite r.body }
        | Cin.Assign _ -> s
      in
      rewrite t.stmt
    end
    else begin
      (* Tensor-staging case. *)
      let by = Ast.access name i_star in
      let replaced =
        Cin.map_stmt
          (function
            | Cin.Assign a when expr_contains ~needle:e a.Ast.rhs ->
                Cin.Assign { a with rhs = expr_replace ~needle:e ~by a.Ast.rhs }
            | s -> s)
          t.stmt
      in
      let producer =
        Cin.foralls iw_star
          (Cin.Assign
             {
               lhs = { tensor = name; indices = iw_star };
               accum = false;
               rhs = Ast.subst_indices e ren;
             })
      in
      match at with
      | None -> Cin.Where { consumer = replaced; producer }
      | Some v ->
          let placed = ref false in
          let s' =
            Cin.map_stmt
              (function
                | Cin.Forall { index; body } when index = v && not !placed ->
                    placed := true;
                    Cin.Forall { index; body = Cin.Where { consumer = body; producer } }
                | s -> s)
              replaced
          in
          if not !placed then err "precompute: no forall over %s to place producer" v;
          s'
    end
  in
  log
    (Fmt.str "precompute(%a, {%a}, {%a}, %s)" Ast.pp_expr e
       Fmt.(list ~sep:comma string)
       i_star
       Fmt.(list ~sep:comma string)
       iw_star name)
    {
      t with
      stmt = stmt';
      formats = (name, fmt) :: t.formats;
      temporaries = name :: t.temporaries;
    }

(* -------------------------------------------------------------------- *)
(* Loop transformations (Table 1)                                        *)
(* -------------------------------------------------------------------- *)

let rewrite_forall t v f =
  let found = ref false in
  let stmt' =
    Cin.map_stmt
      (function
        | Cin.Forall { index; body } when index = v && not !found ->
            found := true;
            f body
        | s -> s)
      t.stmt
  in
  if not !found then err "no forall over %s in statement" v;
  { t with stmt = stmt' }

(** [split_up t i io ii c] stripmines [forall i] into an outer [io] and a
    constant-factor-[c] inner [ii] nest ([i = io * c + ii]). *)
let split_up t i io ii c =
  if c <= 0 then err "split_up: factor must be positive";
  let t' = rewrite_forall t i (fun body -> Cin.forall io (Cin.forall ii body)) in
  log
    (Fmt.str "split_up(%s, %s, %s, %d)" i io ii c)
    {
      t' with
      relations =
        Relation.Split_up { parent = i; outer = io; inner = ii; factor = c }
        :: t'.relations;
    }

(** [split_down t i io ii c] stripmines [forall i] into a constant-factor-[c]
    outer [io] and an inner [ii] nest. *)
let split_down t i io ii c =
  if c <= 0 then err "split_down: factor must be positive";
  let t' = rewrite_forall t i (fun body -> Cin.forall io (Cin.forall ii body)) in
  log
    (Fmt.str "split_down(%s, %s, %s, %d)" i io ii c)
    {
      t' with
      relations =
        Relation.Split_down { parent = i; outer = io; inner = ii; factor = c }
        :: t'.relations;
    }

(** [fuse t io ii i_f] collapses the directly nested [forall io (forall ii)]
    into a single [forall i_f]. *)
let fuse t io ii i_f =
  let found = ref false in
  let stmt' =
    Cin.map_stmt
      (function
        | Cin.Forall { index; body = Cin.Forall { index = index_i; body } }
          when index = io && index_i = ii && not !found ->
            found := true;
            Cin.forall i_f body
        | s -> s)
      t.stmt
  in
  if not !found then err "fuse: no nest forall(%s) forall(%s)" io ii;
  log
    (Fmt.str "fuse(%s, %s, %s)" io ii i_f)
    {
      t with
      stmt = stmt';
      relations = Relation.Fused { outer = io; inner = ii; fused = i_f } :: t.relations;
    }

(** [reorder t vars] permutes the outermost perfect forall nest to the order
    given.  [vars] must be a permutation of that nest's variables. *)
let reorder t vars =
  let rec collect acc = function
    | Cin.Forall { index; body } -> collect (index :: acc) body
    | s -> (List.rev acc, s)
  in
  let nest, body = collect [] t.stmt in
  if nest = [] then err "reorder: statement has no outer forall nest";
  if List.sort compare nest <> List.sort compare vars then
    err "reorder: {%a} is not a permutation of the nest {%a}"
      Fmt.(list ~sep:comma string)
      vars
      Fmt.(list ~sep:comma string)
      nest;
  log
    (Fmt.str "reorder(%a)" Fmt.(list ~sep:comma string) vars)
    { t with stmt = Cin.foralls vars body }

(* -------------------------------------------------------------------- *)
(* map / accelerate (Table 2)                                            *)
(* -------------------------------------------------------------------- *)

(** [map_to t target backend func config] replaces the sub-statement
    structurally equal to [target] with a backend-specific computation
    strategy [func] (Table 2's [map] command). *)
let map_to t target backend func config =
  match
    Cin.replace_first ~target
      ~replacement:(Cin.Mapped { backend; func; config; body = target })
      t.stmt
  with
  | None -> err "map: target statement not found:@ %a" Cin.pp target
  | Some stmt' ->
      log
        (Fmt.str "map(%a, %a, %a)" Cin.pp target Cin.pp_backend backend
           Cin.pp_func func)
        { t with stmt = stmt' }

(** [accelerate t target backend func config] — the compound command of
    eq. (5).  With [~stage_inputs:true] every off-chip tensor read by
    [target] is first precomputed into an on-chip copy (a fresh [t_on]
    temporary) and the target rewritten to read the copies; the (rewritten)
    target is then mapped to [func].  With the default
    [~stage_inputs:false], staging is left to the automatic memory analysis
    (as in Figure 11, where the compiler stages C/D values itself) and the
    command degenerates to [map_to] — the form used to turn
    forall-accumulations into Spatial [Reduce] patterns (Figure 5). *)
let accelerate ?(stage_inputs = false) t target backend func config =
  if not (Cin.contains ~target t.stmt) then
    err "accelerate: target statement not found:@ %a" Cin.pp target;
  if not stage_inputs then
    log "accelerate(...)" (map_to t target backend func config)
  else begin
    let read = Cin.tensors_read target in
    let offchip =
      List.filter (fun n -> not (Format.is_on_chip (format_of t n))) read
    in
    (* Stage each off-chip input into an on-chip copy. *)
    let t', sub =
      List.fold_left
        (fun (t, sub) n ->
          let n_on = n ^ "_on" in
          if has_tensor t n_on then (t, sub)
          else
            let fmt_on = Format.on_chip (format_of t n) in
            (* Producer copies the tensor at the indices it is accessed
               with inside the target. *)
            let indices =
              match
                List.find_opt
                  (fun (a : Ast.access) -> a.tensor = n)
                  (List.concat_map
                     (fun (a : Ast.assign) -> Ast.accesses_of_expr a.Ast.rhs)
                     (Cin.assignments target))
              with
              | Some a -> a.indices
              | None -> err "accelerate: tensor %s not accessed in target" n
            in
            let t =
              precompute t (Ast.access n indices) indices indices (n_on, fmt_on)
            in
            (t, (n, n_on) :: sub))
        (t, []) offchip
    in
    let target' = Cin.subst_tensors target sub in
    log "accelerate(..., staged)" (map_to t' target' backend func config)
  end

(* -------------------------------------------------------------------- *)
(* Automatic passes                                                      *)
(* -------------------------------------------------------------------- *)

(** The automatic pass from section 5.2: single-element copy loops
    [forall i (t1(i) = t2(i))] between memory regions become bulk memory
    transfers ([Bulk_load] on-chip, [Bulk_store] off-chip). *)
let auto_bulk_transfers t =
  let rewritten = ref 0 in
  let stmt' =
    Cin.map_stmt
      (function
        | Cin.Forall
            {
              index;
              body =
                Cin.Assign
                  {
                    lhs = { tensor = dst; indices = [ i1 ] };
                    accum = false;
                    rhs = Ast.Access { tensor = src; indices = [ i2 ] };
                  } as body;
            }
          when i1 = index && i2 = index && has_tensor t dst && has_tensor t src ->
            let dst_on = Format.is_on_chip (format_of t dst) in
            let src_on = Format.is_on_chip (format_of t src) in
            if dst_on && not src_on then begin
              incr rewritten;
              Cin.Mapped { backend = Spatial; func = Bulk_load; config = None; body }
            end
            else if src_on && not dst_on then begin
              incr rewritten;
              Cin.Mapped { backend = Spatial; func = Bulk_store; config = None; body }
            end
            else Cin.Forall { index; body }
        | s -> s)
      t.stmt
  in
  if !rewritten = 0 then t
  else log (Fmt.str "auto_bulk_transfers: %d loops" !rewritten) { t with stmt = stmt' }

(* -------------------------------------------------------------------- *)
(* Validity                                                              *)
(* -------------------------------------------------------------------- *)

(** Index variables used by accesses but neither bound by a forall nor
    recoverable through split/fuse relations. *)
let unresolved_indices t =
  let bound = Cin.bound_vars t.stmt in
  let known = Relation.recoverable t.relations bound in
  Cin.unbound_indices t.stmt
  |> List.filter (fun (_, v) -> not (List.mem v known))

let is_valid t = unresolved_indices t = []

let pp ppf t =
  Fmt.pf ppf "@[<v>stmt: %a@,env: %a@,formats: %a@]" Cin.pp t.stmt
    Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
    t.environment
    Fmt.(list ~sep:comma (pair ~sep:(any ":") string Format.pp_short))
    t.formats
