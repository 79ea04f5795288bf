(** The Spatial parallel-pattern IR targeted by Stardust (Koeplinger et al.
    [PLDI'18]), restricted to the constructs Capstan supports (paper
    Figures 9 and 11).

    A {!program} declares off-chip DRAM arrays and an [Accel] block.  Inside
    the block, statements allocate on-chip memories (SRAM / FIFO / register /
    bit-vector), move data in bulk between DRAM and on-chip memories, and
    iterate with parallel patterns: dense [Foreach]/[Reduce] counters,
    compressed position iteration, and bit-vector [Scan]s for
    compressed-compressed co-iteration (the declarative-sparse model).

    Every loop carries a {!trip} annotation recording which tensor level (or
    co-iteration) it traverses; the Capstan simulator uses these to derive
    exact iteration counts from dataset statistics without executing every
    scalar operation. *)

(** Physical memory classes of section 6.1. *)
type mem_kind =
  | Dram_dense  (** host-initialised off-chip array, bulk streamed *)
  | Dram_sparse  (** off-chip array with direct random access *)
  | Sram_dense  (** on-chip scratchpad, affine access (PMU) *)
  | Sram_sparse  (** on-chip scratchpad, random access with reuse (PMU) *)
  | Fifo of int  (** streaming buffer of the given depth (PMU) *)
  | Reg  (** scalar register *)
  | Bit_vector  (** packed coordinate bit-vector stream *)
[@@deriving show { with_path = false }, eq, ord]

type binop = Add | Sub | Mul | Div | Min | Max
[@@deriving show { with_path = false }, eq, ord]

type exp =
  | Int of int
  | Flt of float
  | Var of string  (** loop index or [Let]-bound value *)
  | Read of string * exp list
      (** memory read: [Read (m, [])] for a register, [Read (m, [i])] for
          SRAM/DRAM-sparse indexing *)
  | Bin of binop * exp * exp
  | Neg of exp
  | Mux of exp * exp * exp
      (** [Mux (p, a, b)] is [a] when [p >= 0] and [b] otherwise — the
          predication primitive union scans use for absent operands *)
[@@deriving show { with_path = false }, eq, ord]

(** Iteration-count provenance for the cost estimator.  A loop's total trip
    count over the whole program is the product of its parents' counts and
    its own per-execution count; [Fiber] and [Coiter] are averages that make
    the product exact in total. *)
type trip =
  | Trip_const of int
  | Trip_dim of { tensor : string; dim : int }
      (** the size of a logical tensor dimension *)
  | Trip_fiber of { tensor : string; level : int }
      (** average fiber length of a compressed level *)
  | Trip_coiter of { union : bool; tensors : (string * int) list }
      (** average per-parent intersection/union cardinality *)
  | Trip_exp
      (** derive from the [len] expression when it is a compile-time
          constant; otherwise unknown *)
[@@deriving show { with_path = false }, eq, ord]

type alloc = {
  mem : string;
  kind : mem_kind;
  size : exp;  (** capacity in words (bits for [Bit_vector]) *)
}
[@@deriving show { with_path = false }, eq, ord]

(** Bit-vector scan specification (Figure 9, lines 7-11): iterate over the
    set bits of one bit-vector or of the AND/OR of two. *)
type scan_op = Scan_single | Scan_and | Scan_or
[@@deriving show { with_path = false }, eq, ord]

type scan = {
  op : scan_op;
  bvs : string list;  (** one or two bit-vector memories *)
  scan_par : int;
  scan_len : exp;  (** dense length of the scanned coordinate space *)
  (* Bindings available in the body: *)
  bind_pos : string list;  (** per input, its running nonzero ordinal *)
  bind_out : string option;  (** ordinal within the combined result *)
  bind_coord : string;  (** the dense coordinate of the set bit *)
}
[@@deriving show { with_path = false }, eq, ord]

type stmt =
  | Alloc of alloc
  | Let of string * exp  (** [val x = e]; evaluated once per iteration *)
  | Deq of string * string  (** [val x = fifo.deq] *)
  | Load_burst of {
      dst : string;  (** on-chip memory *)
      src : string;  (** DRAM array *)
      lo : exp;
      hi : exp;
      par : int;
    }  (** [dst load src(lo::hi par p)] *)
  | Store_burst of { dst : string; src : string; lo : exp; len : exp; par : int }
      (** [dst stream_store / store src], [len] elements at offset [lo] *)
  | Foreach of {
      len : exp;
      par : int;
      bind : string;
      body : stmt list;
      trip : trip;
    }
  | Foreach_scan of { scan : scan; body : stmt list; trip : trip }
  | Reduce of {
      target : string;  (** accumulation register *)
      init : exp;
      len : exp;
      par : int;
      bind : string;
      body : stmt list;  (** setup of [expr] (e.g. FIFO deqs) *)
      expr : exp;  (** the mapped value; combined with [+] *)
      trip : trip;
    }
  | Reduce_scan of {
      target : string;
      init : exp;
      scan : scan;
      body : stmt list;
      expr : exp;
      trip : trip;
    }
  | Write of {
      mem : string;
      idx : exp option;  (** [None] for registers *)
      value : exp;
      accum : bool;  (** read-modify-write add (atomic on sparse SRAM) *)
    }
  | Enq of string * exp  (** FIFO enqueue *)
  | Gen_bitvector of {
      bv : string;  (** destination bit-vector *)
      crd_mem : string;  (** memory holding coordinates (FIFO or SRAM) *)
      count : exp;  (** number of coordinates to scan in *)
      trip : trip;
    }
  | Comment of string
[@@deriving show { with_path = false }, eq, ord]

type program = {
  name : string;
  env : (string * int) list;  (** environment variables (innerPar, ...) *)
  host_params : (string * string) list;
      (** symbolic size parameters bound by the host (e.g. [nnz_max]) *)
  dram : alloc list;
  accel : stmt list;
}
[@@deriving show { with_path = false }, eq]

(* -------------------------------------------------------------------- *)
(* Expression helpers                                                    *)
(* -------------------------------------------------------------------- *)

let ( +: ) a b = Bin (Add, a, b)
let ( -: ) a b = Bin (Sub, a, b)
let ( *: ) a b = Bin (Mul, a, b)
let int n = Int n
let var v = Var v
let reg_read r = Read (r, [])
let sram_read m i = Read (m, [ i ])

let rec exp_vars = function
  | Int _ | Flt _ -> []
  | Var v -> [ v ]
  | Read (m, idx) -> m :: List.concat_map exp_vars idx
  | Bin (_, a, b) -> exp_vars a @ exp_vars b
  | Neg e -> exp_vars e
  | Mux (p, a, b) -> exp_vars p @ exp_vars a @ exp_vars b

(** Fold over every statement in a program body, depth-first. *)
let rec fold_stmts f acc body =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s with
      | Foreach { body; _ } | Foreach_scan { body; _ } -> fold_stmts f acc body
      | Reduce { body; _ } | Reduce_scan { body; _ } -> fold_stmts f acc body
      | Alloc _ | Let _ | Deq _ | Load_burst _ | Store_burst _ | Write _
      | Enq _ | Gen_bitvector _ | Comment _ -> acc)
    acc body

(** All on-chip allocations (including nested ones). *)
let allocs p =
  List.rev
    (fold_stmts
       (fun acc s -> match s with Alloc a -> a :: acc | _ -> acc)
       [] p.accel)

let find_alloc p name =
  List.find_opt (fun a -> a.mem = name) (allocs p @ p.dram)

(* -------------------------------------------------------------------- *)
(* Validation                                                            *)
(* -------------------------------------------------------------------- *)

(** Structural checks: every memory referenced is declared (DRAM or
    on-chip, in scope before use), loop binders don't shadow memories, and
    scans name declared bit-vectors.  Returns human-readable problems. *)
let validate (p : program) =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let dram_names = List.map (fun a -> a.mem) p.dram in
  let check_mem scope m =
    if not (List.mem m scope) then err "memory %s used before declaration" m
  in
  let rec check_exp scope vars e =
    match e with
    | Int _ | Flt _ -> ()
    | Var v ->
        if not (List.mem v vars) then err "variable %s unbound" v
    | Read (m, idx) ->
        check_mem scope m;
        List.iter (check_exp scope vars) idx
    | Bin (_, a, b) -> check_exp scope vars a; check_exp scope vars b
    | Neg e -> check_exp scope vars e
    | Mux (p, a, b) ->
        check_exp scope vars p; check_exp scope vars a; check_exp scope vars b
  in
  let check_scan scope vars (s : scan) =
    List.iter (check_mem scope) s.bvs;
    check_exp scope vars s.scan_len;
    (match (s.op, s.bvs) with
    | Scan_single, [ _ ] | (Scan_and | Scan_or), [ _; _ ] -> ()
    | _ -> err "scan arity mismatch (%d bit-vectors)" (List.length s.bvs));
    s.bind_pos @ Option.to_list s.bind_out @ [ s.bind_coord ]
  in
  let rec go scope vars body =
    List.fold_left
      (fun (scope, vars) s ->
        match s with
        | Alloc a ->
            if List.mem a.mem scope then err "memory %s redeclared" a.mem;
            check_exp scope vars a.size;
            (a.mem :: scope, vars)
        | Let (x, e) -> check_exp scope vars e; (scope, x :: vars)
        | Deq (x, f) -> check_mem scope f; (scope, x :: vars)
        | Load_burst { dst; src; lo; hi; _ } ->
            check_mem scope dst; check_mem scope src;
            check_exp scope vars lo; check_exp scope vars hi;
            (scope, vars)
        | Store_burst { dst; src; lo; len; _ } ->
            check_mem scope dst; check_mem scope src;
            check_exp scope vars lo; check_exp scope vars len;
            (scope, vars)
        | Foreach { len; bind; body; _ } ->
            check_exp scope vars len;
            ignore (go scope (bind :: vars) body);
            (scope, vars)
        | Foreach_scan { scan; body; _ } ->
            let binds = check_scan scope vars scan in
            ignore (go scope (binds @ vars) body);
            (scope, vars)
        | Reduce { target; init; len; bind; body; expr; _ } ->
            check_mem scope target;
            check_exp scope vars init;
            check_exp scope vars len;
            let scope', vars' = go scope (bind :: vars) body in
            check_exp scope' vars' expr;
            (scope, vars)
        | Reduce_scan { target; init; scan; body; expr; _ } ->
            check_mem scope target;
            check_exp scope vars init;
            let binds = check_scan scope vars scan in
            let scope', vars' = go scope (binds @ vars) body in
            check_exp scope' vars' expr;
            (scope, vars)
        | Write { mem; idx; value; _ } ->
            check_mem scope mem;
            Option.iter (check_exp scope vars) idx;
            check_exp scope vars value;
            (scope, vars)
        | Enq (f, e) -> check_mem scope f; check_exp scope vars e; (scope, vars)
        | Gen_bitvector { bv; crd_mem; count; _ } ->
            check_mem scope bv; check_mem scope crd_mem;
            check_exp scope vars count;
            (scope, vars)
        | Comment _ -> (scope, vars))
      (scope, vars) body
  in
  ignore (go dram_names (List.map fst p.host_params @ List.map fst p.env) p.accel);
  List.rev !errs

let is_valid p = validate p = []

(* -------------------------------------------------------------------- *)
(* Parallelization factors                                               *)
(* -------------------------------------------------------------------- *)

(** Reserved par values standing for the [innerPar] and [outerPar]
    factors in a par-free {e structure}.  The lowered program depends on
    the factors only through the values stamped in [par]/[scan_par]
    fields and [env], so a plan lowered with these markers serves every
    factor choice; {!bind_par} then stamps the real ones.  Neither is a
    valid factor. *)
let par_inner = -1

let par_outer = -2

(** Substitute [inner] for {!par_inner} and [outer] for {!par_outer} in
    every [par] and [scan_par] field and every [env] value.
    @raise Invalid_argument on a negative factor, or on a negative value
    that is neither marker. *)
let bind_par ~inner ~outer (p : program) =
  if inner < 0 || outer < 0 then
    invalid_arg (Fmt.str "Spatial_ir.bind_par: negative factor %d/%d" inner outer);
  let par n =
    if n = par_inner then inner
    else if n = par_outer then outer
    else if n < 0 then invalid_arg (Fmt.str "Spatial_ir.bind_par: stray par %d" n)
    else n
  in
  let scan s = { s with scan_par = par s.scan_par } in
  let rec stmt s =
    match s with
    | Load_burst b -> Load_burst { b with par = par b.par }
    | Store_burst b -> Store_burst { b with par = par b.par }
    | Foreach f -> Foreach { f with par = par f.par; body = List.map stmt f.body }
    | Reduce r -> Reduce { r with par = par r.par; body = List.map stmt r.body }
    | Foreach_scan f ->
        Foreach_scan { f with scan = scan f.scan; body = List.map stmt f.body }
    | Reduce_scan r ->
        Reduce_scan { r with scan = scan r.scan; body = List.map stmt r.body }
    | Alloc _ | Let _ | Deq _ | Write _ | Enq _ | Gen_bitvector _ | Comment _ ->
        s
  in
  {
    p with
    env = List.map (fun (k, v) -> (k, par v)) p.env;
    accel = List.map stmt p.accel;
  }
