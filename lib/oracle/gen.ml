(** Random well-formed case generation.

    Every case is drawn deterministically from one integer seed (the
    splitmix64 {!Stardust_workloads.Prng}): an expression of 1–4 operand
    accesses mixing additions, subtractions, and multiplications over 0–2
    result variables and 0–3 reduction variables; per-tensor level formats
    (dense/compressed per level, occasionally a permuted mode order); a
    result format; seeded tensor data at a sampled density; and a legal
    schedule point — a loop order drawn from
    {!Stardust_core.Legality.legal_orders} plus [innerPar]/[outerPar]
    environment values.

    Well-formedness invariants the generator maintains (so that every
    backend can at least attempt the case):

    - every index variable appears in at least one input access, so
      extents are inferable by every backend's inference;
    - every additive term either covers the whole reduction space or none
      of it, the shape both the scheduler's workspace transformation and
      the reference evaluator support;
    - the sampled loop order respects every tensor's level ordering
      (compressed fibers are only reachable through their parents);
    - when no loop order over the generated formats is legal, the
      operands fall back to fully dense storage laid out along the result
      variables then the reduction variables, which makes that order
      legal. *)

module Format = Stardust_tensor.Format
module Ast = Stardust_ir.Ast
module Legality = Stardust_core.Legality
module Prng = Stardust_workloads.Prng

let out_pool = [ "i"; "j" ]
let red_pool = [ "k"; "l"; "m" ]
let tensor_pool = [ "A"; "B"; "C"; "D"; "E"; "F" ]

let take n l = List.filteri (fun i _ -> i < n) l

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** Split [vars] into 1–3 non-empty chunks of at most 3 (tensor orders
    stay small enough for the dense reference to be cheap). *)
let chunk rng vars =
  let rec go acc = function
    | [] -> List.rev acc
    | rest ->
        let k = min (List.length rest) (1 + Prng.int rng 3) in
        go (take k rest :: acc)
          (List.filteri (fun i _ -> i >= k) rest)
  in
  go [] vars

(** One random level format of the given order: each level dense or
    compressed, with an occasional non-identity mode order. *)
let gen_format rng order =
  if order = 0 then Format.make []
  else
    let levels =
      List.init order (fun _ ->
          if Prng.bool rng 0.5 then Format.Dense else Format.Compressed)
    in
    let mode_order =
      if order >= 2 && Prng.bool rng 0.3 then
        Some (shuffle rng (List.init order Fun.id))
      else None
    in
    Format.make ?mode_order levels

(** The fully dense format of [access] whose levels store its dimensions
    in the order their variables take in [order].  Dense levels still bind
    outside-in, so plain row-major operands can rule out every loop order
    ([B(j,i)] under [Y(i,j)]); stored this way, [order] itself is legal. *)
let dense_along order (access : Ast.access) =
  let rank v = Option.get (List.find_index (String.equal v) order) in
  let dims = List.mapi (fun d v -> (rank v, d)) access.Ast.indices in
  Format.make
    ~mode_order:(List.map snd (List.sort compare dims))
    (List.map (fun _ -> Format.Dense) dims)

(** Random entries over the full coordinate space of [dims] at [density],
    with quarter-integer values in [±0.25, ±2] — exactly representable,
    so cross-backend differences are real bugs, not rounding noise at the
    tolerance boundary. *)
let gen_entries rng dims density =
  let rec cells = function
    | [] -> [ [] ]
    | d :: rest ->
        let tails = cells rest in
        List.concat_map
          (fun c -> List.map (fun tl -> c :: tl) tails)
          (List.init d Fun.id)
  in
  List.filter_map
    (fun coords ->
      if Prng.bool rng density then
        let v = float_of_int (1 + Prng.int rng 8) /. 4.0 in
        Some (coords, if Prng.bool rng 0.5 then -.v else v)
      else None)
    (cells dims)

(** Sample a loop order for [assign] that {!Legality} accepts.  For a
    workspace case ([perfect_nest = false]) the reduction loops execute in
    canonical (appearance) order inside the producer, so only orders whose
    reduction-variable subsequence is canonical are faithful — the rest
    are filtered out before sampling. *)
let sample_order rng ~formats (assign : Ast.assign) =
  let all = Ast.all_vars assign in
  if List.length all < 2 then Some []
  else
    let orders = Legality.legal_orders ~formats assign all in
    let orders =
      if Case.perfect_nest assign then orders
      else
        let rvars = Ast.reduction_vars assign in
        List.filter
          (fun order ->
            List.equal String.equal
              (List.filter (fun v -> List.mem v rvars) order)
              rvars)
          orders
    in
    match orders with
    | [] -> None
    | _ -> Some (List.nth orders (Prng.int rng (List.length orders)))

(** Build the expression skeleton: a covering first term (its accesses
    jointly mention every variable) plus up to two extra terms over the
    result variables only.  Returns the term list as (negated, factors)
    with factors = access index lists. *)
let gen_terms rng ~out_vars ~red_vars =
  let needed = out_vars @ red_vars in
  let covering = chunk rng (shuffle rng needed) in
  (* occasionally multiply in a redundant factor reusing bound vars *)
  let covering =
    if List.length covering < 3 && Prng.bool rng 0.3 && needed <> [] then
      covering @ [ take (1 + Prng.int rng (min 3 (List.length needed)))
                     (shuffle rng needed) ]
    else covering
  in
  let n_extra =
    if out_vars = [] || List.length covering >= 4 then 0 else Prng.int rng 2
  in
  let extras =
    List.init n_extra (fun _ ->
        [ take (1 + Prng.int rng (List.length out_vars)) (shuffle rng out_vars) ])
  in
  let sign () = Prng.bool rng 0.25 in
  (false, covering) :: List.map (fun fs -> (sign (), fs)) extras

(** Generate the raw case for [seed]; [densify] forces every operand
    fully dense along {!Ast.all_vars} (the fallback when no legal order
    exists otherwise). *)
let attempt ~seed ~densify rng =
  let n_out = Prng.int rng 3 in
  let out_vars = take n_out out_pool in
  let n_red =
    if out_vars = [] then 1 + Prng.int rng 3 else Prng.int rng 4
  in
  let red_vars = take n_red red_pool in
  let extents =
    List.map (fun v -> (v, 2 + Prng.int rng 4)) (out_vars @ red_vars)
  in
  let terms = gen_terms rng ~out_vars ~red_vars in
  (* name each access and build tensor specs *)
  let names = ref tensor_pool in
  let fresh () =
    match !names with
    | n :: rest ->
        names := rest;
        n
    | [] -> "T" ^ string_of_int (Prng.int rng 1000)
  in
  let specs = ref [] in
  let density = 0.25 +. (0.65 *. Prng.float rng) in
  let expr_terms =
    List.map
      (fun (neg, factors) ->
        let accesses =
          List.map
            (fun vars ->
              let tname = fresh () in
              let dims = List.map (fun v -> List.assoc v extents) vars in
              let fmt = gen_format rng (List.length vars) in
              let entries = gen_entries rng dims density in
              specs :=
                { Case.tname; fmt; dims; entries } :: !specs;
              Ast.access tname vars)
            factors
        in
        let product =
          match accesses with
          | [] -> Ast.const 1.0
          | a :: rest -> List.fold_left (fun e x -> Ast.Bin (Ast.Mul, e, x)) a rest
        in
        (* an occasional constant factor exercises Const lowering *)
        let product =
          if Prng.bool rng 0.15 then
            Ast.Bin (Ast.Mul, Ast.const (float_of_int (1 + Prng.int rng 3)), product)
          else product
        in
        (neg, product))
      terms
  in
  let assign =
    {
      Ast.lhs = { Ast.tensor = "Y"; indices = out_vars };
      accum = false;
      rhs = Ast.of_linear_terms expr_terms;
    }
  in
  let tensors = List.rev !specs in
  let tensors =
    if not densify then tensors
    else
      let order = Ast.all_vars assign
      and accesses = Ast.accesses_of_expr assign.Ast.rhs in
      List.map
        (fun (ts : Case.tensor_spec) ->
          let access =
            List.find
              (fun (a : Ast.access) -> a.Ast.tensor = ts.Case.tname)
              accesses
          in
          { ts with Case.fmt = dense_along order access })
        tensors
  in
  (* Bias the result toward fully dense: compressed outputs are legal only
     in the restricted positions the planner supports, and a mostly-dense
     result keeps the compiled backends in play on most cases.  Permuted
     result mode orders are not exercised by the paper kernels; keep the
     result's storage order logical. *)
  let result_format =
    let order = List.length out_vars in
    if densify || Prng.bool rng 0.75 then
      Format.make (List.init order (fun _ -> Format.Dense))
    else Format.make (gen_format rng order).Format.levels
  in
  let formats =
    List.map (fun ts -> (ts.Case.tname, ts.Case.fmt)) tensors
    @ [ ("Y", result_format) ]
  in
  match sample_order rng ~formats assign with
  | None -> None
  | Some order ->
      let env =
        List.filter_map
          (fun knob ->
            if Prng.bool rng 0.5 then
              Some (knob, List.nth [ 1; 2; 4 ] (Prng.int rng 3))
            else None)
          [ "innerPar"; "outerPar" ]
      in
      Some
        {
          Case.seed;
          expr = Ast.assign_to_string assign;
          tensors;
          order;
          env;
          result = "Y";
          result_format;
        }

(** [gen ~seed] is the deterministic case for [seed].  Up to five format
    re-rolls are attempted when the sampled formats admit no legal loop
    order (mutually incompatible level orderings); the final fallback
    stores every operand densely along one variable order, which always
    admits that order. *)
let gen ~seed : Case.t =
  let rec try_roll k =
    let rng = Prng.create (seed + (k * 0x9E3779B9)) in
    match attempt ~seed ~densify:false rng with
    | Some c -> c
    | None ->
        if k < 4 then try_roll (k + 1)
        else
          let rng = Prng.create seed in
          (match attempt ~seed ~densify:true rng with
          | Some c -> c
          | None ->
              (* [dense_along] makes [Ast.all_vars] legal; unreachable *)
              invalid_arg "Gen.gen: dense fallback produced no case")
  in
  try_roll 0
