(** Level-format sparse tensors.

    A tensor is stored as a tree of {e levels} (Chou et al.): level [l] stores
    the coordinates of logical dimension [mode_order.(l)].  A dense level
    stores nothing (coordinates are implicit); a compressed level stores a
    [pos] array segmenting a [crd] array, exactly like CSR's row pointers and
    column indices.  The [vals] array holds one value per leaf position.

    Positions at level [l] form a contiguous range; each position at level
    [l-1] owns a (possibly empty) sub-range at level [l].  This is the
    representation the compiler's iteration theory reasons about: a [forall]
    over an index variable iterates over the positions of the level bound to
    that variable. *)

type level_storage =
  | Dense_level of { dim : int }
      (** Coordinates are implicit; each parent position expands to [dim]
          child positions. *)
  | Compressed_level of { pos : int array; crd : int array }
      (** Child positions of parent [p] are [pos.(p) .. pos.(p+1) - 1]; their
          coordinates are [crd.(q)]. *)

type t = {
  name : string;
  dims : int array;  (** Logical dimension sizes. *)
  format : Format.t;
  levels : level_storage array;  (** In storage (mode) order. *)
  vals : float array;  (** One value per leaf position. *)
}

let name t = t.name
let dims t = Array.copy t.dims
let order t = Array.length t.dims
let format t = t.format

let dim t i =
  if i < 0 || i >= order t then invalid_arg "Tensor.dim: out of range";
  t.dims.(i)

(** Dimension size at storage level [l]. *)
let level_dim t l = t.dims.(Format.dim_of_level t.format l)

(** Order-0 (scalar) tensor. *)
let scalar ?(name = "s") v =
  {
    name;
    dims = [||];
    format = Format.make [];
    levels = [||];
    vals = [| v |];
  }

let is_scalar t = order t = 0
let scalar_value t =
  if not (is_scalar t) then invalid_arg "Tensor.scalar_value: not a scalar";
  t.vals.(0)

(* -------------------------------------------------------------------- *)
(* Packing from COO                                                      *)
(* -------------------------------------------------------------------- *)

(** [pack ?sorted ~name ~format coo] assembles the level-format
    representation from a COO buffer.  Entries are put in storage order
    ({!Coo.sort} under the format's mode order, unless the caller passes
    that result as [sorted]) and canonicalised ({!Coo.canonical}:
    duplicates summed in insertion order, zeros dropped).  One linear pass
    then appends every entry to each level from the first level at which
    its path leaves the previous entry's: a dense level places it at
    [parent * dim + coordinate], a compressed level appends its coordinate
    to [crd] and counts it in its parent's [pos] slot. *)
let pack ?sorted ~name ~format coo =
  let dims = Coo.dims coo in
  let n = Array.length dims in
  if Format.order format <> n then
    invalid_arg "Tensor.pack: format order does not match tensor order";
  let kinds = Array.of_list format.Format.levels in
  let level_dim =
    Array.map (fun m -> dims.(m)) (Array.of_list format.Format.mode_order)
  in
  let sorted =
    match sorted with
    | Some s -> s
    | None -> Coo.sort ~mode_order:format.Format.mode_order coo
  in
  let keys, sums = Coo.canonical coo sorted in
  let nu = Array.length sums in
  (* The first level at which entry [k]'s path leaves entry [k - 1]'s;
     [fresh.(l)] counts the entries that open a node at level [l]. *)
  let fork k =
    let l = ref 0 in
    if k > 0 then
      while keys.((k * n) + !l) = keys.(((k - 1) * n) + !l) do
        incr l
      done;
    !l
  in
  let fresh = Array.make n 0 in
  for k = 0 to nu - 1 do
    for l = fork k to n - 1 do
      fresh.(l) <- fresh.(l) + 1
    done
  done;
  (* Exact sizes: positions per level, one pos slot per parent position. *)
  let parents = Array.make (n + 1) 1 in
  for l = 0 to n - 1 do
    parents.(l + 1) <-
      (match kinds.(l) with
      | Format.Dense -> parents.(l) * level_dim.(l)
      | Format.Compressed -> fresh.(l))
  done;
  let storage f =
    Array.init n (fun l ->
        match kinds.(l) with Format.Dense -> [||] | Format.Compressed -> f l)
  in
  let pos = storage (fun l -> Array.make (parents.(l) + 1) 0) in
  let crd = storage (fun l -> Array.make fresh.(l) 0) in
  let vals = Array.make parents.(n) 0.0 in
  (* [at.(l)]: the current entry's position at level [l]; [filled.(l)]:
     the coordinates appended to compressed level [l], whose [pos] first
     counts each parent's children. *)
  let at = Array.make n 0 and filled = Array.make n 0 in
  for k = 0 to nu - 1 do
    for l = fork k to n - 1 do
      let parent = if l = 0 then 0 else at.(l - 1) and c = keys.((k * n) + l) in
      match kinds.(l) with
      | Format.Dense -> at.(l) <- (parent * level_dim.(l)) + c
      | Format.Compressed ->
          pos.(l).(parent + 1) <- pos.(l).(parent + 1) + 1;
          crd.(l).(filled.(l)) <- c;
          at.(l) <- filled.(l);
          filled.(l) <- filled.(l) + 1
    done;
    vals.(at.(n - 1)) <- sums.(k)
  done;
  let levels =
    Array.init n (fun l ->
        match kinds.(l) with
        | Format.Dense -> Dense_level { dim = level_dim.(l) }
        | Format.Compressed ->
            let pos = pos.(l) in
            for p = 1 to Array.length pos - 1 do
              pos.(p) <- pos.(p) + pos.(p - 1)
            done;
            Compressed_level { pos; crd = crd.(l) })
  in
  { name; dims; format; levels; vals }

let of_coo = pack

(** Construct a tensor directly from raw level arrays — the form a backend
    writes out (e.g. the Capstan simulator's DRAM images).  Performs basic
    structural validation: monotone position arrays, coordinate bounds, and
    a values array matching the leaf-position count.

    @raise Invalid_argument on inconsistent arrays. *)
let of_arrays ~name ~format ~dims ~(levels : level_storage array) ~vals =
  let dims = Array.of_list dims in
  let n = Array.length dims in
  if Format.order format <> n || Array.length levels <> n then
    invalid_arg "Tensor.of_arrays: order mismatch";
  let parent = ref 1 in
  Array.iteri
    (fun l st ->
      let d = dims.(Format.dim_of_level format l) in
      (match (Format.level_kind format l, st) with
      | Format.Dense, Dense_level { dim } ->
          if dim <> d then invalid_arg "Tensor.of_arrays: dense dim mismatch";
          parent := !parent * d
      | Format.Compressed, Compressed_level { pos; crd } ->
          if Array.length pos <> !parent + 1 then
            invalid_arg "Tensor.of_arrays: pos length mismatch";
          if pos.(0) <> 0 then invalid_arg "Tensor.of_arrays: pos.(0) <> 0";
          for p = 0 to !parent - 1 do
            if pos.(p + 1) < pos.(p) then
              invalid_arg "Tensor.of_arrays: pos not monotone"
          done;
          if pos.(!parent) <> Array.length crd then
            invalid_arg "Tensor.of_arrays: crd length mismatch";
          Array.iter
            (fun c ->
              if c < 0 || c >= d then
                invalid_arg "Tensor.of_arrays: coordinate out of bounds")
            crd;
          parent := Array.length crd
      | _ -> invalid_arg "Tensor.of_arrays: level kind mismatch"))
    levels;
  if Array.length vals <> !parent then
    invalid_arg "Tensor.of_arrays: vals length mismatch";
  { name; dims; format; levels; vals }

(** Build from an explicit entry list [(coords, value)]. *)
let of_entries ~name ~format ~dims entries =
  let coo = Coo.create (Array.of_list dims) in
  List.iter (fun (c, v) -> Coo.add coo (Array.of_list c) v) entries;
  pack ~name ~format coo

(* -------------------------------------------------------------------- *)
(* Level geometry                                                        *)
(* -------------------------------------------------------------------- *)

(** Number of positions at level [l] (the size of that level's iteration
    space summed over all parents); level [-1] is the single root. *)
let num_positions t l =
  if l < 0 then 1
  else
    match t.levels.(l) with
    | Dense_level { dim } ->
        let parent = ref 1 in
        for k = 0 to l - 1 do
          match t.levels.(k) with
          | Dense_level { dim } -> parent := !parent * dim
          | Compressed_level { crd; _ } -> parent := Array.length crd
        done;
        !parent * dim
    | Compressed_level { crd; _ } -> Array.length crd

(** Number of stored leaf values (including explicit zeros from trailing
    dense levels). *)
let num_vals t = Array.length t.vals

(** Number of structurally stored nonzeros (distinct coordinate paths). *)
let nnz t = Array.fold_left (fun acc v -> if v <> 0.0 then acc + 1 else acc) 0 t.vals

let density t =
  if is_scalar t then 1.0
  else
    let total = Array.fold_left (fun a d -> a *. float_of_int d) 1.0 t.dims in
    float_of_int (nnz t) /. total

(* -------------------------------------------------------------------- *)
(* Element access                                                        *)
(* -------------------------------------------------------------------- *)

(** Binary search for [c] in [crd.(lo..hi-1)]; the slice is sorted. *)
let search_crd crd lo hi c =
  let lo = ref lo and hi = ref hi in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if crd.(mid) = c then found := mid
    else if crd.(mid) < c then lo := mid + 1
    else hi := mid
  done;
  !found

(** [get t coords] reads one element by logical coordinates; absent
    coordinates read as [0.0]. *)
let get t coords =
  if Array.length coords <> order t then
    invalid_arg "Tensor.get: wrong coordinate arity";
  Array.iteri
    (fun i c ->
      if c < 0 || c >= t.dims.(i) then invalid_arg "Tensor.get: out of bounds")
    coords;
  if is_scalar t then t.vals.(0)
  else
    let rec descend l p =
      if l = Array.length t.levels then Some p
      else
        let c = coords.(Format.dim_of_level t.format l) in
        match t.levels.(l) with
        | Dense_level { dim } -> descend (l + 1) ((p * dim) + c)
        | Compressed_level { pos; crd } ->
            let q = search_crd crd pos.(p) pos.(p + 1) c in
            if q < 0 then None else descend (l + 1) q
    in
    match descend 0 0 with None -> 0.0 | Some p -> t.vals.(p)

(** [iter_nonzeros f t] calls [f coords v] for every stored value with
    [v <> 0.0], in storage order.  [coords] are logical coordinates. *)
let iter_nonzeros f t =
  if is_scalar t then (if t.vals.(0) <> 0.0 then f [||] t.vals.(0))
  else
    let n = Array.length t.levels in
    let coords = Array.make (order t) 0 in
    let rec descend l p =
      if l = n then (
        if t.vals.(p) <> 0.0 then f (Array.copy coords) t.vals.(p))
      else
        let d = Format.dim_of_level t.format l in
        match t.levels.(l) with
        | Dense_level { dim } ->
            for c = 0 to dim - 1 do
              coords.(d) <- c;
              descend (l + 1) ((p * dim) + c)
            done
        | Compressed_level { pos; crd } ->
            for q = pos.(p) to pos.(p + 1) - 1 do
              coords.(d) <- crd.(q);
              descend (l + 1) q
            done
    in
    descend 0 0

let fold_nonzeros f init t =
  let acc = ref init in
  iter_nonzeros (fun c v -> acc := f !acc c v) t;
  !acc

let to_entries t = List.rev (fold_nonzeros (fun acc c v -> (c, v) :: acc) [] t)

(* -------------------------------------------------------------------- *)
(* Conversions                                                           *)
(* -------------------------------------------------------------------- *)

(** Row-major dense array of all elements (logical order). *)
let to_dense t =
  if is_scalar t then [| t.vals.(0) |]
  else begin
    let total = Array.fold_left ( * ) 1 t.dims in
    let out = Array.make total 0.0 in
    let strides = Array.make (order t) 1 in
    for i = order t - 2 downto 0 do
      strides.(i) <- strides.(i + 1) * t.dims.(i + 1)
    done;
    iter_nonzeros
      (fun coords v ->
        let idx = ref 0 in
        Array.iteri (fun i c -> idx := !idx + (c * strides.(i))) coords;
        out.(!idx) <- v)
      t;
    out
  end

(** Re-pack a tensor into a different format (same logical content). *)
let convert ?name ~format t =
  let name = Option.value name ~default:t.name in
  if is_scalar t then { (scalar ~name t.vals.(0)) with format }
  else begin
    let coo = Coo.create t.dims in
    iter_nonzeros (fun c v -> Coo.add coo c v) t;
    pack ~name ~format coo
  end

let rename name t = { t with name }

(* -------------------------------------------------------------------- *)
(* Comparison and printing                                               *)
(* -------------------------------------------------------------------- *)

(** Element-wise closeness with a mixed tolerance, independent of format:
    same shape and, for every pair of elements,
    [|x - y| <= atol + rtol * max |x| |y|].  The relative term keeps the
    comparison meaningful for values far from 1.0 (long reductions), the
    absolute term for values near 0.0 (cancellation).  This is the one
    tensor comparison shared by the test suites and the differential
    oracle's differ. *)
let approx_equal ?(rtol = 1e-6) ?(atol = 1e-9) a b =
  Array.length a.dims = Array.length b.dims
  && Array.for_all2 ( = ) a.dims b.dims
  &&
  let da = to_dense a and db = to_dense b in
  Array.length da = Array.length db
  && Array.for_all2
       (fun x y ->
         Float.abs (x -. y)
         <= atol +. (rtol *. Float.max (Float.abs x) (Float.abs y)))
       da db

(** Structural value equality up to an absolute [tol] (legacy shim over
    {!approx_equal}). *)
let equal_approx ?(tol = 1e-9) a b = approx_equal ~rtol:0.0 ~atol:tol a b

(** Largest absolute element-wise difference. *)
let max_abs_diff a b =
  let da = to_dense a and db = to_dense b in
  if Array.length da <> Array.length db then infinity
  else
    let m = ref 0.0 in
    Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. db.(i)))) da;
    !m

let pp ppf t =
  Fmt.pf ppf "@[<v>%s: %a %a, %d nnz@,"
    t.name
    Fmt.(brackets (array ~sep:(any "x") int))
    t.dims Format.pp_short t.format (nnz t);
  let count = ref 0 in
  (try
     iter_nonzeros
       (fun c v ->
         if !count >= 20 then raise Exit;
         incr count;
         Fmt.pf ppf "  %a -> %g@,"
           Fmt.(parens (array ~sep:comma int))
           c v)
       t
   with Exit -> Fmt.pf ppf "  ...@,");
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t

(* -------------------------------------------------------------------- *)
(* Raw sub-array access (used by code generation and simulation)         *)
(* -------------------------------------------------------------------- *)

(** The positions array of compressed level [l].
    @raise Invalid_argument on a dense level. *)
let pos_array t l =
  match t.levels.(l) with
  | Compressed_level { pos; _ } -> pos
  | Dense_level _ -> invalid_arg "Tensor.pos_array: dense level"

(** The coordinates array of compressed level [l].
    @raise Invalid_argument on a dense level. *)
let crd_array t l =
  match t.levels.(l) with
  | Compressed_level { crd; _ } -> crd
  | Dense_level _ -> invalid_arg "Tensor.crd_array: dense level"

let vals_array t = t.vals
