(** Tensor statistics used by the analytic cost models.

    The Capstan simulator and the CPU/GPU baselines estimate loop trip counts
    from dataset statistics instead of executing every scalar operation (the
    paper's datasets reach billions of iterations).  This module computes the
    exact counts those estimates need: per-level position counts, fiber
    lengths, and co-iteration (intersection/union) cardinalities.

    Co-iteration runs on storage-order coordinate prefixes, the order a
    format's levels are walked in, so it counts what execution counts for
    every mode ordering.  Each prefix is linearized into one native int:
    the merge and grouping loops then run on monotone int arrays with no
    per-nonzero allocation and no polymorphic [compare].  Where the
    prefix space overflows 62 bits, dense ranks of the prefixes take the
    place of the linearized keys and the same loops run on those. *)


type t = {
  dims : int array;
  nnz : int;  (** structurally stored nonzeros *)
  num_vals : int;  (** leaf positions incl. trailing-dense zeros *)
  level_positions : int array;  (** iteration-space size of each level *)
  density : float;
}

let of_tensor (x : Tensor.t) =
  let dims = Tensor.dims x in
  let n = Array.length dims in
  let nnz = Tensor.nnz x in
  (* One left-to-right pass: each level's position count derives from the
     level above it (dense levels multiply the parent count by their
     dimension, compressed levels have one position per crd entry), so the
     prefix levels are never rescanned per level. *)
  let level_positions = Array.make n 0 in
  let parent = ref 1 in
  for l = 0 to n - 1 do
    (match x.Tensor.levels.(l) with
    | Tensor.Dense_level { dim } -> parent := !parent * dim
    | Tensor.Compressed_level { crd; _ } -> parent := Array.length crd);
    level_positions.(l) <- !parent
  done;
  let density =
    if n = 0 then 1.0
    else
      float_of_int nnz
      /. Array.fold_left (fun a d -> a *. float_of_int d) 1.0 dims
  in
  { dims; nnz; num_vals = Tensor.num_vals x; level_positions; density }

let pp ppf s =
  Fmt.pf ppf "dims=%a nnz=%d vals=%d density=%.3e levels=%a"
    Fmt.(brackets (array ~sep:(any "x") int))
    s.dims s.nnz s.num_vals s.density
    Fmt.(brackets (array ~sep:comma int))
    s.level_positions

(* -------------------------------------------------------------------- *)
(* Co-iteration cardinalities                                            *)
(* -------------------------------------------------------------------- *)

(* Growable int buffer: the only allocation of key extraction is the
   (amortized) key array itself. *)
let push (buf : int array ref) (n : int ref) v =
  let a = !buf in
  let cap = Array.length a in
  if !n = cap then begin
    let a' = Array.make (2 * cap) 0 in
    Array.blit a 0 a' 0 cap;
    buf := a'
  end;
  !buf.(!n) <- v;
  incr n

(** Sorted distinct keys of the storage-order prefixes of length
    [depth + 1]: a nonzero's key folds [k * spans.(l) + c.(m_l)] over
    storage levels [l = 0..depth], where [m_l] is the mode stored at level
    [l].  The fold is order-isomorphic to lexicographic comparison of the
    prefixes and {!Tensor.iter_nonzeros} walks storage order, so the key
    stream is monotone for every format and one comparison dedups it. *)
let distinct_prefix_keys (t : Tensor.t) ~spans ~depth =
  let mode = Array.of_list (Tensor.format t).Format.mode_order in
  let buf = ref (Array.make 64 0) and n = ref 0 in
  let last = ref 0 in
  Tensor.iter_nonzeros
    (fun c _ ->
      let k = ref 0 in
      for l = 0 to depth do
        k := (!k * spans.(l)) + c.(mode.(l))
      done;
      if !n = 0 || !k <> !last then begin
        push buf n !k;
        last := !k
      end)
    t;
  Array.sub !buf 0 !n

(** Linear merge of two sorted distinct key arrays: the co-iteration
    cardinality ([union = false] counts keys in both, [union = true] keys
    in either). *)
let key_merge_count ~union (pa : int array) (pb : int array) =
  let na = Array.length pa and nb = Array.length pb in
  let i = ref 0 and j = ref 0 and inter = ref 0 in
  while !i < na && !j < nb do
    let a = pa.(!i) and b = pb.(!j) in
    if a = b then (incr inter; incr i; incr j)
    else if a < b then incr i
    else incr j
  done;
  if union then na + nb - !inter else !inter

(** Like {!key_merge_count} but charging pipeline occupancy per parent
    group: surviving keys are grouped by [key / parent_span] (the
    linearized parent prefix) and a group of [m] keys costs
    [max m par / par] vector-lane-group cycles. *)
let key_coiter_launch_total ~union ~par ~parent_span (pa : int array)
    (pb : int array) =
  let na = Array.length pa and nb = Array.length pb in
  let acc = ref 0.0 in
  let group = ref 0 and m = ref 0 in
  let flush () =
    if !m > 0 then
      acc := !acc +. (float_of_int (max !m par) /. float_of_int par);
    m := 0
  in
  let visit k =
    let g = k / parent_span in
    if !m = 0 || g <> !group then begin
      flush ();
      group := g
    end;
    incr m
  in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let a = pa.(!i) and b = pb.(!j) in
    if a = b then begin
      visit a;
      incr i;
      incr j
    end
    else if a < b then begin
      if union then visit a;
      incr i
    end
    else begin
      if union then visit b;
      incr j
    end
  done;
  if union then begin
    while !i < na do visit pa.(!i); incr i done;
    while !j < nb do visit pb.(!j); incr j done
  end;
  flush ();
  !acc

(* Storage-order prefixes of length [n], sorted and distinct. *)
let boxed_prefixes (t : Tensor.t) n =
  let mode = Array.of_list (Tensor.format t).Format.mode_order in
  Tensor.fold_nonzeros
    (fun acc c _ -> Array.init n (fun l -> c.(mode.(l))) :: acc)
    [] t
  |> List.sort_uniq compare

(* Index of [p] in the sorted array [sorted], which holds it. *)
let rank sorted p =
  let rec find lo hi =
    let mid = (lo + hi) / 2 in
    let c = compare sorted.(mid) p in
    if c = 0 then mid
    else if c < 0 then find (mid + 1) hi
    else find lo (mid - 1)
  in
  find 0 (Array.length sorted - 1)

(** Keys for a pair whose storage-order prefix space overflows an int:
    the shape of {!coiter_keys}' linearized keys, built from dense ranks.
    Each trailing part ranks among the sorted distinct trailing parts of
    both tensors ([n] of them) and keys as [parent * n + rank], where
    [parent] ranks its first [m - 1] coordinates; a long key adds its
    leading part's rank times [n * n].  Ranks keep order and equality, so
    the merges count what they would on the prefixes themselves.  This is
    the only place a prefix is boxed.  Returns
    [(long keys, short keys, trailing span, parent span)]. *)
let ranked_keys (long : Tensor.t) (short : Tensor.t) ~k ~m =
  let lead = k - m in
  let pl = boxed_prefixes long k and ps = boxed_prefixes short m in
  let head p = Array.sub p 0 lead and trail p = Array.sub p lead m in
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  let joint = sorted (ps @ List.map trail pl) in
  let leads = sorted (List.map head pl) in
  let n = Array.length joint in
  let parent = Array.make n 0 and up p = Array.sub p 0 (m - 1) in
  for i = 1 to n - 1 do
    parent.(i) <-
      (parent.(i - 1) + if up joint.(i) = up joint.(i - 1) then 0 else 1)
  done;
  if n > 0 && Array.length leads > max_int / n / n then
    invalid_arg "Stats: co-iteration prefix space overflows an int";
  let trail_key p = let r = rank joint p in (parent.(r) * n) + r in
  let long_key p = (rank leads (head p) * n * n) + trail_key (trail p) in
  ( Array.of_list (List.map long_key pl),
    Array.of_list (List.map trail_key ps),
    n * n,
    n )

(* Cuts sorted keys into runs of equal [key / span] and keeps each run's
   remainders, last run first. *)
let split_runs ~span keys =
  let n = Array.length keys and runs = ref [] and start = ref 0 in
  for i = 1 to n do
    if i = n || keys.(i) / span <> keys.(!start) / span then begin
      let base = keys.(!start) / span * span in
      let run = Array.init (i - !start) (fun j -> keys.(!start + j) - base) in
      runs := run :: !runs;
      start := i
    end
  done;
  !runs

(** The key merges of a co-iteration of [a] and [b] at storage level
    [depth]: [(runs, short, parent_span)], where each run merges against
    [short] and [key / parent_span] is a key's parent prefix.

    Usually both tensors have more than [depth] modes; their length-
    [depth + 1] storage-order prefixes key over spans that are the larger
    of the two storage-order dims at each level, and there is one run.
    When one has [m <= depth] modes, as [B(k)] against [A(i,k)] at depth
    1, it is broadcast over the other's leading coordinates: the long
    tensor's keys split into runs by their leading [depth + 1 - m] levels
    and each run's trailing parts meet all of the short tensor's keys,
    without building the broadcast.  [keys] extracts one tensor's keys
    (default {!distinct_prefix_keys}; {!Stats_cache} passes a cached
    one). *)
let coiter_keys ?(keys = distinct_prefix_keys) (a : Tensor.t) (b : Tensor.t)
    ~depth =
  let k = depth + 1 in
  let long, short = if Tensor.order a < k then (b, a) else (a, b) in
  if Tensor.order long < k then
    invalid_arg "Stats: co-iteration deeper than both tensors";
  let m = min k (Tensor.order short) in
  let lead = k - m in
  let spans =
    Array.init k (fun l ->
        let d = Tensor.level_dim long l in
        if l < lead then max 1 d
        else max 1 (max d (Tensor.level_dim short (l - lead))))
  in
  let fits =
    let total = ref 1 in
    Array.for_all
      (fun s -> !total <= max_int / s && (total := !total * s; true))
      spans
  in
  let long_keys, short_keys, trailing_span, parent_span =
    if fits then
      let trailing = Array.sub spans lead m in
      ( keys long ~spans ~depth,
        keys short ~spans:trailing ~depth:(m - 1),
        Array.fold_left ( * ) 1 trailing,
        spans.(k - 1) )
    else ranked_keys long short ~k ~m
  in
  let runs =
    if lead = 0 then [ long_keys ] else split_runs ~span:trailing_span long_keys
  in
  (runs, short_keys, parent_span)

(** [prefix_coiter_count ~union a b ~depth] is the number of distinct
    storage-order prefixes of length [depth + 1] present in both
    ([union = false]) or either ([union = true]) tensor — exactly the total
    number of iterations a depth-[depth] co-iteration loop executes across
    a whole kernel. *)
let prefix_coiter_count ?keys ~union (a : Tensor.t) (b : Tensor.t) ~depth =
  let runs, short, _ = coiter_keys ?keys a b ~depth in
  List.fold_left (fun n run -> n + key_merge_count ~union run short) 0 runs

(** Like {!fiber_launch_total} but for the {e co-iteration} of two tensors
    at level [depth]: groups the surviving coordinates by their parent
    prefix and charges [max m par / par] per group of [m]. *)
let coiter_launch_total ?keys ~union ~par (a : Tensor.t) (b : Tensor.t) ~depth
    =
  let runs, short, parent_span = coiter_keys ?keys a b ~depth in
  List.fold_left
    (fun acc run ->
      acc +. key_coiter_launch_total ~union ~par ~parent_span run short)
    0.0 runs

(** [fiber_launch_total ~par x l] is the total pipeline occupancy, in
    vector-lane-group cycles, of iterating every fiber of compressed level
    [l] with [par]-wide sparse lanes: a fiber of [n > 0] elements occupies
    [max n par / par] cycles (short fibers cannot fill the vector width).
    Empty fibers contribute nothing (their launch overhead is charged
    separately). *)
let fiber_launch_total ~par (x : Tensor.t) l =
  match x.Tensor.levels.(l) with
  | Tensor.Dense_level { dim } ->
      let fibers = if l = 0 then 1 else Tensor.num_positions x (l - 1) in
      float_of_int (fibers * max dim par) /. float_of_int par
  | Tensor.Compressed_level { pos; _ } ->
      let acc = ref 0.0 in
      for p = 0 to Array.length pos - 2 do
        let n = pos.(p + 1) - pos.(p) in
        if n > 0 then acc := !acc +. (float_of_int (max n par) /. float_of_int par)
      done;
      !acc

(** Maximum fiber length at compressed level [l] (worst-case segment). *)
let max_fiber_len (x : Tensor.t) l =
  match x.Tensor.levels.(l) with
  | Tensor.Dense_level { dim } -> dim
  | Tensor.Compressed_level { pos; _ } ->
      let m = ref 0 in
      for p = 0 to Array.length pos - 2 do
        m := max !m (pos.(p + 1) - pos.(p))
      done;
      !m
