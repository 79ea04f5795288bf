(** Tensor statistics used by the analytic cost models.

    The Capstan simulator and the CPU/GPU baselines estimate loop trip counts
    from dataset statistics instead of executing every scalar operation (the
    paper's datasets reach billions of iterations).  This module computes the
    exact counts those estimates need: per-level position counts, fiber
    lengths, and co-iteration (intersection/union) cardinalities.

    The co-iteration hot paths linearize coordinate prefixes into single
    native ints whenever the per-dimension spans fit 62 bits: the merge and
    grouping loops then run on monotone int arrays with no per-nonzero
    allocation and no polymorphic [compare].  Tensors whose prefix space
    overflows an int fall back to the original array/list-keyed paths, which
    count the exact same quantities. *)

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
(* Coordinate-prefix linearization                                       *)
(* -------------------------------------------------------------------- *)

(** Is storage order lexicographic over logical coordinates? *)
let identity_order (x : Tensor.t) =
  let mo = (Tensor.format x).Format.mode_order in
  List.for_all2 ( = ) mo (List.init (List.length mo) Fun.id)

(** Per-dimension spans for linearizing logical-coordinate prefixes of
    length [depth + 1] drawn from either of two tensors into single ints;
    [None] when a tensor is too short or the prefix space overflows a
    native int.  Linearization is order-isomorphic to lexicographic
    comparison of the prefixes, so sorted-key merges count exactly what
    the array merges count. *)
let linear_spans (dims_a : int array) (dims_b : int array) ~depth =
  let k = depth + 1 in
  if Array.length dims_a < k || Array.length dims_b < k then None
  else begin
    let spans = Array.make (max k 1) 1 in
    let total = ref 1 and ok = ref true in
    for i = 0 to k - 1 do
      let s = max 1 (max dims_a.(i) dims_b.(i)) in
      spans.(i) <- s;
      if !total > max_int / s then ok := false else total := !total * s
    done;
    if !ok then Some spans else None
  end

(* Growable int buffer: the only allocation of the linearized paths is the
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

(** Sorted distinct linearized prefix keys of length [depth + 1].
    Requires an identity mode order (storage order is then lexicographic,
    so the key stream is monotone and one comparison dedups it). *)
let distinct_prefix_keys (t : Tensor.t) ~spans ~depth =
  let buf = ref (Array.make 64 0) and n = ref 0 in
  let last = ref 0 in
  Tensor.iter_nonzeros
    (fun c _ ->
      let k = ref 0 in
      for i = 0 to depth do
        k := (!k * spans.(i)) + c.(i)
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

(* -------------------------------------------------------------------- *)
(* Co-iteration cardinalities                                            *)
(* -------------------------------------------------------------------- *)

(* Sorted distinct [key c] over the nonzeros [c] of [t]. *)
let sorted_distinct key (t : Tensor.t) =
  let a =
    Array.of_list (Tensor.fold_nonzeros (fun acc c _ -> key c :: acc) [] t)
  in
  Array.sort compare a;
  let n = ref 0 in
  Array.iter
    (fun p ->
      if !n = 0 || compare p a.(!n - 1) <> 0 then begin
        a.(!n) <- p;
        incr n
      end)
    a;
  Array.sub a 0 !n

let count_merge a b =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and inter = ref 0 and union = ref 0 in
  while !i < na && !j < nb do
    let c = compare a.(!i) b.(!j) in
    if c = 0 then (incr inter; incr union; incr i; incr j)
    else if c < 0 then (incr union; incr i)
    else (incr union; incr j)
  done;
  union := !union + (na - !i) + (nb - !j);
  (!inter, !union)

(* Full-coordinate merge counts.  Linearized fast path: collect every
   nonzero's key, sort (already sorted for identity orders, but sorting is
   cheap and keeps the path uniform), merge as ints.  The keys of one
   tensor are distinct (coordinate paths are unique), so the merge counts
   match the coordinate-array merge exactly. *)
let full_merge_counts (a : Tensor.t) (b : Tensor.t) =
  let da = Tensor.dims a and db = Tensor.dims b in
  let order = Array.length da in
  if Array.length db <> order then
    count_merge (sorted_distinct Fun.id a) (sorted_distinct Fun.id b)
  else
    match linear_spans da db ~depth:(order - 1) with
    | None -> count_merge (sorted_distinct Fun.id a) (sorted_distinct Fun.id b)
    | Some spans ->
        let keys t =
          let buf = ref (Array.make 64 0) and n = ref 0 in
          Tensor.iter_nonzeros
            (fun c _ ->
              let k = ref 0 in
              for i = 0 to order - 1 do
                k := (!k * spans.(i)) + c.(i)
              done;
              push buf n !k)
            t;
          let ks = Array.sub !buf 0 !n in
          Array.sort Int.compare ks;
          ks
        in
        let ka = keys a and kb = keys b in
        ( key_merge_count ~union:false ka kb,
          key_merge_count ~union:true ka kb )

(** Number of coordinate paths present in {e both} tensors (the trip count of
    an intersection co-iteration over full coordinates). *)
let intersection_nnz a b = fst (full_merge_counts a b)

(** Number of coordinate paths present in {e either} tensor (the trip count
    of a union co-iteration over full coordinates). *)
let union_nnz a b = snd (full_merge_counts a b)

(** Rows (leading-dimension slices) with at least one stored nonzero. *)
let nonempty_rows (x : Tensor.t) =
  let seen = Hashtbl.create 256 in
  Tensor.iter_nonzeros (fun c _ -> Hashtbl.replace seen c.(0) ()) x;
  Hashtbl.length seen

(** When exactly one of [a] and [b] has [depth] modes or fewer, the
    merges that replace theirs: [Some (d, pairs)], where every pair holds
    sorted distinct coordinate suffixes to merge at depth [d].  The short
    tensor co-iterates at a shallower level of its own, as [B(k)] against
    [A(i,k)] at depth 1: it is broadcast over the other's distinct
    leading coordinates.  So each leading part of the long tensor's
    length-[depth + 1] prefixes meets all of the short tensor, and their
    merge runs on the trailing parts — without building the broadcast. *)
let broadcast_pairs (a : Tensor.t) (b : Tensor.t) ~depth =
  let k = depth + 1 and order t = Array.length (Tensor.dims t) in
  let split long short =
    let m = order short in
    let own = sorted_distinct Fun.id short in
    let pl = sorted_distinct (fun c -> Array.sub c 0 k) long in
    let lead i = Array.sub pl.(i) 0 (k - m) in
    let runs = ref [] and start = ref 0 in
    for i = 1 to Array.length pl do
      if i = Array.length pl || compare (lead i) (lead !start) <> 0 then begin
        let run = Array.sub pl !start (i - !start) in
        runs := Array.map (fun p -> Array.sub p (k - m) m) run :: !runs;
        start := i
      end
    done;
    (m - 1, List.map (fun run -> (run, own)) !runs)
  in
  match (order a <= depth, order b <= depth) with
  | false, true -> Some (split a b)
  | true, false ->
      let d, pairs = split b a in
      Some (d, List.map (fun (l, s) -> (s, l)) pairs)
  | _ -> None

(* Generic prefix counts (any mode order): the distinct prefixes of both
   tensors, sorted and merged — as linearized int keys when the prefix
   space fits an int. *)
let prefix_table_counts ~union (a : Tensor.t) (b : Tensor.t) ~depth =
  let pick (inter, either) = if union then either else inter in
  let spans = linear_spans (Tensor.dims a) (Tensor.dims b) ~depth in
  match (broadcast_pairs a b ~depth, spans) with
  | Some (_, pairs), _ ->
      List.fold_left (fun n (pa, pb) -> n + pick (count_merge pa pb)) 0 pairs
  | None, Some spans ->
      let keys t =
        Array.to_list (distinct_prefix_keys t ~spans ~depth)
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      key_merge_count ~union (keys a) (keys b)
  | None, None ->
      let prefixes = sorted_distinct (fun c -> Array.sub c 0 (depth + 1)) in
      pick (count_merge (prefixes a) (prefixes b))

(** [prefix_coiter_count ~union a b ~depth] is the number of distinct
    coordinate prefixes of length [depth + 1] present in both
    ([union = false]) or either ([union = true]) tensor — exactly the total
    number of iterations a depth-[depth] co-iteration loop executes across
    a whole kernel. *)
let prefix_coiter_count ~union (a : Tensor.t) (b : Tensor.t) ~depth =
  if identity_order a && identity_order b then
    match linear_spans (Tensor.dims a) (Tensor.dims b) ~depth with
    | Some spans ->
        (* Fast path: storage order is lexicographic, so distinct prefixes
           arrive as a monotone key stream and one int merge counts the
           co-iteration. *)
        key_merge_count ~union
          (distinct_prefix_keys a ~spans ~depth)
          (distinct_prefix_keys b ~spans ~depth)
    | None -> prefix_table_counts ~union a b ~depth
  else prefix_table_counts ~union a b ~depth

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

(** Sorted distinct coordinate prefixes of length [depth + 1] (requires an
    identity mode order so storage order is lexicographic). *)
let sorted_prefixes (t : Tensor.t) ~depth =
  let out = ref [] and n = ref 0 and last = ref [||] in
  Tensor.iter_nonzeros
    (fun c _ ->
      let p = Array.sub c 0 (depth + 1) in
      if !n = 0 || compare p !last <> 0 then begin
        out := p :: !out;
        last := p;
        incr n
      end)
    t;
  Array.of_list (List.rev !out)

(* Original array-merge grouping of sorted prefixes [pa] and [pb], kept
   as the overflow fallback of {!coiter_launch_total}. *)
let launch_merge ~union ~par ~depth pa pb =
  let na = Array.length pa and nb = Array.length pb in
  let parent p = Array.sub p 0 depth in
  let acc = ref 0.0 in
  let group = ref [||] and m = ref 0 in
  let flush () =
    if !m > 0 then
      acc := !acc +. (float_of_int (max !m par) /. float_of_int par);
    m := 0
  in
  let visit p =
    let g = parent p in
    if !m = 0 || compare g !group <> 0 then begin
      flush ();
      group := g
    end;
    incr m
  in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let c = compare pa.(!i) pb.(!j) in
    if c = 0 then begin
      visit pa.(!i);
      incr i;
      incr j
    end
    else if c < 0 then begin
      if union then visit pa.(!i);
      incr i
    end
    else begin
      if union then visit pb.(!j);
      incr j
    end
  done;
  if union then begin
    while !i < na do visit pa.(!i); incr i done;
    while !j < nb do visit pb.(!j); incr j done
  end;
  flush ();
  !acc

let coiter_launch_total_arrays ~union ~par (a : Tensor.t) (b : Tensor.t)
    ~depth =
  match broadcast_pairs a b ~depth with
  | Some (d, pairs) ->
      List.fold_left
        (fun acc (pa, pb) -> acc +. launch_merge ~union ~par ~depth:d pa pb)
        0.0 pairs
  | None ->
      launch_merge ~union ~par ~depth (sorted_prefixes a ~depth)
        (sorted_prefixes b ~depth)

(** Like {!fiber_launch_total} but for the {e co-iteration} of two tensors
    at level [depth]: groups the surviving coordinates by their parent
    prefix and charges [max m par / par] per group of [m]. *)
let coiter_launch_total ~union ~par (a : Tensor.t) (b : Tensor.t) ~depth =
  if identity_order a && identity_order b then
    match linear_spans (Tensor.dims a) (Tensor.dims b) ~depth with
    | Some spans ->
        key_coiter_launch_total ~union ~par ~parent_span:spans.(depth)
          (distinct_prefix_keys a ~spans ~depth)
          (distinct_prefix_keys b ~spans ~depth)
    | None -> coiter_launch_total_arrays ~union ~par a b ~depth
  else coiter_launch_total_arrays ~union ~par a b ~depth

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
