(** Coordinate-list (COO) tensor builder.

    A COO buffer accumulates [(coordinates, value)] entries in arbitrary
    order and possibly with duplicates (paper-scale datasets reach millions
    of entries).  It is stored as a struct of arrays grown by doubling: one
    flat [int] array holding every entry's coordinates back to back, and
    one unboxed [float] array of values, so appending allocates nothing per
    entry.  {!sort} orders the entries for the level-format packer in
    {!Tensor}; {!canonical} merges the sorted runs — duplicates summed in
    insertion order, explicit zeros dropped. *)

type t = {
  dims : int array;
  mutable crd : int array;
      (** entry [e]'s coordinate in mode [m] is [crd.((e * order) + m)] *)
  mutable vals : float array;
  mutable count : int;  (** the first [count] entries are live *)
}

let check_dims dims =
  if Array.length dims = 0 then invalid_arg "Coo.create: order-0 tensor";
  Array.iter (fun d -> if d <= 0 then invalid_arg "Coo.create: dim <= 0") dims

(** [create ?capacity dims] is an empty buffer with room for [capacity]
    entries before it first grows. *)
let create ?(capacity = 0) dims =
  check_dims dims;
  let cap = max 0 capacity and dims = Array.copy dims in
  let crd = Array.make (cap * Array.length dims) 0 in
  { dims; crd; vals = Array.make cap 0.0; count = 0 }

let order t = Array.length t.dims
let dims t = Array.copy t.dims
let length t = t.count

(** Coordinate of entry [e] in mode [m]. *)
let coord t e m = t.crd.((e * Array.length t.dims) + m)

let grow t =
  let cap = Array.length t.vals in
  if t.count >= cap then begin
    let cap' = max 16 (2 * cap) and n = order t in
    let crd = Array.make (cap' * n) 0 and vals = Array.make cap' 0.0 in
    Array.blit t.crd 0 crd 0 (t.count * n);
    Array.blit t.vals 0 vals 0 t.count;
    t.crd <- crd;
    t.vals <- vals
  end

(** [add t coords v] appends one entry; [coords] is copied, so callers may
    reuse one scratch array.

    @raise Invalid_argument if [coords] has the wrong arity or is out of
    bounds. *)
let add t coords v =
  let n = Array.length t.dims in
  if Array.length coords <> n then invalid_arg "Coo.add: wrong coordinate arity";
  for i = 0 to n - 1 do
    let c = coords.(i) in
    if c < 0 || c >= t.dims.(i) then
      invalid_arg
        (Printf.sprintf "Coo.add: coordinate %d out of bounds (%d not in [0,%d))"
           i c t.dims.(i))
  done;
  grow t;
  for i = 0 to n - 1 do
    t.crd.((t.count * n) + i) <- coords.(i)
  done;
  t.vals.(t.count) <- v;
  t.count <- t.count + 1

(** [with_dims t dims] is [t]'s entries, arrays shared, under dimensions
    learnt only after the last entry.

    @raise Invalid_argument if an entry is out of bounds. *)
let with_dims t dims =
  check_dims dims;
  Array.iteri
    (fun k c ->
      if k < t.count * order t && c >= dims.(k mod order t) then
        invalid_arg "Coo.with_dims: coordinate out of bounds")
    t.crd;
  { t with dims = Array.copy dims }

(* Number of bits needed to write [x >= 0] in binary. *)
let bits x =
  let rec go b = if x lsr b = 0 then b else go (b + 1) in
  go 0

(** The entries in storage order: entry [perm.(k)] is the [k]-th in
    sorted order and [keys.((k * order) + l)] its coordinate at level [l],
    the mode [mode_order.(l)]. *)
type sorted = { perm : int array; keys : int array }

(** [sort ?mode_order t] orders the entries lexicographically in
    [mode_order] (default: the identity), stably, so equal coordinates
    keep their insertion order.

    A least-significant-digit counting sort: levels innermost first, each
    coordinate split into digits of at most 16 bits — narrower when there
    are few entries, never wider than the level's dimension — so no
    bucket array outgrows [min 65536 dim], whatever the dimensions.  Every
    pass reads its input in order and moves whole entries, so the merging
    and packing after the sort stream through memory too. *)
let sort ?mode_order t =
  let n = t.count and ord = order t in
  let mo =
    match mode_order with
    | None -> Array.init ord Fun.id
    | Some mo -> Array.of_list mo
  in
  let digit_bits = max 4 (min 16 (bits n)) in
  let mask = (1 lsl digit_bits) - 1 in
  let count = Array.make (mask + 2) 0 in
  let keys = Array.make (n * ord) 0 in
  for e = 0 to n - 1 do
    for l = 0 to ord - 1 do
      keys.((e * ord) + l) <- t.crd.((e * ord) + mo.(l))
    done
  done;
  let cur = ref { perm = Array.init n Fun.id; keys }
  and spare = ref { perm = Array.make n 0; keys = Array.make (n * ord) 0 } in
  for l = ord - 1 downto 0 do
    let dim = t.dims.(mo.(l)) in
    let sh = ref 0 in
    while !sh < bits (dim - 1) do
      let s = !cur and d = !spare and shift = !sh in
      let sk = s.keys and dk = d.keys in
      let buckets = min (mask + 1) (((dim - 1) lsr shift) + 1) in
      Array.fill count 0 (buckets + 1) 0;
      for k = 0 to n - 1 do
        let b = ((sk.((k * ord) + l) lsr shift) land mask) + 1 in
        count.(b) <- count.(b) + 1
      done;
      for b = 1 to buckets do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      for k = 0 to n - 1 do
        let b = (sk.((k * ord) + l) lsr shift) land mask in
        let at = count.(b) in
        count.(b) <- at + 1;
        d.perm.(at) <- s.perm.(k);
        for j = 0 to ord - 1 do
          dk.((at * ord) + j) <- sk.((k * ord) + j)
        done
      done;
      cur := d;
      spare := s;
      sh := shift + digit_bits
    done
  done;
  !cur

(* Sorted entries [j] and [k] have equal coordinates. *)
let same_keys ord (s : sorted) j k =
  let m = ref 0 in
  while !m < ord && s.keys.((j * ord) + !m) = s.keys.((k * ord) + !m) do
    incr m
  done;
  !m = ord

(** The earliest insertion whose coordinates an earlier entry already
    holds — what an insertion-time duplicate check reports first.  The
    sort kept each run of equal coordinates in insertion order, so every
    entry of a run but its first is a collision. *)
let first_duplicate t (s : sorted) =
  let ord = order t and best = ref (-1) in
  for k = 1 to Array.length s.perm - 1 do
    let e = s.perm.(k) in
    if (!best < 0 || e < !best) && same_keys ord s (k - 1) k then best := e
  done;
  if !best < 0 then None else Some !best

(** [canonical t s] merges the runs of equal coordinates of the sorted
    entries [s]: every run whose values, summed in insertion order, are
    not exactly [0.0] becomes one entry.  Returns the surviving keys
    (laid out as in {!sorted}, whose [keys] it compacts in place) and
    sums. *)
let canonical t (s : sorted) =
  let ord = order t and n = Array.length s.perm in
  let sums = Array.make n 0.0 in
  let out = ref 0 and k = ref 0 in
  while !k < n do
    let first = !k in
    let acc = ref t.vals.(s.perm.(first)) in
    incr k;
    while !k < n && same_keys ord s first !k do
      acc := !acc +. t.vals.(s.perm.(!k));
      incr k
    done;
    if !acc <> 0.0 then begin
      Array.blit s.keys (first * ord) s.keys (!out * ord) ord;
      sums.(!out) <- !acc;
      incr out
    end
  done;
  if !out = n then (s.keys, sums)
  else (Array.sub s.keys 0 (!out * ord), Array.sub sums 0 !out)

(** [finalize ?mode_order t] lists the canonical entries: sorted
    lexicographically in storage order, duplicate coordinates summed, and
    entries whose summed value is exactly [0.0] removed. *)
let finalize ?mode_order t =
  let ord = order t in
  let mode_order = Option.value mode_order ~default:(List.init ord Fun.id) in
  let keys, sums = canonical t (sort ~mode_order t) in
  List.init (Array.length sums) (fun k ->
      let c = Array.make ord 0 in
      List.iteri (fun l m -> c.(m) <- keys.((k * ord) + l)) mode_order;
      (c, sums.(k)))

(** Number of distinct nonzero coordinates after canonicalisation. *)
let nnz t = Array.length (snd (canonical t (sort t)))

let of_list dims l =
  let t = create (Array.of_list dims) in
  List.iter (fun (c, v) -> add t (Array.of_list c) v) l;
  t
