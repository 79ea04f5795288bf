(** Process-wide dataset-statistics cache.

    Every consumer of the analytic oracle — the explorer's point
    evaluations, the fallback driver, the fuzzer, the profiler — funnels
    through [Plan.build] + [Sim.estimate], and each of those recomputes
    O(nnz) dataset statistics from the raw tensors.  The inputs of a
    search are fixed while hundreds of schedule points are costed, so the
    statistics are pure functions of (tensor data, query): this module
    memoises them once per process instead of once per evaluated point.

    {2 Fingerprints}

    Entries are keyed by a structural tensor fingerprint: name, dims,
    format signature, nnz, and a sampled FNV-1a hash over the value and
    pos/crd arrays (at most 64 stride-sampled elements per array, so
    fingerprinting a gigabyte tensor costs microseconds).  Two tensors
    with equal shape but different data hash differently with
    overwhelming probability; tensors are immutable once packed, so
    there is no invalidation — entries stay valid for the process
    lifetime and eviction is purely a capacity bound ({!set_capacity},
    default {!default_capacity}) shed least-recently-used first, so a
    long-lived daemon keeps its working set warm while dead tensors age
    out.

    {2 Locking discipline}

    One global mutex guards the table and the counters.  Fills are
    double-checked: look up under the lock, compute {e outside} it (the
    O(nnz) scans must not serialize other domains), then re-check and
    insert under the lock.  Racing [Explore.Pool] domains or [Fuzz]
    workers may compute the same entry twice — both arrive at the same
    value (evaluation is pure), the first insert wins, and correctness
    never depends on who filled.  Because which domain fills a raced key
    is scheduling-dependent, the exported Metrics counters are registered
    [~volatile:true]; deterministic consumers (the throughput bench, the
    autotune acceptance check) read {!counters} from sequential code
    instead. *)

module Metrics = Stardust_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Tensor fingerprint                                                  *)
(* ------------------------------------------------------------------ *)

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L
let sample_points = 64

let mix64 h v = Int64.mul (Int64.logxor h v) fnv_prime
let mix h v = mix64 h (Int64.of_int v)

(* Hash length plus up to [sample_points] evenly-strided elements: cheap
   on huge arrays, exact on small ones. *)
let hash_int_array h (a : int array) =
  let n = Array.length a in
  let h = ref (mix h n) in
  if n > 0 then begin
    let k = min n sample_points in
    for i = 0 to k - 1 do
      let idx = i * (n - 1) / max 1 (k - 1) in
      h := mix (mix !h idx) a.(idx)
    done
  end;
  !h

let hash_float_array h (a : float array) =
  let n = Array.length a in
  let h = ref (mix h n) in
  if n > 0 then begin
    let k = min n sample_points in
    for i = 0 to k - 1 do
      let idx = i * (n - 1) / max 1 (k - 1) in
      h := mix64 (mix !h idx) (Int64.bits_of_float a.(idx))
    done
  end;
  !h

let format_sig (f : Format.t) =
  Format.short_name f ^ ":"
  ^ String.concat "" (List.map string_of_int f.Format.mode_order)

(** Structural fingerprint: [name|dims|format|nnz|datahash].  Readable
    prefix for debugging, sampled data hash for discrimination. *)
let fingerprint_uncached (t : Tensor.t) =
  let h = ref fnv_basis in
  Array.iter (fun d -> h := mix !h d) t.Tensor.dims;
  Array.iter
    (fun lv ->
      match lv with
      | Tensor.Dense_level { dim } -> h := mix (mix !h 1) dim
      | Tensor.Compressed_level { pos; crd } ->
          h := hash_int_array (hash_int_array (mix !h 2) pos) crd)
    t.Tensor.levels;
  h := hash_float_array !h t.Tensor.vals;
  Printf.sprintf "%s|%s|%s|%d|%Lx" (Tensor.name t)
    (String.concat "x"
       (List.map string_of_int (Array.to_list t.Tensor.dims)))
    (format_sig (Tensor.format t))
    (Tensor.nnz t) !h

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

type value =
  | Stats of Stats.t
  | Int of int
  | Float of float
  | Keys of int array  (** sorted distinct linearized prefix keys *)
  | Ints of int array  (** per-level scalars, e.g. max fiber lengths *)

(** Capacity bound with LRU eviction: every entry carries a last-use
    stamp (a logical tick bumped on each table access), and an insert
    that pushes the table past the capacity evicts the least-recently
    used entries one at a time until it fits again.  The default is far
    above any single search's working set, so in a one-shot CLI run the
    bound never bites; in a long-lived daemon (the compile service, the
    fuzzer) it is what keeps dead tensors — fuzz cases, disconnected
    clients' datasets — from accumulating for the process lifetime.
    {!set_capacity} tunes the bound at runtime. *)
let default_capacity = 8192

type entry = { e_value : value; mutable e_last_used : int }

let lock = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 256
let capacity_bound = ref default_capacity
let tick = ref 0
let enabled_flag = ref true
let hit_count = ref 0
let miss_count = ref 0
let evict_count = ref 0
let fill_secs = ref 0.0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Fingerprint memo, keyed by physical identity: tensors are immutable
   once packed and the same [Tensor.t] value is queried hundreds of times
   per search, but the full fingerprint scans the value array (its nnz
   count).  A cheap structural hash narrows to the handful of tensors
   sharing a name/shape, compared with [==].  The keys are ephemerons, so
   the memo never keeps a tensor alive: a loop that reads a fresh tensor
   per request does not accumulate them.  Capped like the main table. *)
module Fp_memo = Ephemeron.K1.Make (struct
  type t = Tensor.t

  let equal = ( == )

  let hash (t : Tensor.t) =
    Hashtbl.hash (Tensor.name t, Array.length t.Tensor.dims, Tensor.num_vals t)
end)

let fp_memo : string Fp_memo.t = Fp_memo.create 64
let max_fp_entries = 4096

let fingerprint (t : Tensor.t) =
  match locked (fun () -> Fp_memo.find_opt fp_memo t) with
  | Some fp -> fp
  | None ->
      let fp = fingerprint_uncached t in
      locked (fun () ->
          if Fp_memo.length fp_memo >= max_fp_entries then
            Fp_memo.reset fp_memo;
          Fp_memo.replace fp_memo t fp);
      fp

(* Volatile: raced double-fills make hit/miss splits scheduling-dependent,
   so these must not appear in deterministic metric snapshots. *)
let m_hits =
  lazy
    (Metrics.counter ~volatile:true
       ~help:"statistics-cache lookups served from the cache"
       "stats_cache_hits_total")

let m_misses =
  lazy
    (Metrics.counter ~volatile:true
       ~help:"statistics-cache lookups that computed from raw tensors"
       "stats_cache_misses_total")

let m_fill =
  lazy
    (Metrics.counter ~volatile:true
       ~help:"seconds spent computing statistics on cache misses"
       "stats_cache_fill_seconds_total")

let m_evict =
  lazy
    (Metrics.counter ~volatile:true
       ~help:"entries evicted by the LRU capacity bound"
       "stats_cache_evictions_total")

(** Disable to force every query back to a raw computation (the
    [--no-stats-cache] escape hatch); the table is cleared so a later
    re-enable starts cold. *)
let set_enabled b =
  locked (fun () ->
      enabled_flag := b;
      if not b then begin
        Hashtbl.reset table;
        Fp_memo.reset fp_memo
      end)

let is_enabled () = locked (fun () -> !enabled_flag)

(* Caller holds [lock].  Evict least-recently-used entries until the
   table fits the capacity bound again; returns how many were shed.  The
   scan is O(n) per victim, but it only runs when an insert overflows
   the bound, and the bound keeps n small by construction. *)
let evict_lru_locked () =
  let evicted = ref 0 in
  while Hashtbl.length table > !capacity_bound do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.e_last_used -> acc
          | _ -> Some (k, e.e_last_used))
        table None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove table k;
        incr evict_count;
        incr evicted
    | None -> ()
  done;
  !evicted

(** Bound the table to [n] entries (clamped to at least 1), evicting
    least-recently-used entries immediately if it is already over. *)
let set_capacity n =
  let evicted =
    locked (fun () ->
        capacity_bound := max 1 n;
        evict_lru_locked ())
  in
  if evicted > 0 then
    Metrics.inc ~by:(float_of_int evicted) (Lazy.force m_evict)

let capacity () = locked (fun () -> !capacity_bound)
let size () = locked (fun () -> Hashtbl.length table)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  fill_seconds : float;
}

(** Deterministic counter view for sequential consumers (benches, tests);
    under racing domains prefer the volatile Metrics counters' trends. *)
let counters () =
  locked (fun () ->
      {
        hits = !hit_count;
        misses = !miss_count;
        evictions = !evict_count;
        fill_seconds = !fill_secs;
      })

(** Drop every entry and zero the counters (tests and benchmarks). *)
let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      Fp_memo.reset fp_memo;
      tick := 0;
      hit_count := 0;
      miss_count := 0;
      evict_count := 0;
      fill_secs := 0.0)

let note_hit () =
  locked (fun () -> incr hit_count);
  Metrics.inc (Lazy.force m_hits)

let note_miss dt =
  locked (fun () ->
      incr miss_count;
      fill_secs := !fill_secs +. dt);
  Metrics.inc (Lazy.force m_misses);
  Metrics.inc ~by:dt (Lazy.force m_fill)

(* Raw computation, counted as a miss (the disabled path: every query
   recomputes, so the miss counter equals the raw-computation count). *)
let timed_raw compute =
  let t0 = Unix.gettimeofday () in
  let v = compute () in
  note_miss (Unix.gettimeofday () -. t0);
  v

(* Double-checked fill (see the module doc for the discipline).  Callers
   check [enabled_flag] before building keys — disabled queries must not
   pay for fingerprinting.  Every table access stamps the entry with a
   fresh logical tick so eviction is LRU, not arbitrary. *)
let find_or_fill key compute =
  let found =
    locked (fun () ->
        match Hashtbl.find_opt table key with
        | Some e ->
            incr tick;
            e.e_last_used <- !tick;
            Some e.e_value
        | None -> None)
  in
  match found with
  | Some v ->
      note_hit ();
      v
  | None ->
      let t0 = Unix.gettimeofday () in
      let v = compute () in
      note_miss (Unix.gettimeofday () -. t0);
      let v, evicted =
        locked (fun () ->
            incr tick;
            match Hashtbl.find_opt table key with
            | Some e ->
                (* raced: another domain filled first *)
                e.e_last_used <- !tick;
                (e.e_value, 0)
            | None ->
                Hashtbl.add table key { e_value = v; e_last_used = !tick };
                (v, evict_lru_locked ()))
      in
      if evicted > 0 then
        Metrics.inc ~by:(float_of_int evicted) (Lazy.force m_evict);
      v

let wrong_kind key = invalid_arg ("Stats_cache: wrong entry kind for " ^ key)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(** Cached {!Stats.of_tensor}. *)
let stats (t : Tensor.t) =
  if not !enabled_flag then timed_raw (fun () -> Stats.of_tensor t)
  else
    let key = "st|" ^ fingerprint t in
    match find_or_fill key (fun () -> Stats (Stats.of_tensor t)) with
    | Stats s -> s
    | _ -> wrong_kind key

(** Cached per-level {!Stats.max_fiber_len}, all levels at once (callers
    build whole metadata records; one entry covers every level).  The
    returned array is shared — do not mutate. *)
let max_fiber_lens (t : Tensor.t) =
  let compute () =
    Array.init (Array.length t.Tensor.dims) (Stats.max_fiber_len t)
  in
  if not !enabled_flag then timed_raw compute
  else
    let key = "mfl|" ^ fingerprint t in
    match find_or_fill key (fun () -> Ints (compute ())) with
    | Ints a -> a
    | _ -> wrong_kind key

let max_fiber_len (t : Tensor.t) l = (max_fiber_lens t).(l)

(** Cached {!Stats.fiber_launch_total}. *)
let fiber_launch_total ~par (t : Tensor.t) l =
  if not !enabled_flag then
    timed_raw (fun () -> Stats.fiber_launch_total ~par t l)
  else
    let key = Printf.sprintf "flt|%s|%d|%d" (fingerprint t) l par in
    match
      find_or_fill key (fun () -> Float (Stats.fiber_launch_total ~par t l))
    with
    | Float v -> v
    | _ -> wrong_kind key

(* Cached sorted-prefix key arrays: shared by every pairwise query whose
   linearization spans agree, so a tensor's nonzeros are scanned once per
   (depth, spans), not once per co-iterated partner. *)
let prefix_keys (t : Tensor.t) ~spans ~depth =
  let key =
    Printf.sprintf "pk|%s|%d|%s" (fingerprint t) depth
      (String.concat "x" (List.map string_of_int (Array.to_list spans)))
  in
  match
    find_or_fill key (fun () ->
        Keys (Stats.distinct_prefix_keys t ~spans ~depth))
  with
  | Keys a -> a
  | _ -> wrong_kind key

(** Cached {!Stats.prefix_coiter_count}. *)
let prefix_coiter_count ~union (a : Tensor.t) (b : Tensor.t) ~depth =
  if not !enabled_flag then
    timed_raw (fun () -> Stats.prefix_coiter_count ~union a b ~depth)
  else
    let key =
      Printf.sprintf "pcc|%s|%s|%d|%b" (fingerprint a) (fingerprint b) depth
        union
    in
    match
      find_or_fill key (fun () ->
          Int (Stats.prefix_coiter_count ~keys:prefix_keys ~union a b ~depth))
    with
    | Int v -> v
    | _ -> wrong_kind key

(** Cached {!Stats.coiter_launch_total}. *)
let coiter_launch_total ~union ~par (a : Tensor.t) (b : Tensor.t) ~depth =
  if not !enabled_flag then
    timed_raw (fun () -> Stats.coiter_launch_total ~union ~par a b ~depth)
  else
    let key =
      Printf.sprintf "clt|%s|%s|%d|%b|%d" (fingerprint a) (fingerprint b)
        depth union par
    in
    match
      find_or_fill key (fun () ->
          Float
            (Stats.coiter_launch_total ~keys:prefix_keys ~union ~par a b
               ~depth))
    with
    | Float v -> v
    | _ -> wrong_kind key
