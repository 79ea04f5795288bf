(** A bounded in-memory flight recorder for the compile service.

    Keeps the last [capacity] request summaries (request id, op, cached
    bit, outcome, diagnostic codes, latency, queue wait) in a ring, plus
    the full span trees of the last [failed_capacity] {e failed}
    requests — enough to answer "what just happened to request X" from
    [/debug/requests] and [/debug/trace?id=...] without whole-process
    tracing, and bounded so an E1005 storm cannot grow memory without
    limit.

    All mutation happens under one mutex; readers snapshot under the
    same mutex and render outside it.  A {e deterministic} snapshot mode
    (sorted multiset of the correlation-relevant fields, wall-clock and
    generated ids omitted) lets the chaos harness assert the recorder's
    contents are a pure function of the well-formed request multiset,
    identical across worker counts. *)

module Json = Stardust_json.Json

type entry = {
  f_request_id : string;
  f_generated : bool;  (** id was minted by the server, not the client *)
  f_op : string;
  f_cached : bool option;  (** [None] for ops with no cache semantics *)
  f_ok : bool;
  f_codes : string list;  (** diagnostic codes, failure outcomes only *)
  f_latency_s : float;
  f_queue_wait_s : float;
  f_spans : (int * Trace.event) list;
      (** (entry depth, event), completion order; kept for failures *)
  f_spans_dropped : int;
}

type t = {
  capacity : int;
  failed_capacity : int;
  lock : Mutex.t;
  ring : entry option array;
  mutable head : int;  (** next write slot *)
  mutable len : int;
  mutable failed : entry list;  (** newest first, with spans *)
  mutable failed_len : int;
  mutable total : int;  (** lifetime recorded count *)
}

let create ?(capacity = 256) ?(failed_capacity = 16) () =
  if capacity < 1 || failed_capacity < 0 then
    invalid_arg "Flight.create: capacity";
  {
    capacity;
    failed_capacity;
    lock = Mutex.create ();
    ring = Array.make capacity None;
    head = 0;
    len = 0;
    failed = [];
    failed_len = 0;
    total = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let take n l =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n l

(** Record one finished request.  [spans] (with its drop count) is
    retained only when the request failed; the ring summary always drops
    spans so memory stays proportional to [failed_capacity], not to
    traffic. *)
let record t ~request_id ~generated ~op ?cached ~ok ~codes ~latency_s
    ~queue_wait_s ?(spans = ([], 0)) () =
  let span_list, dropped = spans in
  let base =
    {
      f_request_id = request_id;
      f_generated = generated;
      f_op = op;
      f_cached = cached;
      f_ok = ok;
      f_codes = codes;
      f_latency_s = latency_s;
      f_queue_wait_s = queue_wait_s;
      f_spans = [];
      f_spans_dropped = dropped;
    }
  in
  locked t (fun () ->
      t.ring.(t.head) <- Some base;
      t.head <- (t.head + 1) mod t.capacity;
      if t.len < t.capacity then t.len <- t.len + 1;
      t.total <- t.total + 1;
      if (not ok) && t.failed_capacity > 0 then begin
        t.failed <- { base with f_spans = span_list } :: t.failed;
        if t.failed_len < t.failed_capacity then
          t.failed_len <- t.failed_len + 1
        else t.failed <- take t.failed_capacity t.failed
      end)

(** Ring contents, oldest first. *)
let entries t =
  locked t (fun () ->
      let out = ref [] in
      for i = t.len - 1 downto 0 do
        let idx = (t.head - 1 - i + (2 * t.capacity)) mod t.capacity in
        match t.ring.(idx) with Some e -> out := e :: !out | None -> ()
      done;
      List.rev !out)

(** (ring occupancy, failed-trace occupancy, lifetime recorded). *)
let occupancy t = locked t (fun () -> (t.len, t.failed_len, t.total))

(** Most recent recorded entry for [id]: the failed list first (it has
    spans), then the ring. *)
let find t id =
  locked t (fun () ->
      match List.find_opt (fun e -> e.f_request_id = id) t.failed with
      | Some e -> Some e
      | None ->
          let found = ref None in
          (* scan newest first *)
          (try
             for i = 0 to t.len - 1 do
               let idx = (t.head - 1 - i + (2 * t.capacity)) mod t.capacity in
               match t.ring.(idx) with
               | Some e when e.f_request_id = id ->
                   found := Some e;
                   raise Exit
               | _ -> ()
             done
           with Exit -> ());
          !found)

let clear t =
  locked t (fun () ->
      Array.fill t.ring 0 t.capacity None;
      t.head <- 0;
      t.len <- 0;
      t.failed <- [];
      t.failed_len <- 0;
      t.total <- 0)

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let codes_json codes =
  "["
  ^ String.concat "," (List.map (fun c -> "\"" ^ Json.escape c ^ "\"") codes)
  ^ "]"

let cached_json = function
  | None -> "null"
  | Some true -> "true"
  | Some false -> "false"

let entry_summary_json ?(deterministic = false) e =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  if not (deterministic && e.f_generated) then
    Buffer.add_string buf
      (Printf.sprintf "\"request_id\":\"%s\"," (Json.escape e.f_request_id));
  Buffer.add_string buf
    (Printf.sprintf "\"generated\":%b,\"op\":\"%s\",\"cached\":%s,\"ok\":%b"
       e.f_generated (Json.escape e.f_op) (cached_json e.f_cached) e.f_ok);
  Buffer.add_string buf (",\"codes\":" ^ codes_json e.f_codes);
  if not deterministic then
    Buffer.add_string buf
      (Printf.sprintf ",\"latency_s\":%.6f,\"queue_wait_s\":%.6f" e.f_latency_s
         e.f_queue_wait_s);
  Buffer.add_char buf '}';
  Buffer.contents buf

(** The ring as a JSON document.  Default mode is the [/debug/requests]
    dump: oldest first, wall-clock latencies included.  Deterministic
    mode renders the sorted multiset of correlation-relevant fields only
    (no latencies, no server-generated ids), so it is bit-identical
    across runs and worker counts for the same request multiset. *)
let entries_json ?(deterministic = false) t =
  let es = entries t in
  let ring_len, failed_len, total = occupancy t in
  let rendered = List.map (entry_summary_json ~deterministic) es in
  let rendered =
    if deterministic then List.sort compare rendered else rendered
  in
  Printf.sprintf
    "{\"capacity\":%d,\"occupancy\":%d,\"failed_traces\":%d,\"recorded_total\":%d,\"entries\":[%s]}"
    t.capacity ring_len failed_len total
    (String.concat "," rendered)

(* Span-tree reconstruction.  Collector events arrive in completion
   order (children before parents) tagged with their entry depth, which
   is per-domain; so the forest is built per tid with a stack: an event
   at depth [d] adopts every already-built node deeper than [d]. *)
type node = { n_ev : Trace.event; n_children : node list }

let build_forest evs =
  let stack = ref [] in
  List.iter
    (fun (d, ev) ->
      let children, rest =
        let rec split acc = function
          | (d', n) :: tl when d' > d -> split (n :: acc) tl
          | rest -> (acc, rest)
        in
        split [] !stack
      in
      stack := (d, { n_ev = ev; n_children = children }) :: rest)
    evs;
  List.rev_map snd !stack

let rec node_json n =
  let e = n.n_ev in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ts_us\":%.3f,\"dur_us\":%.3f"
       (Json.escape e.Trace.ev_name) (Json.escape e.Trace.ev_cat) e.Trace.ev_ts
       e.Trace.ev_dur);
  (match e.Trace.ev_args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        args;
      Buffer.add_char buf '}');
  (match n.n_children with
  | [] -> ()
  | cs ->
      Buffer.add_string buf ",\"children\":[";
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (node_json c))
        cs;
      Buffer.add_char buf ']');
  Buffer.add_char buf '}';
  Buffer.contents buf

(** Span tree for a recorded request, grouped by recording domain
    ([threads]); [None] when the id was never recorded. *)
let trace_json t id =
  match find t id with
  | None -> None
  | Some e ->
      let by_tid = Hashtbl.create 4 in
      let tids = ref [] in
      List.iter
        (fun (d, ev) ->
          let tid = ev.Trace.ev_tid in
          if not (Hashtbl.mem by_tid tid) then begin
            Hashtbl.add by_tid tid (ref []);
            tids := tid :: !tids
          end;
          let cell = Hashtbl.find by_tid tid in
          cell := (d, ev) :: !cell)
        e.f_spans;
      let threads =
        List.rev_map
          (fun tid ->
            let evs = List.rev !(Hashtbl.find by_tid tid) in
            let forest = build_forest evs in
            Printf.sprintf "{\"tid\":%d,\"spans\":[%s]}" tid
              (String.concat "," (List.map node_json forest)))
          !tids
      in
      Some
        (Printf.sprintf
           "{\"request_id\":\"%s\",\"op\":\"%s\",\"ok\":%b,\"codes\":%s,\"spans_dropped\":%d,\"threads\":[%s]}"
           (Json.escape e.f_request_id) (Json.escape e.f_op) e.f_ok
           (codes_json e.f_codes)
           e.f_spans_dropped
           (String.concat "," threads))
