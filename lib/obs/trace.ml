(** Hierarchical execution tracing with a Chrome [trace_event] exporter.

    A {e span} is one timed region of work — a compiler stage, a pool
    worker's lifetime, one simulated kernel — recorded as a Chrome
    "complete" ([ph = "X"]) event: name, category, microsecond start
    timestamp, duration, and the recording domain's id as the [tid].
    The exported JSON loads directly in [chrome://tracing] and Perfetto,
    which reconstruct the nesting per thread from the timestamps.

    Tracing is {b off by default} and costs one boolean load per
    {!with_span} while off, so instrumentation can stay in hot paths
    unconditionally.  When on, events are appended to a global
    mutex-guarded buffer: spans from every domain (pool workers, timed
    sub-domains) land in the same trace.

    Span balance is exception-safe: a span whose body raises is still
    recorded (tagged [raised=true]) and the per-domain depth counter is
    restored, so one failing compile cannot skew every later span's
    nesting. *)

module Json = Stardust_json.Json

(** One recorded event.  Timestamps and durations are microseconds
    relative to the {!start} call (Chrome's native unit). *)
type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : string;  (** ["X"] complete span, ["i"] instant *)
  ev_ts : float;
  ev_dur : float;  (** 0 for instants *)
  ev_tid : int;  (** recording domain id *)
  ev_args : (string * string) list;
}

type state = {
  mutable on : bool;
  mutable t0 : float;  (** wall-clock origin of the trace *)
  mutable rev_events : event list;
  lock : Mutex.t;
}

let st = { on = false; t0 = 0.0; rev_events = []; lock = Mutex.create () }

let enabled () = st.on

(** Enable collection, dropping any previously buffered events and
    re-anchoring the time origin. *)
let start () =
  Mutex.lock st.lock;
  st.t0 <- Unix.gettimeofday ();
  st.rev_events <- [];
  st.on <- true;
  Mutex.unlock st.lock

(** Stop collecting.  Buffered events stay exportable. *)
let stop () = st.on <- false

(** Stop and drop everything. *)
let reset () =
  Mutex.lock st.lock;
  st.on <- false;
  st.rev_events <- [];
  Mutex.unlock st.lock

let record ev =
  Mutex.lock st.lock;
  if st.on then st.rev_events <- ev :: st.rev_events;
  Mutex.unlock st.lock

let now_us () = (Unix.gettimeofday () -. st.t0) *. 1e6
let tid () = (Domain.self () :> int)

(* Per-domain span nesting depth: purely observational (Chrome infers
   nesting from timestamps), but it lets tests assert balance and lets
   renderers indent live progress. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let depth () = !(Domain.DLS.get depth_key)

(* ------------------------------------------------------------------ *)
(* Ambient context and per-request collectors                          *)
(* ------------------------------------------------------------------ *)

(** A bounded per-request span buffer.  Installed via {!set_context} it
    receives every span recorded on that domain (with its nesting depth
    at entry), even when global tracing is off, so the flight recorder
    can keep one request's span tree without turning on whole-process
    tracing.  Mutex-guarded: an abandoned deadline sub-domain may still
    be appending after the parent snapshots it. *)
type collector = {
  c_cap : int;
  c_lock : Mutex.t;
  mutable c_rev : (int * event) list;  (** (depth at entry, event) *)
  mutable c_len : int;
  mutable c_dropped : int;
}

let new_collector ?(cap = 512) () =
  { c_cap = cap; c_lock = Mutex.create (); c_rev = []; c_len = 0; c_dropped = 0 }

let collector_add c depth ev =
  Mutex.lock c.c_lock;
  if c.c_len < c.c_cap then begin
    c.c_rev <- (depth, ev) :: c.c_rev;
    c.c_len <- c.c_len + 1
  end
  else c.c_dropped <- c.c_dropped + 1;
  Mutex.unlock c.c_lock

(** Snapshot: events in recording order (completion order — children
    before parents) with their entry depths, plus the drop count. *)
let collector_events c =
  Mutex.lock c.c_lock;
  let evs = List.rev c.c_rev and dropped = c.c_dropped in
  Mutex.unlock c.c_lock;
  (evs, dropped)

(** Ambient tracing context for the current domain: [ctx_args] are
    appended to every event recorded while the context is installed
    (request correlation — e.g. [("request_id", id)]), and
    [ctx_collector], when present, additionally captures those events
    per-request.  The context is domain-local; {!Explore.Pool}
    re-installs the caller's context inside worker bodies and deadline
    sub-domains, since DLS does not cross [Domain.spawn]. *)
type context = {
  ctx_args : (string * string) list;
  ctx_collector : collector option;
}

let context_key : context option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_context () = !(Domain.DLS.get context_key)
let set_context c = Domain.DLS.get context_key := c

(** [with_context ctx f] installs [ctx] for the duration of [f] and
    restores the previous context even if [f] raises. *)
let with_context ctx f =
  let cell = Domain.DLS.get context_key in
  let saved = !cell in
  cell := ctx;
  Fun.protect ~finally:(fun () -> cell := saved) f

let context_args () =
  match current_context () with None -> [] | Some c -> c.ctx_args

let dispatch ~depth ev =
  record ev;
  match current_context () with
  | Some { ctx_collector = Some c; _ } -> collector_add c depth ev
  | _ -> ()

(** [with_span ~cat name f] times [f ()] as one span.  The event is
    recorded even when [f] raises (with an extra [raised=true] argument)
    and the exception is re-raised unchanged.  Spans are captured when
    global tracing is on {e or} the current domain has a collector
    installed; ambient context args ride on every captured event. *)
let with_span ?(cat = "stardust") ?(args = []) name f =
  let ctx = current_context () in
  let collecting =
    match ctx with Some { ctx_collector = Some _; _ } -> true | _ -> false
  in
  if not (st.on || collecting) then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    incr d;
    let entry_depth = !d in
    let ts = now_us () in
    let raised = ref false in
    Fun.protect
      ~finally:(fun () ->
        decr d;
        let args = if !raised then ("raised", "true") :: args else args in
        let args =
          args @ (match ctx with None -> [] | Some c -> c.ctx_args)
        in
        dispatch ~depth:entry_depth
          {
            ev_name = name;
            ev_cat = cat;
            ev_ph = "X";
            ev_ts = ts;
            ev_dur = now_us () -. ts;
            ev_tid = tid ();
            ev_args = args;
          })
      (fun () ->
        try f ()
        with e ->
          raised := true;
          raise e)
  end

(** Zero-duration marker event. *)
let instant ?(cat = "stardust") ?(args = []) name =
  let ctx = current_context () in
  let collecting =
    match ctx with Some { ctx_collector = Some _; _ } -> true | _ -> false
  in
  if st.on || collecting then
    dispatch ~depth:(depth () + 1)
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = "i";
        ev_ts = now_us ();
        ev_dur = 0.0;
        ev_tid = tid ();
        ev_args = args @ (match ctx with None -> [] | Some c -> c.ctx_args);
      }

(** Events in recording order (oldest first). *)
let events () =
  Mutex.lock st.lock;
  let evs = List.rev st.rev_events in
  Mutex.unlock st.lock;
  evs

let event_count () =
  Mutex.lock st.lock;
  let n = List.length st.rev_events in
  Mutex.unlock st.lock;
  n

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

let write_event buf (e : event) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
       (Json.escape e.ev_name) (Json.escape e.ev_cat) (Json.escape e.ev_ph)
       e.ev_ts e.ev_tid);
  if e.ev_ph = "X" then
    Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" e.ev_dur);
  (* instants need a scope for Chrome to render them *)
  if e.ev_ph = "i" then Buffer.add_string buf ",\"s\":\"t\"";
  (match e.ev_args with
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
  Buffer.add_char buf '}'

(** The whole buffer as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]), loadable in [chrome://tracing] and
    Perfetto. *)
let export_json () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      write_event buf e)
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(** Write {!export_json} to [path]. *)
let save path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (export_json ()))
