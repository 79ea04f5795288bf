(** Fixed-size [Domain] worker pool with deterministic result ordering,
    per-task deadlines, and the mutex-guarded memoization cache the
    evaluator shares across workers.

    Candidate evaluation (compile + resource count + analytic simulation)
    is pure: each result depends only on its candidate.  So parallelism is
    a plain self-scheduling map — workers pull indices from an atomic
    counter and write into a preallocated slot array, which makes the
    output order (and therefore the frontier, the best point, and every
    printed report) independent of the worker count and of scheduling
    interleavings.  OCaml 5 domains give real parallelism; with
    [workers = 1] the map degenerates to a sequential loop with no domain
    spawned, which the bench suite uses as the serial baseline.

    {2 Deadlines and hung-worker isolation}

    With [?timeout] set, every application runs in a dedicated sub-domain
    while the worker polls for its completion against a wall-clock
    deadline.  A task that exceeds the deadline is {e abandoned} — OCaml
    domains cannot be killed, so the runaway domain keeps spinning until
    its computation ends, but the pool records a structured timeout for
    that item and moves on to the next one.  One wedged task therefore
    costs exactly one slot (plus one burned core), never the whole map.
    The differential-testing oracle leans on this to survive backends
    that hang on a fuzz case.  Abandoned domains are accounted for:
    each is registered with a completion probe, later deadline-bearing
    calls {e reap} (join) the ones whose computations have finished,
    and the live count is capped so the runtime's domain budget can
    never be silently exhausted — see the abandoned-domain accounting
    below and {!with_deadline}'s [Deadline_unenforceable].  A timed map
    item is one {!with_deadline} call; a refused one fails with an E0905
    [Diag.Fail] and never runs. *)

module Diag = Stardust_diag.Diag
module Trace = Stardust_obs.Trace
module Metrics = Stardust_obs.Metrics

(* Wall-clock-derived pool metrics (queue wait, busy time, timeouts) are
   registered volatile: they are real measurements, so they must never
   appear in the deterministic snapshot that is diffed across runs and
   worker counts. *)
let queue_wait_hist () =
  Metrics.histogram ~volatile:true
    ~help:"seconds between map submission and an item being picked up"
    "pool_queue_wait_seconds"

let busy_gauge worker =
  Metrics.gauge ~volatile:true
    ~help:"seconds this worker spent applying items in the last map"
    ~labels:[ ("worker", string_of_int worker) ]
    "pool_worker_busy_seconds"

let count ?(by = 1.0) ?(volatile = false) name help =
  Metrics.inc ~by (Metrics.counter ~volatile ~help name)

(** Default worker count: the physical parallelism the runtime recommends,
    bounded to keep domain startup cost below the work saved on small
    candidate sets. *)
let default_workers () = max 1 (min 8 (Domain.recommended_domain_count () - 1))

(** A worker application raised: [index] is the failing item's position in
    the input array, [exn] the original exception, and the re-raise in the
    calling domain carries the {e worker's} backtrace (captured at the
    raise site inside the domain, which [Domain.join]-then-[raise] would
    otherwise discard). *)
exception Worker_error of { index : int; exn : exn }

(** A worker application exceeded its [?timeout] deadline: [index] is the
    hung item's position, [seconds] the deadline it blew through.  The
    runaway computation has been abandoned, not cancelled. *)
exception Worker_timeout of { index : int; seconds : float }

let () =
  Printexc.register_printer (function
    | Worker_error { index; exn } ->
        Some
          (Printf.sprintf "Pool.Worker_error(item %d): %s" index
             (Printexc.to_string exn))
    | Worker_timeout { index; seconds } ->
        Some
          (Printf.sprintf "Pool.Worker_timeout(item %d): exceeded %gs" index
             seconds)
    | _ -> None)

(** How one item's application ended.  [Unfilled] is unreachable by
    construction (every index fetched from the atomic counter is written
    exactly once); if it ever surfaces, that is a pool bug and is reported
    as an internal-error diagnostic with provenance, not a bare
    [Invalid_argument]. *)
type 'b slot =
  | Unfilled
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace
  | Timed_out of float

(** Why an item of {!map_result} produced no value. *)
type failure =
  | Failure_raised of { exn : exn; backtrace : Printexc.raw_backtrace }
      (** the application raised [exn] *)
  | Failure_timed_out of { seconds : float }
      (** the application blew its deadline and was abandoned *)

let internal_error ~where message =
  Diag.fail
    [
      Diag.error ~stage:Diag.Driver ~code:Diag.code_internal
        ~context:[ ("where", where) ]
        "internal invariant violated: %s" message;
    ]

(* The backtrace is captured here, inside the raising domain, where it
   still exists. *)
let apply_plain f x =
  match f x with
  | v -> Value v
  | exception e -> Raised (e, Printexc.get_raw_backtrace ())

(* ------------------------------------------------------------------ *)
(* Abandoned-domain accounting                                         *)
(* ------------------------------------------------------------------ *)

(* OCaml domains cannot be killed, so a blown deadline {e abandons} its
   sub-domain.  An abandoned domain is a leak until its computation
   finishes: it holds one of the runtime's ~128 domain slots, and once
   enough accumulate [Domain.spawn] fails for everyone — which, left
   unaccounted, would silently strip every future deadline.  So every
   runaway is registered here with a completion probe; each new
   deadline-bearing call first {e reaps} (joins) the runaways whose
   computations have since finished, reclaiming their slots, and the
   count of still-live runaways is capped at [abandoned_budget] — well
   under the runtime's limit, so deadline spawns keep succeeding and
   the degraded state is an explicit, observable refusal
   ({!Deadline_unenforceable}), never a silent loss of enforcement.
   [pool_abandoned_domains] tracks the live count. *)

let abandoned_budget = 64

type runaway = {
  r_domain : unit Domain.t;
  r_done : unit -> bool;  (** the abandoned computation has finished *)
}

let runaways_lock = Mutex.create ()
let runaways : runaway list ref = ref []

let abandoned_gauge n =
  Metrics.set
    (Metrics.gauge ~volatile:true
       ~help:"deadline sub-domains abandoned and not yet reclaimed"
       "pool_abandoned_domains")
    (float_of_int n)

(** Join every abandoned domain whose computation has finished (the
    join is then immediate) and return how many are still running. *)
let reap_abandoned () =
  Mutex.lock runaways_lock;
  let finished, live = List.partition (fun r -> r.r_done ()) !runaways in
  runaways := live;
  Mutex.unlock runaways_lock;
  List.iter (fun r -> Domain.join r.r_domain) finished;
  let n = List.length live in
  abandoned_gauge n;
  n

let abandon d ~is_done =
  Mutex.lock runaways_lock;
  runaways := { r_domain = d; r_done = is_done } :: !runaways;
  let n = List.length !runaways in
  Mutex.unlock runaways_lock;
  abandoned_gauge n

(* A deadline-bearing call that could not spawn its sub-domain ran
   inline with NO deadline (forward progress over isolation).  Rare —
   the abandoned budget keeps domain slots available — but when it
   happens it must be visible, not a silent degradation. *)
let count_deadline_fallback () =
  count ~volatile:true "pool_deadline_fallbacks_total"
    "deadline-bearing calls that ran inline because no sub-domain could \
     be spawned"

(* ------------------------------------------------------------------ *)
(* Persistent pool handles                                             *)
(* ------------------------------------------------------------------ *)

(** A reusable pool: [p_size - 1] long-lived worker domains parked on a
    condition variable, plus the submitting caller (worker 0).  One-shot
    {!map} spawns and joins domains per call, which is fine for a single
    search but wasteful for a daemon answering thousands of requests;
    a handle created once with {!create} amortizes domain startup across
    every batch of the process lifetime.

    Protocol: {!create} parks the workers; each submitted batch is a
    self-scheduling closure published under [p_lock] with a fresh
    sequence number ([p_work] broadcast wakes the workers, and the
    sequence number stops a worker from re-entering a batch it already
    ran); the worker that completes the batch's last item clears it and
    broadcasts [p_done], on which the submitter waits.  [p_submit]
    serializes submitters, so concurrent callers' batches queue rather
    than interleave.  {!shutdown} is a graceful drain: it waits for the
    in-flight batch, then wakes every worker to exit and joins them. *)
type t = {
  p_size : int;  (** total workers, including the submitting caller *)
  p_lock : Mutex.t;
  p_work : Condition.t;  (** new batch published, or shutdown *)
  p_done : Condition.t;  (** current batch completed *)
  p_submit : Mutex.t;  (** serializes batch submitters *)
  mutable p_alive : bool;
  mutable p_seq : int;  (** sequence number of the latest batch *)
  mutable p_done_seq : int;  (** sequence number of the latest completed *)
  mutable p_batch : (int -> unit) option;  (** batch body, by worker id *)
  mutable p_domains : unit Domain.t list;
}

let size t = t.p_size

(** The pool still has (or is) a live submitter: [false] once {!shutdown}
    has drained it.  The serve readiness probe reports this. *)
let is_alive t =
  Mutex.lock t.p_lock;
  let a = t.p_alive in
  Mutex.unlock t.p_lock;
  a

(* Domain-local "currently running a pooled batch item" flag.  A nested
   submission from inside a batch item — e.g. the compile service
   dispatches a request batch on the pool and one request is an autotune
   whose search maps on the same pool — would deadlock: the outer
   submitter holds [p_submit] until its batch drains, and the batch
   cannot drain while one of its items is parked waiting for [p_submit].
   With the flag set, {!exec_pooled} runs the nested batch inline in the
   current domain instead (sequential, but deterministic and safe). *)
let in_pooled_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)
let in_pooled_task () = !(Domain.DLS.get in_pooled_key)

let mark_pooled body k =
  let flag = Domain.DLS.get in_pooled_key in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) (fun () -> body k)

(** Why {!with_deadline} produced no value. *)
type deadline_failure =
  | Deadline_expired of float
      (** the call blew its budget; the runaway sub-domain has been
          abandoned (and registered for reaping) *)
  | Deadline_unenforceable of { abandoned : int }
      (** refused before running: [abandoned] runaway domains are still
          live, the [abandoned_budget] is spent, and running without a
          deadline would silently lose enforcement — the caller must
          surface the degraded state instead *)

(** [with_deadline ~seconds f] runs [f ()] in a dedicated sub-domain and
    polls for completion against a wall-clock deadline — the same
    machinery as [?timeout] on {!map}, packaged for a single call.  On
    completion the result (or the original exception, with the raising
    domain's backtrace) propagates; past the deadline the sub-domain is
    {e abandoned} (OCaml domains cannot be killed — a runaway keeps its
    core until its computation ends, when the reaper reclaims the slot)
    and [Error (Deadline_expired seconds)] is returned, counted in
    [pool_timeouts_total].

    When the abandoned-domain budget is already spent — [abandoned_budget]
    runaways still live — the call is {e refused} with
    [Error (Deadline_unenforceable _)] before [f] runs, counted in
    [pool_deadline_refusals_total]: a visible, structured degradation
    instead of a daemon that silently stops enforcing deadlines.  (If
    [Domain.spawn] itself fails for some other reason, [f] runs inline
    with no deadline — forward progress over isolation — counted in
    [pool_deadline_fallbacks_total].)

    The caller's "inside a pooled batch item" flag is propagated into
    the sub-domain, so a nested pool submission under a deadline — the
    compile service bounding a request that autotunes, inside a batch —
    still degrades to an inline run instead of deadlocking on the batch
    submitter's lock. *)
let with_deadline ~seconds (f : unit -> 'a) : ('a, deadline_failure) result =
  let live = reap_abandoned () in
  if live >= abandoned_budget then begin
    count ~volatile:true "pool_deadline_refusals_total"
      "deadline-bearing calls refused because the abandoned-domain \
       budget is spent";
    Error (Deadline_unenforceable { abandoned = live })
  end
  else
    let pooled = in_pooled_task () in
    let ctx = Trace.current_context () in
    let cell = Atomic.make None in
    let task () =
      if pooled then Domain.DLS.get in_pooled_key := true;
      (* correlate spans inside the deadline sub-domain with the
         submitting request (DLS does not cross Domain.spawn) *)
      Trace.set_context ctx;
      let r =
        match f () with
        | v -> Value v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ())
      in
      Atomic.set cell (Some r)
    in
    match Domain.spawn task with
    | exception _ ->
        count_deadline_fallback ();
        Ok (f ())
    | d ->
        let deadline = Unix.gettimeofday () +. seconds in
        let rec wait () =
          match Atomic.get cell with
          | Some (Value v) ->
              Domain.join d;
              Ok v
          | Some (Raised (e, bt)) ->
              Domain.join d;
              Printexc.raise_with_backtrace e bt
          | Some (Unfilled | Timed_out _) | None ->
              if Unix.gettimeofday () >= deadline then begin
                count ~volatile:true "pool_timeouts_total"
                  "pool items abandoned past their deadline";
                abandon d ~is_done:(fun () -> Atomic.get cell <> None);
                Error (Deadline_expired seconds)
              end
              else begin
                Unix.sleepf 0.001;
                wait ()
              end
        in
        wait ()

let rec worker_loop t k last_seen =
  Mutex.lock t.p_lock;
  let rec await () =
    if t.p_alive && (t.p_batch = None || t.p_seq = last_seen) then begin
      Condition.wait t.p_work t.p_lock;
      await ()
    end
  in
  await ();
  if not t.p_alive then Mutex.unlock t.p_lock
  else begin
    let seq = t.p_seq in
    let body = Option.get t.p_batch in
    Mutex.unlock t.p_lock;
    body k;
    worker_loop t k seq
  end

(** Create a persistent pool of [workers] total workers (the caller
    counts as one; [workers - 1] domains are spawned). *)
let create ?workers () =
  let p_size =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  let t =
    {
      p_size;
      p_lock = Mutex.create ();
      p_work = Condition.create ();
      p_done = Condition.create ();
      p_submit = Mutex.create ();
      p_alive = true;
      p_seq = 0;
      p_done_seq = 0;
      p_batch = None;
      p_domains = [];
    }
  in
  t.p_domains <-
    List.init (p_size - 1) (fun k ->
        Domain.spawn (fun () -> worker_loop t (k + 1) 0));
  count ~volatile:true "pool_created_total" "persistent pools created";
  t

(** Graceful drain: wait for any in-flight batch, park further
    submissions, then wake every worker to exit and join them.
    Idempotent — a second shutdown finds no domains to join and returns
    immediately — and a map submitted to a shut-down pool runs inline in
    the caller (structured degradation, never a hang).  Calling it from
    {e inside} a pooled batch item would deadlock on the batch
    submitter's lock, so that is refused with a structured E0904
    diagnostic instead. *)
let shutdown t =
  if in_pooled_task () then
    internal_error ~where:"Pool.shutdown"
      "shutdown requested from inside a pooled task";
  Mutex.lock t.p_submit;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.p_submit)
    (fun () ->
      Mutex.lock t.p_lock;
      t.p_alive <- false;
      Condition.broadcast t.p_work;
      Mutex.unlock t.p_lock;
      List.iter Domain.join t.p_domains;
      t.p_domains <- [])

(** Run one batch body on the persistent pool: publish it, participate as
    worker 0, then wait for the completion broadcast (the caller's own
    share may not be the batch's last item). *)
let exec_pooled_fresh t (body : on_all_done:(unit -> unit) -> int -> unit) =
  Mutex.lock t.p_submit;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.p_submit)
    (fun () ->
      if not t.p_alive then body ~on_all_done:ignore 0
      else begin
        Mutex.lock t.p_lock;
        t.p_seq <- t.p_seq + 1;
        let seq = t.p_seq in
        let on_all_done () =
          Mutex.lock t.p_lock;
          t.p_done_seq <- seq;
          t.p_batch <- None;
          Condition.broadcast t.p_done;
          Mutex.unlock t.p_lock
        in
        let batch = mark_pooled (body ~on_all_done) in
        t.p_batch <- Some batch;
        Condition.broadcast t.p_work;
        Mutex.unlock t.p_lock;
        batch 0;
        Mutex.lock t.p_lock;
        while t.p_done_seq < seq do
          Condition.wait t.p_done t.p_lock
        done;
        Mutex.unlock t.p_lock
      end)

(** Submit one batch to the pool — unless the current domain is itself
    executing a pooled batch item, in which case the nested batch runs
    inline here (see {!in_pooled_task} for why). *)
let exec_pooled t (body : on_all_done:(unit -> unit) -> int -> unit) =
  if in_pooled_task () then body ~on_all_done:ignore 0
  else exec_pooled_fresh t body

(** The self-scheduling core: one slot per item, each filled exactly once
    with how that item's application ended.  With [?pool] the batch runs
    on the persistent handle's parked domains; otherwise [workers - 1]
    domains are spawned for this call and joined before it returns. *)
let run_slots ?timeout ?workers ?pool (f : 'a -> 'b) (items : 'a array) :
    'b slot array =
  let workers =
    match (pool, workers) with
    | Some p, _ -> p.p_size
    | None, Some w -> max 1 w
    | None, None -> default_workers ()
  in
  let n = Array.length items in
  let apply x =
    match timeout with
    | None -> apply_plain f x
    | Some seconds -> (
        match with_deadline ~seconds (fun () -> f x) with
        | Ok v -> Value v
        | Error (Deadline_expired seconds) -> Timed_out seconds
        | Error (Deadline_unenforceable { abandoned }) ->
            let d =
              Diag.error ~stage:Diag.Driver ~code:Diag.code_worker_timeout
                ~context:[ ("abandoned_domains", string_of_int abandoned) ]
                "deadline refused: %d abandoned domains are still running"
                abandoned
            in
            Raised (Diag.Fail [ d ], Printexc.get_callstack 0)
        | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
  in
  let slots : 'b slot array = Array.make n Unfilled in
  count ~by:(float_of_int n) "pool_tasks_total"
    "items submitted to the worker pool";
  let submitted = Unix.gettimeofday () in
  (* One span per participating worker (the calling domain is worker 0),
     and per-item queue-wait / per-worker busy-time measurements.  All
     wall-clock, all volatile.  Workers pull indices from the shared
     atomic counter; the worker that finishes the last item reports batch
     completion (one-shot execution ignores it and relies on joins). *)
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  (* The submitter's tracing context rides into every worker body (and is
     restored afterwards, so persistent-pool domains don't leak one
     batch's request id into the next): worker spans under a correlated
     request carry its id. *)
  let submit_ctx = Trace.current_context () in
  let body ~on_all_done k =
    Trace.with_context submit_ctx @@ fun () ->
    Trace.with_span ~cat:"pool"
      ~args:[ ("worker", string_of_int k) ]
      (Printf.sprintf "pool worker %d" k)
      (fun () ->
        let busy = ref 0.0 in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let t0 = Unix.gettimeofday () in
            Metrics.observe (queue_wait_hist ()) (t0 -. submitted);
            slots.(i) <- apply items.(i);
            busy := !busy +. (Unix.gettimeofday () -. t0);
            if 1 + Atomic.fetch_and_add completed 1 = n then on_all_done ();
            loop ()
          end
        in
        loop ();
        Metrics.set (busy_gauge k) !busy)
  in
  (if n = 0 then ()
   else
     match pool with
     | Some p -> exec_pooled p body
     | None ->
         if workers = 1 || n = 1 then body ~on_all_done:ignore 0
         else begin
           let spawned =
             List.init
               (min (workers - 1) (n - 1))
               (fun k -> Domain.spawn (fun () -> body ~on_all_done:ignore (k + 1)))
           in
           body ~on_all_done:ignore 0;
           List.iter Domain.join spawned
         end);
  slots

(** [map ~workers f items] is [Array.map f items], computed by [workers]
    domains.  Results are returned in input order regardless of worker
    count.  If any application fails, the first failure (by item index) is
    re-raised in the calling domain after all workers join: exceptions are
    wrapped in {!Worker_error} with the worker's backtrace preserved, and
    with [?timeout] set a blown deadline raises {!Worker_timeout}.  Callers
    that need per-item failure isolation use {!map_result} instead; callers
    with a persistent {!create}d pool pass it as [?pool] to reuse its
    parked domains instead of spawning per call. *)
let map ?timeout ?workers ?pool (f : 'a -> 'b) (items : 'a array) : 'b array =
  let slots = run_slots ?timeout ?workers ?pool f items in
  Array.iteri
    (fun i s ->
      match s with
      | Raised (exn, bt) ->
          Printexc.raise_with_backtrace (Worker_error { index = i; exn }) bt
      | Timed_out seconds -> raise (Worker_timeout { index = i; seconds })
      | Value _ | Unfilled -> ())
    slots;
  Array.map
    (function
      | Value v -> v
      | Unfilled | Raised _ | Timed_out _ ->
          internal_error ~where:"Pool.map" "result slot never filled")
    slots

(** [map_result ?timeout ?workers f items] is {!map} with per-item failure
    isolation: every item yields [Ok value] or [Error failure], and one
    crashing or hung application never poisons the others.  This is the
    entry point the differential oracle drives fuzz cases through. *)
let map_result ?timeout ?workers ?pool (f : 'a -> 'b) (items : 'a array) :
    ('b, failure) result array =
  let slots = run_slots ?timeout ?workers ?pool f items in
  Array.map
    (function
      | Value v -> Ok v
      | Raised (exn, backtrace) -> Error (Failure_raised { exn; backtrace })
      | Timed_out seconds -> Error (Failure_timed_out { seconds })
      | Unfilled ->
          internal_error ~where:"Pool.map_result" "result slot never filled")
    slots

(** Memoization cache shared between workers.  Lookups and inserts hold a
    mutex; the computation itself runs outside it, so two workers may race
    to fill the same key — harmless for pure functions (last write wins
    with an identical value) and far cheaper than blocking every worker on
    one kernel compilation. *)
module Cache = struct
  type 'a t = { tbl : (string, 'a) Hashtbl.t; lock : Mutex.t }

  let create () = { tbl = Hashtbl.create 64; lock = Mutex.create () }

  let size t =
    Mutex.lock t.lock;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.lock;
    n

  let find_or_compute t key f =
    Mutex.lock t.lock;
    let hit = Hashtbl.find_opt t.tbl key in
    Mutex.unlock t.lock;
    match hit with
    | Some v -> v
    | None ->
        let v = f () in
        Mutex.lock t.lock;
        if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key v;
        Mutex.unlock t.lock;
        v
end
