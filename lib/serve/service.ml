(** The compile service: request dispatch, the plan cache, and the
    shared worker pool.

    One {!t} lives for the whole daemon: it owns a persistent
    {!Pool.create}d domain pool (autotune searches and request batches
    run on it instead of re-spawning domains per request) and a
    {!Plan_cache.t} addressed by everything that determines an answer —
    operation, kernel/expression, format signature, per-tensor dataset
    fingerprints, chip configuration, and the options that shape the
    payload.  A repeated request is answered from the cache
    byte-identically with no recompilation; the [cached] bit in the
    response and the deterministic [plan_cache_*] counters make that
    observable to clients, tests, and CI.

    Every request is wrapped in a [serve.<op>] trace span and counted in
    the metrics registry: [serve_requests_total{op}] (deterministic),
    [serve_request_seconds{op}] latency histograms and the
    [serve_inflight_requests] gauge (volatile — wall-clock truth, never
    part of the deterministic snapshot).

    Handlers never raise: anything a handler throws becomes a
    stable-coded diagnostic in an [ok: false] response ([E1003] if no
    stage produced a better code). *)

module Json = Stardust_json.Json
module Diag = Stardust_diag.Diag
module Trace = Stardust_obs.Trace
module Metrics = Stardust_obs.Metrics
module Flight = Stardust_obs.Flight
module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Stats_cache = Stardust_tensor.Stats_cache
module Cin = Stardust_ir.Cin
module S = Stardust_schedule.Schedule
module C = Stardust_core.Compile
module K = Stardust_core.Kernels
module Arch = Stardust_capstan.Arch
module Dram = Stardust_capstan.Dram
module Sim = Stardust_capstan.Sim
module Resources = Stardust_capstan.Resources
module Pool = Stardust_explore.Pool
module Explore = Stardust_explore.Explore
module Eval = Stardust_explore.Eval
module P = Protocol

type t = {
  pool : Pool.t;
  cache : Plan_cache.t;
  request_timeout : float option;
      (** default per-request deadline in seconds; a request's own
          [deadline_ms] tightens (never loosens) it *)
  data_root : string option;
      (** sandbox for ["NAME=@path"] file data specs; [None] refuses
          them, so the daemon cannot be used as a file-read oracle *)
  ingest_budget : Stardust_ingest.Ingest.budget;
      (** nnz/byte ceilings applied to every file data spec *)
  flight : Flight.t;
      (** bounded ring of recent request summaries plus span trees of
          recent failures, served by [/debug/requests] and
          [/debug/trace] *)
  id_gen : int Atomic.t;
      (** mints [r-<n>] correlation ids for requests without one *)
  mutable stop : bool;
      (** a shutdown request was answered, or a stop signal arrived *)
}

let create ?workers ?plan_cache_capacity ?request_timeout ?cache_dir
    ?data_root ?(ingest_budget = Stardust_ingest.Ingest.no_budget)
    ?flight_capacity ?flight_failed_capacity () =
  {
    pool = Pool.create ?workers ();
    cache = Plan_cache.create ?capacity:plan_cache_capacity ?dir:cache_dir ();
    request_timeout =
      (match request_timeout with
      | Some s when s > 0.0 -> Some s
      | Some _ | None -> None);
    data_root;
    ingest_budget;
    flight =
      Flight.create ?capacity:flight_capacity
        ?failed_capacity:flight_failed_capacity ();
    id_gen = Atomic.make 0;
    stop = false;
  }

let stopping t = t.stop

let flight t = t.flight

(** A server-minted correlation id: [r-<n>], unique for the daemon's
    lifetime.  Distinguishable from client ids by convention only; the
    response marks nothing — clients that care supply their own. *)
let fresh_request_id t =
  Printf.sprintf "r-%d" (1 + Atomic.fetch_and_add t.id_gen 1)

(** Readiness, as [/readyz] reports it: accepting work now — not
    draining, and the worker pool has not been shut down.  Distinct from
    liveness ([/healthz]): a draining daemon is alive but not ready. *)
let ready t = (not t.stop) && Pool.is_alive t.pool

(** Ask the service to stop: the transports' loops check {!stopping}
    after each request/accept and drain.  Safe from a signal handler —
    it only flips a flag. *)
let request_stop t = t.stop <- true

let plan_cache t = t.cache

(** Plan-cache warm-start diagnostics (corrupt spill entries skipped);
    the CLI renders them as warnings on boot. *)
let boot_diags t = Plan_cache.boot_diags t.cache

let workers t = Pool.size t.pool

(** Graceful drain: joins the pool's worker domains.  Idempotent; the
    handle still answers requests afterwards (inline, single-domain). *)
let shutdown t = Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* Request metrics                                                     *)
(* ------------------------------------------------------------------ *)

let m_requests op =
  Metrics.counter ~help:"requests handled by the compile service"
    ~labels:[ ("op", op) ]
    "serve_requests_total"

let m_latency op =
  Metrics.histogram ~volatile:true
    ~help:"wall-clock seconds spent handling a request"
    ~labels:[ ("op", op) ]
    "serve_request_seconds"

let inflight = Atomic.make 0

let m_inflight () =
  Metrics.gauge ~volatile:true ~help:"requests currently being handled"
    "serve_inflight_requests"

(* Deadline expiries are wall-clock truth (whether a request blows its
   budget depends on machine load), so the counter is volatile. *)
let m_deadlines () =
  Metrics.counter ~volatile:true
    ~help:"requests abandoned past their deadline (E1005)"
    "serve_deadlines_total"

let m_degraded () =
  Metrics.counter ~volatile:true
    ~help:
      "deadline-bearing requests refused because the abandoned-domain \
       budget is spent (E1007)"
    "serve_degraded_total"

(* Flight-recorder occupancy tracks arrival order and failure timing —
   wall-clock truth — so both counters are volatile.  The deterministic
   view of the same data is [Flight.entries_json ~deterministic:true]. *)
let m_flight_recorded () =
  Metrics.counter ~volatile:true
    ~help:"requests recorded in the flight recorder"
    "serve_flight_recorded_total"

let m_flight_failed () =
  Metrics.counter ~volatile:true
    ~help:"failed requests whose span trees the flight recorder retained"
    "serve_flight_failed_total"

(* ------------------------------------------------------------------ *)
(* Spec resolution                                                     *)
(* ------------------------------------------------------------------ *)

(** A request's problem, resolved to tensors.  Kernel mode keeps the
    kernel spec and stage so compilation applies the stage's
    paper-specific schedule (same as [stardustc kernel]); expression
    mode compiles the heuristic schedule (same as [stardustc compile]). *)
type resolved = {
  rname : string;
  rstage : (K.spec * K.stage) option;
  rexpr : string;  (** expression text; ["-"] for data-only stats *)
  rformats : (string * F.t) list;
  rinputs : (string * T.t) list;
}

let resolve_spec ?data_root ?ingest_budget (r : P.request) :
    (resolved, Diag.t list) result =
  let inputs_of_specs ~formats specs =
    Workload.inputs_of_specs ?data_root ?budget:ingest_budget ~formats specs
  in
  let bad fmt = Fmt.kstr (fun m -> Error [ P.bad "%s" m ]) fmt in
  let sp = r.P.spec in
  try
    match (sp.P.kernel, sp.P.expr) with
    | Some _, Some _ -> bad "give \"kernel\" or \"expr\", not both"
    | Some name, None -> (
        match K.find name with
        | None -> bad "unknown kernel %S (op \"list\" is the CLI's)" name
        | Some spec ->
            let st = List.hd spec.K.stages in
            Ok
              {
                rname = String.lowercase_ascii spec.K.kname;
                rstage = Some (spec, st);
                rexpr = st.K.expr;
                rformats = st.K.formats;
                rinputs = Workload.stage_random_inputs st sp.P.scale;
              })
    | None, Some e ->
        let formats =
          List.map
            (fun (n, f) -> (n, Workload.format_of_string f))
            sp.P.formats
        in
        Ok
          {
            rname = "custom";
            rstage = None;
            rexpr = e;
            rformats = formats;
            rinputs = inputs_of_specs ~formats sp.P.data;
          }
    | None, None ->
        if r.P.op = P.Stats && sp.P.data <> [] then
          let formats =
            List.map
              (fun (n, f) -> (n, Workload.format_of_string f))
              sp.P.formats
          in
          Ok
            {
              rname = "custom";
              rstage = None;
              rexpr = "-";
              rformats = formats;
              rinputs = inputs_of_specs ~formats sp.P.data;
            }
        else bad "request needs a \"kernel\" or an \"expr\""
  with Failure msg -> Error [ P.bad "%s" msg ]

let config_of_request (r : P.request) =
  let a = Arch.default in
  let a = if r.P.pmus > 0 then { a with Arch.num_pmu = r.P.pmus } else a in
  let a = if r.P.pcus > 0 then { a with Arch.num_pcu = r.P.pcus } else a in
  let dram =
    match r.P.dram with
    | "ddr4" -> Dram.ddr4
    | "ideal" -> Dram.ideal
    | _ -> Dram.hbm2e
  in
  { Sim.arch = a; dram }

(** The plan-cache address of a request: the same fingerprint discipline
    as {!Eval.problem_key} — formats by short name, inputs by their
    sampled {!Stats_cache.fingerprint}, the chip by the full
    {!Sim.config_fingerprint} — plus the operation, the kernel name
    (kernel stages carry paper-specific schedules, so [spmv] and its
    bare expression are distinct plans), and the options that shape the
    payload.  Two requests with equal keys are answered by one
    compilation. *)
let request_key ~opts (r : P.request) (rs : resolved) config =
  let fmts =
    String.concat ","
      (List.map
         (fun (n, f) -> Fmt.str "%s:%s" n (F.short_name f))
         (List.sort compare rs.rformats))
  in
  let data =
    String.concat ","
      (List.map
         (fun (n, t) -> Fmt.str "%s:%s" n (Stats_cache.fingerprint t))
         (List.sort (fun (a, _) (b, _) -> compare a b) rs.rinputs))
  in
  Fmt.str "%s|%s|%s|%s|%s|%s|%s" (P.op_name r.P.op) rs.rname rs.rexpr fmts
    data
    (Sim.config_fingerprint config)
    opts

(* ------------------------------------------------------------------ *)
(* Result payloads                                                     *)
(* ------------------------------------------------------------------ *)

let num f = Json.Num f

let usage_json (u : Resources.usage) =
  Json.Obj
    [
      ("pcu", Json.int u.Resources.pcu);
      ("pmu", Json.int u.Resources.pmu);
      ("mc", Json.int u.Resources.mc);
      ("shuffle", Json.int u.Resources.shuffle);
      ("limiting", Json.Str u.Resources.limiting);
      ("feasible", Json.Bool u.Resources.feasible);
    ]

let report_json (r : Sim.report) =
  Json.Obj
    [
      ("cycles", num r.Sim.cycles);
      ("compute_cycles", num r.Sim.compute_cycles);
      ("dram_cycles", num r.Sim.dram_cycles);
      ("streamed_bytes", num r.Sim.streamed_bytes);
      ("random_accesses", num r.Sim.random_accesses);
      ("iterations", num r.Sim.iterations);
      ("scan_bits", num r.Sim.scan_bits);
      ("seconds", num r.Sim.seconds);
    ]

let compile_resolved (rs : resolved) : (C.compiled, Diag.t list) result =
  match rs.rstage with
  | Some (spec, st) -> K.compile_stage_result spec st ~inputs:rs.rinputs
  | None ->
      C.compile_string_result ~name:rs.rname ~formats:rs.rformats
        ~inputs:rs.rinputs rs.rexpr

let handle_compile (r : P.request) (rs : resolved) config =
  match compile_resolved rs with
  | Error ds -> P.error_body ds
  | Ok compiled ->
      let section name mk = if List.mem name r.P.emit then [ (name, mk ()) ] else [] in
      P.ok_body
        (Json.Obj
           (section "cin" (fun () ->
                Json.Str (Fmt.str "%a" Cin.pp (S.stmt compiled.C.schedule)))
           @ section "code" (fun () -> Json.Str (C.spatial_code compiled))
           @ section "resources" (fun () ->
                 usage_json (Resources.count config.Sim.arch compiled))))

let handle_estimate (rs : resolved) config =
  match compile_resolved rs with
  | Error ds -> P.error_body ds
  | Ok compiled ->
      let report = Sim.estimate ~config compiled in
      P.ok_body
        (Json.Obj
           [
             ("report", report_json report);
             ("resources", usage_json (Resources.count config.Sim.arch compiled));
           ])

let handle_autotune t ~strategy (r : P.request) (rs : resolved) config =
  let problem =
    Eval.problem_of_string ~name:rs.rname ~config ~formats:rs.rformats
      ~inputs:rs.rinputs rs.rexpr
  in
  let budget = if r.P.budget > 0 then Some r.P.budget else None in
  P.ok_body (Explore.json (Explore.run ~pool:t.pool ~strategy ?budget problem))

let handle_stats (rs : resolved) =
  let tensor_json (name, tensor) =
    let dims = Array.to_list (T.dims tensor) in
    let total =
      List.fold_left (fun acc d -> acc *. float_of_int d) 1.0 dims
    in
    let nnz = T.nnz tensor in
    Json.Obj
      [
        ("name", Json.Str name);
        ("dims", Json.Arr (List.map Json.int dims));
        ("nnz", Json.int nnz);
        ( "density",
          num (if total > 0.0 then float_of_int nnz /. total else 0.0) );
        ("fingerprint", Json.Str (Stats_cache.fingerprint tensor));
      ]
  in
  P.ok_body
    (Json.Obj [ ("tensors", Json.Arr (List.map tensor_json rs.rinputs)) ])

let stats_cache_json () =
  let c = Stats_cache.counters () in
  Json.Obj
    [
      ("hits", Json.int c.Stats_cache.hits);
      ("misses", Json.int c.Stats_cache.misses);
      ("evictions", Json.int c.Stats_cache.evictions);
      ("entries", Json.int (Stats_cache.size ()));
      ("capacity", Json.int (Stats_cache.capacity ()));
    ]

let handle_metrics t (r : P.request) =
  P.ok_body
    (Json.Obj
       [
         ("metrics", Metrics.snapshot ~deterministic:(not r.P.volatile) ());
         ("plan_cache", Plan_cache.counters_json (Plan_cache.counters t.cache));
         ("stats_cache", stats_cache_json ());
         ("workers", Json.int (workers t));
       ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(** Compute one request's body.  Returns the body and, for cacheable
    operations, whether the plan cache answered it. *)
let dispatch t (r : P.request) : Json.t * bool option =
  let resolved_or k =
    match
      resolve_spec ?data_root:t.data_root ~ingest_budget:t.ingest_budget r
    with
    | Error ds -> (P.error_body ds, None)
    | Ok rs -> k rs
  in
  let via_cache ~opts rs compute =
    let config = config_of_request r in
    let key = request_key ~opts r rs config in
    let body, hit =
      Plan_cache.find_or_compute t.cache key (fun () -> compute config)
    in
    (body, Some hit)
  in
  match r.P.op with
  | P.Ping -> (P.ok_body (Json.Str "pong"), None)
  | P.Shutdown ->
      t.stop <- true;
      (P.ok_body (Json.Str "bye"), None)
  | P.Metrics -> (handle_metrics t r, None)
  | P.Compile ->
      resolved_or (fun rs ->
          via_cache ~opts:(String.concat "," r.P.emit) rs (fun config ->
              handle_compile r rs config))
  | P.Estimate ->
      resolved_or (fun rs ->
          via_cache ~opts:"" rs (fun config -> handle_estimate rs config))
  | P.Autotune -> (
      (* reject unknown strategies before the cache: E1008 bodies must
         never occupy plan-cache entries *)
      match Workload.strategy_of_string r.P.strategy with
      | Error msg ->
          ( P.error_body
              [
                Diag.error ~stage:Diag.Serve ~code:Diag.code_serve_strategy
                  "%s" msg;
              ],
            None )
      | Ok strategy ->
          (* keyed on the resolved strategy, so its aliases share one
             entry *)
          resolved_or (fun rs ->
              via_cache
                ~opts:
                  (Fmt.str "%s/%d" (Explore.strategy_name strategy) r.P.budget)
                rs
                (fun config -> handle_autotune t ~strategy r rs config)))
  | P.Stats -> resolved_or (fun rs -> via_cache ~opts:"" rs (fun _ -> handle_stats rs))

(** The deadline a request runs under: the tighter of the daemon's
    [--request-timeout] and the request's own ["deadline_ms"], if either
    is set.  Ping/metrics/shutdown are exempt — they cannot hang (no
    compilation, no search), and exempting them keeps the
    deadline-runner's sub-domain spawn off the daemon's cheapest
    liveness path. *)
let effective_deadline t (r : P.request) : float option =
  match r.P.op with
  | P.Ping | P.Metrics | P.Shutdown -> None
  | P.Compile | P.Estimate | P.Autotune | P.Stats -> (
      let requested =
        if r.P.deadline_ms > 0 then Some (float_of_int r.P.deadline_ms /. 1000.0)
        else None
      in
      match (t.request_timeout, requested) with
      | None, None -> None
      | Some s, None | None, Some s -> Some s
      | Some a, Some b -> Some (Float.min a b))

(* ------------------------------------------------------------------ *)
(* Request correlation                                                  *)
(* ------------------------------------------------------------------ *)

(* Stamp the correlation id into the [context] of every diagnostic in an
   error body, so E1002/E1005/E1007 (and any stage's diagnostics) name
   the request that triggered them.  A JSON post-pass rather than
   threading the id through every handler: diagnostics are produced deep
   in stages that know nothing about the serve layer. *)
let stamp_diag rid = function
  | Json.Obj df ->
      let entry = ("request_id", Json.Str rid) in
      let df =
        if List.mem_assoc "context" df then
          List.map
            (function
              | "context", Json.Obj ctx -> ("context", Json.Obj (ctx @ [ entry ]))
              | kv -> kv)
            df
        else df @ [ ("context", Json.Obj [ entry ]) ]
      in
      Json.Obj df
  | j -> j

let stamp_request_id rid body =
  match body with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "error", Json.Obj efields ->
                 ( "error",
                   Json.Obj
                     (List.map
                        (function
                          | "diagnostics", Json.Arr ds ->
                              ( "diagnostics",
                                Json.Arr (List.map (stamp_diag rid) ds) )
                          | kv -> kv)
                        efields) )
             | kv -> kv)
           fields)
  | j -> j

(* (ok bit, diagnostic codes in order, deduplicated) of a response
   body — what the flight recorder summarizes. *)
let body_outcome body =
  match body with
  | Json.Obj fields ->
      let ok =
        match List.assoc_opt "ok" fields with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      let codes =
        match List.assoc_opt "error" fields with
        | Some (Json.Obj ef) -> (
            match List.assoc_opt "diagnostics" ef with
            | Some (Json.Arr ds) ->
                List.filter_map
                  (function
                    | Json.Obj df -> (
                        match List.assoc_opt "code" df with
                        | Some (Json.Str c) -> Some c
                        | _ -> None)
                    | _ -> None)
                  ds
            | _ -> [])
        | _ -> []
      in
      let codes =
        List.rev
          (List.fold_left
             (fun acc c -> if List.mem c acc then acc else c :: acc)
             [] codes)
      in
      (ok, codes)
  | _ -> (false, [])

let record_flight t ~request_id ~generated ~op ?cached ~body ~latency_s
    ~queue_wait_s ~spans () =
  let ok, codes = body_outcome body in
  Metrics.inc (m_flight_recorded ());
  if not ok then Metrics.inc (m_flight_failed ());
  Flight.record t.flight ~request_id ~generated ~op ?cached ~ok ~codes
    ~latency_s ~queue_wait_s
    ~spans:(if ok then ([], 0) else spans)
    ()

(** Envelope a transport-level error (E1001 unparseable line, E1006
    oversized line) with a minted correlation id, recording it in the
    flight recorder — the client never supplied a readable id, but the
    failure is still attributable afterwards. *)
let handle_line_error t body =
  let rid = fresh_request_id t in
  let body = stamp_request_id rid body in
  record_flight t ~request_id:rid ~generated:true ~op:"invalid" ~body
    ~latency_s:0.0 ~queue_wait_s:0.0 ~spans:([], 0) ();
  P.envelope ~id:Json.Null ~op:"invalid" ~request_id:rid body

(** Handle one request value end to end: correlate, validate, count,
    trace, time, dispatch, record, and envelope.  Never raises.
    [?submitted] is the batch submission time, for the flight recorder's
    queue-wait attribution of batch items. *)
let handle_request ?submitted t (j : Json.t) : Json.t =
  let t0 = Unix.gettimeofday () in
  let queue_wait_s =
    match submitted with Some s -> Float.max 0.0 (t0 -. s) | None -> 0.0
  in
  let rid, generated =
    match P.request_id_of j with
    | Some s -> (s, false)
    | None -> (fresh_request_id t, true)
  in
  match P.request_of_json j with
  | Error ds ->
      let body = stamp_request_id rid (P.error_body ds) in
      record_flight t ~request_id:rid ~generated ~op:"invalid" ~body
        ~latency_s:(Unix.gettimeofday () -. t0)
        ~queue_wait_s ~spans:([], 0) ();
      P.envelope ~id:(P.id_of j) ~op:"invalid" ~request_id:rid body
  | Ok r ->
      let opname = P.op_name r.P.op in
      Metrics.inc (m_requests opname);
      Metrics.set (m_inflight ()) (float_of_int (1 + Atomic.fetch_and_add inflight 1));
      let finish () =
        Metrics.observe (m_latency opname) (Unix.gettimeofday () -. t0);
        Metrics.set (m_inflight ())
          (float_of_int (Atomic.fetch_and_add inflight (-1) - 1))
      in
      Fun.protect ~finally:finish (fun () ->
          (* Every request runs under an ambient tracing context: its
             correlation id rides on every span recorded below (pool
             workers and deadline sub-domains included — Pool re-installs
             the context across Domain.spawn), and a bounded collector
             captures the request's own span tree for the flight
             recorder.  The context is installed around the [serve.<op>]
             span so the root span itself is captured too. *)
          let collector = Trace.new_collector () in
          let ctx =
            Some
              {
                Trace.ctx_args = [ ("request_id", rid) ];
                ctx_collector = Some collector;
              }
          in
          let body, cached =
            Trace.with_context ctx (fun () ->
                Trace.with_span ~cat:"serve"
                  ~args:[ ("op", opname) ]
                  ("serve." ^ opname)
                  (fun () ->
                    (* [compute] never raises: every failure mode below is a
                       structured body, which is what lets the deadline wrapper
                       treat any [Error] strictly as a blown budget. *)
                    let compute () =
                      try dispatch t r with
                      | Diag.Fail ds -> (P.error_body ds, None)
                      | Sim.Sim_error { kind; message } ->
                          let code =
                            match kind with
                            | Sim.Runtime -> Diag.code_sim_runtime
                            | Sim.Capacity -> Diag.code_sim_capacity
                            | Sim.Watchdog -> Diag.code_sim_watchdog
                            | Sim.Fault -> Diag.code_sim_fault
                          in
                          ( P.error_body
                              [ Diag.error ~stage:Diag.Simulate ~code "%s" message ],
                            None )
                      | e ->
                          (* capture here, before any further calls overwrite
                             it: with OCAMLRUNPARAM=b this puts the daemon-side
                             crash site in the client's diagnostic context *)
                          let bt = Printexc.get_raw_backtrace () in
                          let context =
                            ("exception", Printexc.to_string e)
                            ::
                            (if Printexc.backtrace_status () then
                               match
                                 String.trim (Printexc.raw_backtrace_to_string bt)
                               with
                               | "" -> []
                               | s -> [ ("backtrace", s) ]
                             else [])
                          in
                          ( P.error_body
                              [
                                Diag.error ~stage:Diag.Serve
                                  ~code:Diag.code_serve_internal ~context
                                  "request handler failed";
                              ],
                            None )
                    in
                    match effective_deadline t r with
                    | None -> compute ()
                    | Some seconds -> (
                        match Pool.with_deadline ~seconds compute with
                        | Ok v -> v
                        | Error (Pool.Deadline_expired s) ->
                            Metrics.inc (m_deadlines ());
                            (P.deadline_body ~seconds:s, None)
                        | Error (Pool.Deadline_unenforceable { abandoned }) ->
                            Metrics.inc (m_degraded ());
                            (P.deadline_unenforceable_body ~abandoned, None))))
          in
          let body = stamp_request_id rid body in
          (* record after the serve.<op> span has closed, so the flight
             entry's span snapshot includes the root span; the collector
             is mutex-guarded against an abandoned sub-domain that is
             still appending *)
          record_flight t ~request_id:rid ~generated ~op:opname ?cached ~body
            ~latency_s:(Unix.gettimeofday () -. t0)
            ~queue_wait_s
            ~spans:(Trace.collector_events collector)
            ();
          P.envelope ~id:r.P.id ~op:opname ?cached ~request_id:rid body)

(** Handle a batch (a JSON-array request line) on the worker pool:
    order-preserving, one response per request.  A nested pool use from
    inside a handler — an autotune in the batch — degrades to an inline
    run (see {!Pool.in_pooled_task}). *)
let handle_batch t (items : Json.t list) : Json.t list =
  let submitted = Unix.gettimeofday () in
  Array.to_list
    (Pool.map ~pool:t.pool
       (fun j -> handle_request ~submitted t j)
       (Array.of_list items))
