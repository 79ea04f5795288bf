(** Wire protocol of the compile service: newline-delimited JSON.

    Each request line is one JSON object (or an array of objects — a
    batch, answered by an array in the same order):

    {v
    {"id": 1, "op": "compile", "kernel": "spmv", "n": 64}
    {"id": 2, "op": "estimate",
     "expr": "y(i) = A(i,j) * x(j)",
     "formats": {"A": "csr", "x": "dv", "y": "dv"},
     "data": ["A=64x64@0.05", "x=64"]}
    {"id": 3, "op": "metrics"}
    {"id": 4, "op": "shutdown"}
    v}

    Every response echoes the request [id] (null when absent), names the
    [op], and carries either [{"ok": true, "result": ...}] or
    [{"ok": false, "error": {"code": ..., "diagnostics": [...]}}] where
    the diagnostics are exactly the stable-coded objects
    [stardustc run --diag-json] emits.  Cacheable operations add
    ["cached": true|false] — whether the plan cache answered without
    recompiling.

    Protocol failures use the serve code range: a line that is not valid
    JSON is [E1001], a request whose shape is wrong (unknown op, missing
    or ill-typed field) is [E1002], a handler that dies on an unhandled
    exception is [E1003] (with the daemon-side backtrace in the
    diagnostic context when [OCAMLRUNPARAM=b] records one), a connection
    shed at the daemon's [--max-connections] bound is [E1004], a request
    that blows its deadline ([--request-timeout] or a per-request
    ["deadline_ms"] field) is [E1005], a request line longer than
    the daemon's line bound is [E1006], and a deadline-bearing request
    refused because too many earlier runaways are still holding the
    pool's abandoned-domain budget is [E1007] (degraded but honest:
    the daemon never pretends to enforce a deadline it cannot).  None
    of them crash the service. *)

module Json = Stardust_json.Json
module Diag = Stardust_diag.Diag

type op =
  | Ping  (** liveness probe; answers ["pong"] *)
  | Compile  (** lower to Spatial; result carries the requested sections *)
  | Estimate  (** compile + analytic cycle estimate *)
  | Autotune  (** design-space search on the service's worker pool *)
  | Stats  (** per-tensor dataset statistics and fingerprints *)
  | Metrics  (** metrics snapshot + cache counters *)
  | Shutdown  (** answer, then stop the service loop *)

let op_name = function
  | Ping -> "ping"
  | Compile -> "compile"
  | Estimate -> "estimate"
  | Autotune -> "autotune"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

let op_of_string = function
  | "ping" -> Some Ping
  | "compile" -> Some Compile
  | "estimate" -> Some Estimate
  | "autotune" -> Some Autotune
  | "stats" -> Some Stats
  | "metrics" -> Some Metrics
  | "shutdown" -> Some Shutdown
  | _ -> None

(** The problem a request addresses, still textual: either a named paper
    kernel at a scale, or an expression with format bindings and data
    specs (the same [NAME=FMT] / [NAME=DIMS\@DENSITY] grammar as the
    CLI).  Resolution to tensors happens in the service so that a
    resolution failure is an [E1002] response, not a parse failure. *)
type spec = {
  kernel : string option;
  scale : int;  (** random-input scale for kernel mode *)
  expr : string option;
  formats : (string * string) list;
  data : string list;
}

type request = {
  id : Json.t;  (** echoed verbatim in the response; [Null] when absent *)
  request_id : string option;
      (** client-supplied correlation id; the service mints one when
          absent.  Echoed in the response, stamped on every span and
          diagnostic under this request, and keyed in the flight
          recorder. *)
  op : op;
  spec : spec;
  emit : string list;  (** compile sections: subset of cin/code/resources *)
  strategy : string;
      (** autotune search strategy name; resolved (and rejected with
          [E1008]) by the service via {!Workload.strategy_of_string}, so
          the protocol layer stays in sync with the explorer's list *)
  samples : int;
      (** parsed for older clients; no strategy reads it any more *)
  seed : int;  (** parsed for older clients; no strategy reads it any more *)
  budget : int;
      (** autotune: cap on full simulator evaluations; 0 = the
          strategy's own default *)
  pmus : int;  (** chip override; 0 = default *)
  pcus : int;  (** chip override; 0 = default *)
  dram : string;  (** hbm2e | ddr4 | ideal *)
  volatile : bool;  (** metrics: include volatile series *)
  deadline_ms : int;  (** per-request deadline; 0 = the daemon's default *)
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let bad fmt = Diag.error ~stage:Diag.Serve ~code:Diag.code_serve_request fmt

exception Invalid of Diag.t

let invalid fmt = Fmt.kstr (fun m -> raise (Invalid (bad "%s" m))) fmt

(** [parse_line s] is the JSON value of one request line, or the [E1001]
    diagnostic for a line that is not JSON (with the failing offset as
    its span, so clients can caret it). *)
let parse_line s : (Json.t, Diag.t list) result =
  match Json.parse s with
  | j -> Ok j
  | exception Json.Parse_error (msg, pos) ->
      Error
        [
          Diag.error ~stage:Diag.Serve ~code:Diag.code_serve_parse
            ~span:{ Diag.start = pos; stop = pos + 1 }
            "request line is not valid JSON: %s" msg;
        ]

(** Request [id]s must be null, a number, or a string — anything the
    client can correlate on; structured ids are rejected so responses
    stay greppable. *)
let id_of j =
  match j with
  | Json.Obj fields -> (
      match List.assoc_opt "id" fields with
      | Some (Json.(Null | Num _ | Str _) as id) -> id
      | Some _ | None -> Json.Null)
  | _ -> Json.Null

(* Correlation ids must stay greppable in NDJSON output, safe inside a
   [/debug/trace?id=...] query string, and bounded: printable ASCII, no
   spaces or quotes, at most 128 bytes. *)
let valid_request_id s =
  let n = String.length s in
  n >= 1 && n <= 128
  && String.for_all
       (fun c ->
         let code = Char.code c in
         code > 0x20 && code < 0x7f && c <> '"' && c <> '\\')
       s

(** Lenient extraction of a client-supplied correlation id, usable even
    when the request's shape is otherwise invalid (so an [E1002]
    response can still echo the id the client sent). *)
let request_id_of j =
  match j with
  | Json.Obj fields -> (
      match List.assoc_opt "request_id" fields with
      | Some (Json.Str s) when valid_request_id s -> Some s
      | _ -> None)
  | _ -> None

let str_field obj name ~default =
  match List.assoc_opt name obj with
  | None -> default
  | Some (Json.Str s) -> s
  | Some _ -> invalid "field %S must be a string" name

let opt_str_field obj name =
  match List.assoc_opt name obj with
  | None | Some Json.Null -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> invalid "field %S must be a string" name

let int_field obj name ~default =
  match List.assoc_opt name obj with
  | None -> default
  | Some (Json.Num f) when Float.is_integer f -> int_of_float f
  | Some _ -> invalid "field %S must be an integer" name

let bool_field obj name ~default =
  match List.assoc_opt name obj with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> invalid "field %S must be a boolean" name

let str_list_field obj name ~default =
  match List.assoc_opt name obj with
  | None -> default
  | Some (Json.Arr items) ->
      List.map
        (function
          | Json.Str s -> s
          | _ -> invalid "field %S must be an array of strings" name)
        items
  | Some _ -> invalid "field %S must be an array of strings" name

let str_obj_field obj name =
  match List.assoc_opt name obj with
  | None -> []
  | Some (Json.Obj fields) ->
      List.map
        (fun (k, v) ->
          match v with
          | Json.Str s -> (k, s)
          | _ -> invalid "field %S must map names to strings" name)
        fields
  | Some _ -> invalid "field %S must be an object" name

let enum_field obj name ~default ~allowed =
  let v = str_field obj name ~default in
  if List.mem v allowed then v
  else
    invalid "field %S must be one of %s" name (String.concat "/" allowed)

let all_sections = [ "cin"; "code"; "resources" ]

(** [request_of_json j] validates one request object.  Shape errors are
    [E1002] diagnostics; field values that need the tensor layer (format
    names, data specs, kernel names) are validated later by the service
    under the same code. *)
let request_of_json (j : Json.t) : (request, Diag.t list) result =
  try
    let obj =
      match j with
      | Json.Obj fields -> fields
      | _ -> invalid "request must be a JSON object"
    in
    let op =
      match opt_str_field obj "op" with
      | None -> invalid "request needs an \"op\" field"
      | Some name -> (
          match op_of_string name with
          | Some op -> op
          | None ->
              invalid "unknown op %S (try ping/compile/estimate/autotune/stats/metrics/shutdown)"
                name)
    in
    let emit = str_list_field obj "emit" ~default:[ "code"; "resources" ] in
    List.iter
      (fun s ->
        if not (List.mem s all_sections) then
          invalid "unknown emit section %S (try cin/code/resources)" s)
      emit;
    let request_id =
      match List.assoc_opt "request_id" obj with
      | None | Some Json.Null -> None
      | Some (Json.Str s) ->
          if valid_request_id s then Some s
          else
            invalid
              "field \"request_id\" must be 1-128 printable ASCII characters \
               (no spaces, quotes, or backslashes)"
      | Some _ -> invalid "field \"request_id\" must be a string"
    in
    Ok
      {
        id = id_of j;
        request_id;
        op;
        spec =
          {
            kernel = opt_str_field obj "kernel";
            scale = int_field obj "n" ~default:32;
            expr = opt_str_field obj "expr";
            formats = str_obj_field obj "formats";
            data = str_list_field obj "data" ~default:[];
          };
        emit;
        strategy = str_field obj "strategy" ~default:"grid";
        samples = int_field obj "samples" ~default:64;
        seed = int_field obj "seed" ~default:42;
        budget =
          (let b = int_field obj "budget" ~default:0 in
           if b < 0 then invalid "field \"budget\" must be >= 0" else b);
        pmus = int_field obj "pmus" ~default:0;
        pcus = int_field obj "pcus" ~default:0;
        dram =
          enum_field obj "dram" ~default:"hbm2e"
            ~allowed:[ "hbm2e"; "ddr4"; "ideal" ];
        volatile = bool_field obj "volatile" ~default:false;
        deadline_ms =
          (let d = int_field obj "deadline_ms" ~default:0 in
           if d < 0 then invalid "field \"deadline_ms\" must be >= 0" else d);
      }
  with Invalid d -> Error [ d ]

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok_body result = Json.Obj [ ("ok", Json.Bool true); ("result", result) ]

let error_body ds =
  let code =
    match List.find_opt Diag.is_error ds with
    | Some d -> d.Diag.code
    | None -> Diag.code_serve_internal
  in
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("code", Json.Str code);
            (* the same objects the CLI's [--diag-json] prints *)
            ("diagnostics", Json.Arr (List.map Diag.json ds));
          ] );
    ]

(** Wrap a body ([ok_body] or [error_body]) into the response envelope:
    [id] first, then [op], then — for cacheable operations — whether the
    plan cache answered.  The correlation [request_id] (client-supplied
    or service-minted) rides last, so the historical field prefix
    clients and CI grep on is unchanged. *)
let envelope ~id ~op ?cached ?request_id body =
  let fields =
    match body with
    | Json.Obj fields -> fields
    | j -> [ ("ok", Json.Bool true); ("result", j) ]
  in
  let cached_field =
    match cached with None -> [] | Some c -> [ ("cached", Json.Bool c) ]
  in
  let rid_field =
    match request_id with
    | None -> []
    | Some r -> [ ("request_id", Json.Str r) ]
  in
  Json.Obj
    ((("id", id) :: ("op", Json.Str op) :: cached_field) @ fields @ rid_field)

(** The one-line answer a connection shed at the daemon's connection
    bound receives before its socket closes: a stable [E1004] so clients
    can tell overload (retry later) from a malformed request (don't). *)
let overloaded_response ~max_connections =
  envelope ~id:Json.Null ~op:"overloaded"
    (error_body
       [
         Diag.error ~stage:Diag.Serve ~code:Diag.code_serve_overloaded
           ~context:[ ("max_connections", string_of_int max_connections) ]
           "daemon at its connection bound; request shed, retry later";
       ])

(** [E1005] body for a request that blew through its deadline: the
    computation has been abandoned on the pool's timeout machinery
    ([E0905] — the runaway domain is parked, the daemon keeps serving). *)
let deadline_body ~seconds =
  error_body
    [
      Diag.error ~stage:Diag.Serve ~code:Diag.code_serve_deadline
        ~context:
          [
            ("deadline_s", Fmt.str "%g" seconds);
            ("pool_timeout_code", Diag.code_worker_timeout);
          ]
        "request exceeded its deadline and was abandoned";
    ]

(** [E1007] body for a deadline-bearing request refused because the
    daemon's abandoned-domain budget is spent: too many earlier requests
    blew their deadlines and their runaway computations are still
    holding domain slots, so enforcing a new deadline is impossible and
    running without one would be a silent lie.  The context carries the
    live runaway count; the budget self-heals as runaways finish (the
    pool reaps them), so clients may retry later or resend without a
    deadline. *)
let deadline_unenforceable_body ~abandoned =
  error_body
    [
      Diag.error ~stage:Diag.Serve ~code:Diag.code_serve_degraded
        ~context:[ ("abandoned_domains", string_of_int abandoned) ]
        "deadline enforcement unavailable: the daemon's abandoned-request \
         budget is spent; retry later or without a deadline";
    ]

(** [E1006] body for a request line past the daemon's length bound (the
    offending prefix has been drained, the connection stays usable). *)
let line_too_long_body ~limit =
  error_body
    [
      Diag.error ~stage:Diag.Serve ~code:Diag.code_serve_line_too_long
        ~context:[ ("max_line_bytes", string_of_int limit) ]
        "request line exceeds the daemon's line-length bound";
    ]
