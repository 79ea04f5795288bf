(** Structured compiler diagnostics.

    Every failure (and every recoverable degradation) in the Stardust stack
    is represented as a {!t}: a severity, the pipeline stage that produced
    it, a stable error code, a human message, an optional source span (the
    expression parser tracks character offsets), and free-form key/value
    context.  Diagnostics render two ways — caret-annotated text for
    terminals ({!render}) and JSON for tooling ({!json}) — and are
    accumulated by a {!Collector} so one compilation can report several
    problems instead of dying at the first.

    This library sits below every other Stardust library (it depends only
    on [fmt] and the dependency-free [stardust_json]) so that any stage
    can produce diagnostics without dependency cycles. *)

module Json = Stardust_json.Json

type severity = Error | Warning | Note

(** Pipeline provenance: which stage of the stack produced the
    diagnostic. *)
type stage =
  | Parse      (** index-notation parsing *)
  | Schedule   (** scheduling-command application *)
  | Plan       (** co-iteration analysis and memory binding *)
  | Lower      (** CIN → Spatial parallel-pattern lowering *)
  | Codegen    (** Spatial program validation / emission *)
  | Simulate   (** Capstan functional simulation or estimation *)
  | Io         (** tensor file input/output *)
  | Ingest     (** streaming dataset ingestion and out-of-core tiling *)
  | Driver     (** host orchestration: compile driver, pipeline, fallback *)
  | Oracle     (** differential-testing oracle: cross-backend fuzzing *)
  | Serve      (** compile service: request protocol and dispatch *)

(** Half-open character range [start, stop) into the source string. *)
type span = { start : int; stop : int }

type t = {
  severity : severity;
  stage : stage;
  code : string;  (** stable machine-readable code, e.g. ["E0301"] *)
  message : string;
  span : span option;
  context : (string * string) list;
      (** extra structured detail, e.g. [("kernel", "spmv")] *)
}

(* ------------------------------------------------------------------ *)
(* Stable error codes                                                  *)
(* ------------------------------------------------------------------ *)

(** Code registry.  Codes are stable across releases: never renumber,
    only append.

    - E01xx parse        — [E0101] syntax error
    - E02xx schedule     — [E0201] scheduling command failed
    - E03xx plan         — [E0301] planning failed
    - E04xx lower        — [E0401] lowering failed
    - E05xx codegen      — [E0501] invalid Spatial program
    - E06xx simulate     — [E0601] runtime fault, [E0602] capacity
                           overflow, [E0603] watchdog expired,
                           [E0604] injected fault surfaced
    - E02xx ingest       — streaming dataset ingestion starts at [E0210]
                           (the E020x block below E0210 belongs to the
                           schedule stage): [E0210] unreadable path,
                           [E0211] missing or truncated header,
                           [E0212] malformed or out-of-range entry,
                           [E0213] duplicate entry, [E0214] resource
                           budget exceeded, [E0215] file truncated before
                           the declared entry count
    - E07xx io           — [E0701] malformed tensor file
    - E08xx oracle       — [E0801] backends disagree on a fuzz case,
                           [E0802] a backend crashed on a fuzz case,
                           [E0803] a backend hung on a fuzz case (timed
                           out or tripped the simulator watchdog)
    - E09xx driver       — [E0901] unexpected exception, [E0902] stage
                           failed in a pipeline, [E0903] kernel infeasible
                           on the target chip, [E0904] internal invariant
                           violated (a bug in Stardust itself), [E0905] a
                           worker-pool task exceeded its deadline
    - E10xx serve        — [E1001] request line is not valid JSON,
                           [E1002] request JSON is malformed (unknown op,
                           missing or ill-typed field), [E1003] a request
                           handler died on an unhandled exception,
                           [E1004] the daemon is at its connection bound
                           and shed the request instead of queuing it,
                           [E1005] the request exceeded its deadline and
                           was abandoned, [E1006] the request line
                           exceeded the daemon's line-length bound,
                           [E1008] an autotune request named an unknown
                           search strategy
    - W01xx degradation  — [W0101] fell back to a retiled schedule,
                           [W0102] fell back to the CPU baseline,
                           [W0103] pipeline stage retried,
                           [W0104] a corrupt plan-cache spill entry was
                           skipped at warm start,
                           [W0105] degraded to out-of-core coordinate
                           tiling *)

let code_parse = "E0101"
let code_schedule = "E0201"
let code_plan = "E0301"
let code_lower = "E0401"
let code_codegen = "E0501"
let code_sim_runtime = "E0601"
let code_sim_capacity = "E0602"
let code_sim_watchdog = "E0603"
let code_sim_fault = "E0604"
let code_io = "E0701"
let code_ingest_unreadable = "E0210"
let code_ingest_header = "E0211"
let code_ingest_entry = "E0212"
let code_ingest_duplicate = "E0213"
let code_ingest_budget = "E0214"
let code_ingest_truncated = "E0215"
let code_oracle_mismatch = "E0801"
let code_oracle_crash = "E0802"
let code_oracle_hang = "E0803"
let code_unexpected = "E0901"
let code_pipeline_stage = "E0902"
let code_infeasible = "E0903"
let code_internal = "E0904"
let code_worker_timeout = "E0905"
let code_serve_parse = "E1001"
let code_serve_request = "E1002"
let code_serve_internal = "E1003"
let code_serve_overloaded = "E1004"
let code_serve_deadline = "E1005"
let code_serve_line_too_long = "E1006"
let code_serve_degraded = "E1007"
let code_serve_strategy = "E1008"
let code_fallback_retile = "W0101"
let code_fallback_cpu = "W0102"
let code_retry = "W0103"
let code_cache_corrupt = "W0104"
let code_fallback_tiled = "W0105"

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let make ?(severity = Error) ?span ?(context = []) ~stage ~code message =
  { severity; stage; code; message; span; context }

let error ?span ?context ~stage ~code fmt =
  Fmt.kstr (fun m -> make ~severity:Error ?span ?context ~stage ~code m) fmt

let warning ?span ?context ~stage ~code fmt =
  Fmt.kstr (fun m -> make ~severity:Warning ?span ?context ~stage ~code m) fmt

let note ?span ?context ~stage ~code fmt =
  Fmt.kstr (fun m -> make ~severity:Note ?span ?context ~stage ~code m) fmt

let is_error d = d.severity = Error

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let stage_name = function
  | Parse -> "parse"
  | Schedule -> "schedule"
  | Plan -> "plan"
  | Lower -> "lower"
  | Codegen -> "codegen"
  | Simulate -> "simulate"
  | Io -> "io"
  | Ingest -> "ingest"
  | Driver -> "driver"
  | Oracle -> "oracle"
  | Serve -> "serve"

(** One-line form: [error[E0301][plan] message (key=value, ...)]. *)
let pp ppf d =
  Fmt.pf ppf "%s[%s][%s] %s" (severity_name d.severity) d.code
    (stage_name d.stage) d.message;
  match d.context with
  | [] -> ()
  | ctx ->
      Fmt.pf ppf " (%a)"
        Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        ctx

let to_string d = Fmt.str "%a" pp d

(** Caret-annotated rendering against the source text the span points
    into.  Multi-line sources are handled by locating the spanned line;
    spans that fall outside [src] degrade to the one-line form. *)
let render ?src ppf d =
  pp ppf d;
  match (d.span, src) with
  | Some { start; stop }, Some src
    when start >= 0 && start <= String.length src ->
      (* find the line containing [start] *)
      let line_start =
        match String.rindex_from_opt src (max 0 (start - 1)) '\n' with
        | Some i -> i + 1
        | None -> 0
      in
      let line_stop =
        match String.index_from_opt src line_start '\n' with
        | Some i -> i
        | None -> String.length src
      in
      let line = String.sub src line_start (line_stop - line_start) in
      let col = start - line_start in
      let width = max 1 (min stop (String.length src) - start) in
      let width = min width (max 1 (String.length line - col + 1)) in
      Fmt.pf ppf "@,  | %s@,  | %s%s" line (String.make col ' ')
        (String.make width '^')
  | _ -> ()

let render_string ?src d = Fmt.str "@[<v>%a@]" (render ?src) d

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

(** The diagnostic as a JSON object: severity, stage, code and message,
    then [span] and [context] when present. *)
let json d =
  Json.Obj
    ([
       ("severity", Json.Str (severity_name d.severity));
       ("stage", Json.Str (stage_name d.stage));
       ("code", Json.Str d.code);
       ("message", Json.Str d.message);
     ]
    @ (match d.span with
      | Some { start; stop } ->
          [
            ( "span",
              Json.Obj [ ("start", Json.int start); ("stop", Json.int stop) ] );
          ]
      | None -> [])
    @
    match d.context with
    | [] -> []
    | ctx ->
        let ctx = List.map (fun (k, v) -> (k, Json.Str v)) ctx in
        [ ("context", Json.Obj ctx) ])

let to_json d = Json.to_string (json d)
let list_to_json ds = Json.to_string (Json.Arr (List.map json ds))

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

(** Accumulates diagnostics in emission order so one run can report many
    problems instead of stopping at the first. *)
module Collector = struct
  type diag = t

  type t = { mutable rev : diag list; mutable errors : int }

  let create () = { rev = []; errors = 0 }

  let add c d =
    c.rev <- d :: c.rev;
    if is_error d then c.errors <- c.errors + 1

  let add_all c ds = List.iter (add c) ds
  let has_errors c = c.errors > 0
  let error_count c = c.errors
  let to_list c = List.rev c.rev
  let is_empty c = c.rev = []
end

(** Carrier exception for code that must abort with diagnostics already in
    hand (the raising shims re-raise through this). *)
exception Fail of t list

let fail ds = raise (Fail ds)
