(** A process-global metrics registry: named counters, gauges, and
    histograms with optional labels, rendered either as Prometheus
    exposition text ({!render_text}) or as a deterministic JSON snapshot
    ({!snapshot}, printed by {!snapshot_json}).

    {2 Determinism contract}

    Metrics derived from the analytic model (case counts, prune counts,
    simulated-cycle totals) must be bit-identical across runs and across
    worker counts.  Two rules make that hold:

    - snapshots render metrics sorted by (name, labels), so registration
      order — which can vary with domain scheduling — never shows;
    - metrics whose value is wall-clock-derived (busy seconds, queue
      wait, cases/sec) are registered with [~volatile:true] and excluded
      from the deterministic snapshot ({!snapshot_json} with
      [~deterministic:true], the default for tooling that diffs runs).

    Counter increments commute exactly as long as the values involved
    are integers below 2{^53} (float addition of small integers is exact
    in any order), which every deterministic counter in the stack
    respects: they count events, not accumulate measurements.

    All operations are guarded by one registry mutex; handles may be
    shared freely across domains. *)

module Json = Stardust_json.Json

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(** Default histogram buckets: log-spaced seconds, Prometheus style. *)
let default_buckets =
  [ 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 50.0 ]

type hist = {
  bounds : float array;  (** ascending upper bounds *)
  counts : float array;  (** one per bound, plus the +Inf overflow slot *)
  mutable h_sum : float;
  mutable h_count : float;
}

type value = Scalar of float ref | Hist of hist

type t = {
  m_name : string;
  m_labels : (string * string) list;  (** sorted by key *)
  m_help : string;
  m_kind : kind;
  m_volatile : bool;
  m_value : value;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let key name labels =
  name
  ^ String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "|%s=%s" k v) labels)

let register ~kind ~help ~volatile ~labels name mk_value =
  let labels = List.sort compare labels in
  let k = key name labels in
  locked (fun () ->
      match Hashtbl.find_opt registry k with
      | Some m ->
          if m.m_kind <> kind then
            invalid_arg
              (Printf.sprintf "metric %s re-registered as a %s (was a %s)"
                 name (kind_name kind) (kind_name m.m_kind));
          m
      | None ->
          let m =
            {
              m_name = name;
              m_labels = labels;
              m_help = help;
              m_kind = kind;
              m_volatile = volatile;
              m_value = mk_value ();
            }
          in
          Hashtbl.add registry k m;
          m)

(** Monotonically increasing event count. *)
let counter ?(help = "") ?(labels = []) ?(volatile = false) name =
  register ~kind:Counter ~help ~volatile ~labels name (fun () ->
      Scalar (ref 0.0))

(** Point-in-time value (set, not accumulated). *)
let gauge ?(help = "") ?(labels = []) ?(volatile = false) name =
  register ~kind:Gauge ~help ~volatile ~labels name (fun () ->
      Scalar (ref 0.0))

(** Distribution with cumulative buckets. *)
let histogram ?(help = "") ?(labels = []) ?(volatile = false)
    ?(buckets = default_buckets) name =
  let bounds = Array.of_list (List.sort_uniq compare buckets) in
  register ~kind:Histogram ~help ~volatile ~labels name (fun () ->
      Hist
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0.0;
          h_sum = 0.0;
          h_count = 0.0;
        })

let inc ?(by = 1.0) m =
  match m.m_value with
  | Scalar r -> locked (fun () -> r := !r +. by)
  | Hist _ -> invalid_arg "Metrics.inc on a histogram"

let set m v =
  match m.m_value with
  | Scalar r -> locked (fun () -> r := v)
  | Hist _ -> invalid_arg "Metrics.set on a histogram"

let observe m v =
  match m.m_value with
  | Scalar _ -> invalid_arg "Metrics.observe on a counter/gauge"
  | Hist h ->
      locked (fun () ->
          let n = Array.length h.bounds in
          let rec slot i = if i < n && v > h.bounds.(i) then slot (i + 1) else i in
          let i = slot 0 in
          h.counts.(i) <- h.counts.(i) +. 1.0;
          h.h_sum <- h.h_sum +. v;
          h.h_count <- h.h_count +. 1.0)

(** Current value of a counter or gauge. *)
let value m =
  match m.m_value with
  | Scalar r -> locked (fun () -> !r)
  | Hist h -> locked (fun () -> h.h_count)

(** Drop every registered metric (tests and fresh CLI runs). *)
let reset () = locked (fun () -> Hashtbl.reset registry)

let sorted_metrics () =
  let all = locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  List.sort
    (fun a b ->
      match compare a.m_name b.m_name with
      | 0 -> compare a.m_labels b.m_labels
      | c -> c)
    all

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Prometheus text-format escaping (exposition format 0.0.4) draws a
   distinction the first cut of this renderer missed: label *values*
   escape backslash, double-quote, and newline, while HELP text escapes
   only backslash and newline — a quote in HELP is emitted verbatim. *)
let prom_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let help_escape s =
  String.concat ""
    (List.map
       (function
         | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let label_text ?extra labels =
  let labels = match extra with Some kv -> labels @ [ kv ] | None -> labels in
  match labels with
  | [] -> ""
  | l ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) l)
      ^ "}"

(** Prometheus exposition format (one [# HELP]/[# TYPE] header per metric
    family even when labeled series differ, histograms expanded to
    [_bucket]/[_sum]/[_count] with the [+Inf] bucket last).  With
    [~include_volatile:false], wall-clock-derived families are dropped,
    giving a scrape whose byte length is deterministic — the bench
    suite's [serve-http] section pins it. *)
let render_text ?(include_volatile = true) () =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if include_volatile || not m.m_volatile then begin
      if not (Hashtbl.mem seen_header m.m_name) then begin
        Hashtbl.add seen_header m.m_name ();
        if m.m_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" m.m_name (help_escape m.m_help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" m.m_name (kind_name m.m_kind))
      end;
      match m.m_value with
      | Scalar r ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" m.m_name (label_text m.m_labels)
               (Json.number_to_string (locked (fun () -> !r))))
      | Hist h ->
          let bounds, counts, sum, count =
            locked (fun () ->
                (h.bounds, Array.copy h.counts, h.h_sum, h.h_count))
          in
          let cum = ref 0.0 in
          Array.iteri
            (fun i b ->
              cum := !cum +. counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %s\n" m.m_name
                   (label_text ~extra:("le", Json.number_to_string b) m.m_labels)
                   (Json.number_to_string !cum)))
            bounds;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %s\n" m.m_name
               (label_text ~extra:("le", "+Inf") m.m_labels)
               (Json.number_to_string count));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" m.m_name (label_text m.m_labels)
               (Json.number_to_string sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %s\n" m.m_name (label_text m.m_labels)
               (Json.number_to_string count))
      end)
    (sorted_metrics ());
  Buffer.contents buf

(** Snapshot of the registry as a JSON value, sorted by (name, labels).
    With [~deterministic:true] (the default) wall-clock-derived metrics
    (registered [~volatile:true]) are excluded, so the snapshot is
    bit-identical across runs and worker counts. *)
let snapshot ?(deterministic = true) () =
  let nums a = Json.Arr (Array.to_list (Array.map (fun f -> Json.Num f) a)) in
  let metric m =
    let labels =
      match m.m_labels with
      | [] -> []
      | ls ->
          [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)) ]
    in
    let value =
      match m.m_value with
      | Scalar r -> [ ("value", Json.Num (locked (fun () -> !r))) ]
      | Hist h ->
          let bounds, counts, sum, count =
            locked (fun () ->
                (h.bounds, Array.copy h.counts, h.h_sum, h.h_count))
          in
          [
            ("buckets", nums bounds);
            ("counts", nums counts);
            ("sum", Json.Num sum);
            ("count", Json.Num count);
          ]
    in
    Json.Obj
      ([ ("name", Json.Str m.m_name); ("kind", Json.Str (kind_name m.m_kind)) ]
      @ labels @ value)
  in
  let ms =
    List.filter
      (fun m -> not (deterministic && m.m_volatile))
      (sorted_metrics ())
  in
  Json.Obj [ ("metrics", Json.Arr (List.map metric ms)) ]

(** {!snapshot} printed. *)
let snapshot_json ?deterministic () =
  Json.to_string (snapshot ?deterministic ())
