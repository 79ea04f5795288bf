(** perfbench: the repository benchmark.

    [main.exe --workload W --seed N --seconds S --trace 0|1] sets up one
    workload ([tune], [serve] or [ingest]) from the seed, and then

    - with [--trace 0], runs its closed loop for [S] seconds, checks the
      outputs, and reports the end-to-end metrics;
    - with [--trace 1], runs a fixed pass of its ops untraced, then
      twice traced (each layer call re-issued under a span), checks the
      outputs, compares the exact counts of the two traced passes, writes
      the spans, and reports the per-layer metrics.

    Human-readable lines come first; the last line of standard output is
    one JSON object with [correct], [attempted], [failed] and [metrics]. *)

module Stats_cache = Stardust_tensor.Stats_cache

module type WORKLOAD = sig
  type st

  val setup : seed:int -> dir:string -> st
  val teardown : st -> unit
  val measure : st -> seconds:float -> Common.phase
  val first_pass : st -> Common.phase
  val traced_pass : st -> Spans.t -> Common.phase
  val check : st -> Common.phase -> Common.check
end

(* name, implementation, whether its counts must repeat exactly (the
   single-domain workloads) *)
let workloads : (string * (module WORKLOAD) * bool) list =
  [ ("tune", (module Tune_load), true);
    ("serve", (module Serve_load), false);
    ("ingest", (module Ingest_load), true) ]

let setups = 3

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms");
    ("op_tail_ms", "ms"); ("peak_rss_mb", "MB"); ("cycles_geomean", "cycles") ]

let per_layer =
  [ ("schedule.calls", "count"); ("schedule.s", "s"); ("schedule.alloc_words", "words");
    ("plan.calls", "count"); ("plan.s", "s"); ("plan.alloc_words", "words");
    ("lower.calls", "count"); ("lower.s", "s"); ("lower.alloc_words", "words");
    ("lower.ir_nodes", "count");
    ("validate.calls", "count"); ("validate.s", "s"); ("validate.errors", "count");
    ("prune.calls", "count"); ("prune.s", "s"); ("prune.rejected", "count");
    ("estimate.calls", "count"); ("estimate.s", "s"); ("estimate.alloc_words", "words");
    ("bound.calls", "count"); ("bound.s", "s");
    ("stats.hits", "count"); ("stats.misses", "count"); ("stats.hit_share", "share");
    ("stats.fill_s", "s");
    ("search.full_evals", "count"); ("search.estimates", "count");
    ("search.bound_evals", "count"); ("search.frontier_points", "count");
    ("search.driver_s", "s"); ("search.candidates_per_s", "1/s");
    ("protocol.decode_s", "s"); ("protocol.encode_s", "s");
    ("protocol.response_bytes", "bytes");
    ("resolve.s", "s"); ("resolve.self_s", "s"); ("resolve.alloc_words", "words");
    ("key.s", "s");
    ("plan_cache.hits", "count"); ("plan_cache.misses", "count");
    ("plan_cache.evictions", "count"); ("plan_cache.hit_share", "share");
    ("dispatch.compute_s", "s");
    ("transport.s", "s");
    ("ingest.s", "s"); ("ingest.entries", "count"); ("ingest.bytes", "bytes");
    ("ingest.alloc_words", "words"); ("ingest.rejected", "count");
    ("ingest.mb_per_s", "MB/s");
    ("tile.s", "s"); ("tile.tiles", "count");
    ("check.execute_s", "s"); ("check.reference_s", "s"); ("check.mismatches", "count");
    ("gc.alloc_words_per_op", "words"); ("gc.major_collections", "count");
    ("trace.untraced_ops_per_s", "1/s"); ("trace.traced_ops_per_s", "1/s");
    ("trace.overhead_share", "share") ]

(* Counts that repeat exactly across runs of a single-domain workload;
   every other per-layer metric is a timing (or, for the GC's
   collection count, depends on when collections happen). *)
let is_exact name =
  let unit = List.assoc name per_layer in
  (List.mem unit [ "count"; "words"; "bytes" ] || name = "stats.hit_share")
  && name <> "gc.major_collections"
  && not (String.length name > 6 && String.sub name 0 6 = "check.")

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v) unit)
      metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct attempted failed (String.concat "," fields)

let line name value unit note = Printf.printf "  %-26s %16s %-7s %s\n" name (number value) unit note

let print_failures fs =
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) fs

let failed_ops (ph : Common.phase) =
  List.filter_map
    (fun s -> if s.Common.ok then None else Some s.Common.label)
    ph.Common.samples

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let report_end_to_end ~workload ~setup_times (ph : Common.phase) (chk : Common.check) =
  let lat = List.map (fun s -> s.Common.seconds) ph.Common.samples in
  let n = List.length lat in
  let norms =
    List.filter_map (fun s -> if s.Common.ok then Some s.Common.norm else None) ph.Common.samples
  in
  let tail, pct = Common.tail norms in
  let round_norm = Common.sum (List.map snd ph.Common.rounds) in
  let cycles = List.filter_map (fun s -> s.Common.cycles) ph.Common.samples in
  let op_failures = failed_ops ph in
  let attempted = n + chk.Common.checked in
  let failed = List.length op_failures + List.length chk.Common.failures in
  let values =
    [ ("setup_s", Common.median setup_times);
      ( "ops_per_s",
        float_of_int (ph.Common.callers * List.length ph.Common.rounds) /. round_norm );
      ("op_p50_ms", 1000.0 *. Common.median norms);
      ("op_tail_ms", 1000.0 *. tail);
      ("peak_rss_mb", Common.peak_rss_mb ());
      ("cycles_geomean", Common.geomean cycles) ]
  in
  let v name = List.assoc name values in
  line "setup_s" (v "setup_s") "s"
    (Printf.sprintf "median of %d set-ups (normalised): %s" setups
       (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times)));
  Printf.printf
    "  %d ops in %.3f s (%.3f s normalised) from %d closed-loop caller(s); times below \
     are normalised to a %g ms reference\n"
    n ph.Common.wall round_norm ph.Common.callers (1000.0 *. Common.nominal_probe);
  line "ops_per_s" (v "ops_per_s") "1/s"
    (Printf.sprintf "%d rounds of %d op(s) (raw: %.4g ops/s)" (List.length ph.Common.rounds)
       ph.Common.callers (float_of_int n /. ph.Common.wall));
  line "op_p50_ms" (v "op_p50_ms") "ms"
    (Printf.sprintf "p50 of %d samples (raw: %.4g ms)" (List.length norms)
       (1000.0 *. Common.median lat));
  line "op_tail_ms" (v "op_tail_ms") "ms"
    (Printf.sprintf "p%.2f of %d samples, %d beyond it (raw: %.4g ms)" pct (List.length norms)
       (min 10 (max 0 (List.length norms - 1)))
       (1000.0 *. fst (Common.tail lat)));
  line "failed_share"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "share"
    (Printf.sprintf "%d of %d attempted (%d ops, %d output checks)" failed attempted n
       chk.Common.checked);
  line "peak_rss_mb" (v "peak_rss_mb") "MB" "VmHWM of the run";
  line "cycles_geomean" (v "cycles_geomean") "cycles"
    (Printf.sprintf "geometric mean over %d answers" (List.length cycles));
  (match workload with
  | "tune" ->
      line "candidates_per_s"
        (float_of_int ph.Common.candidates /. round_norm)
        "1/s"
        (Printf.sprintf "%d full candidate evaluations" ph.Common.candidates);
      line "best_cycles_geomean" (v "cycles_geomean") "cycles"
        "best point per search (= cycles_geomean)";
      line "searches_without_best"
        (float_of_int (n - List.length cycles))
        "count" "searches that found no feasible point"
  | "ingest" ->
      let bytes = List.fold_left (fun a s -> a + s.Common.bytes) 0 ph.Common.samples in
      line "mb_per_s"
        (float_of_int bytes /. 1048576.0 /. round_norm)
        "MB/s"
        (Printf.sprintf "%d file bytes through the op loop" bytes)
  | _ -> ());
  print_failures (op_failures @ chk.Common.failures);
  let correct = failed = 0 in
  Printf.printf "correct: %b\n" correct;
  result_line ~correct ~attempted ~failed
    (List.map (fun (name, unit) -> (name, unit, v name)) end_to_end)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

type traced = {
  phase : Common.phase;
  spans : Spans.t;
  stats : Stats_cache.counters;  (** deltas over the pass *)
  majors : int;
}

let traced_run (type s) (module M : WORKLOAD with type st = s) (st : s) =
  Stats_cache.reset ();
  let sp = Spans.create () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let phase = M.traced_pass st sp in
  { phase; spans = sp; stats = Stats_cache.counters ();
    majors = (Gc.quick_stat ()).Gc.major_collections - majors0 }

let layer_values ~workload ~(untraced : Common.phase) (chk : Common.check) t =
  let c = Spans.count t.spans in
  let self = Spans.self_times t.spans in
  let self_of name = Option.value ~default:0.0 (List.assoc_opt name self) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let ops = float_of_int (List.length t.phase.Common.samples) in
  let op_busy = Common.sum (List.map (fun s -> s.Common.seconds) t.phase.Common.samples) in
  let hits = float_of_int t.stats.Stats_cache.hits
  and misses = float_of_int t.stats.Stats_cache.misses in
  let pc_hits = c "plan_cache.hits" and pc_misses = c "plan_cache.misses" in
  let untraced_rate = ratio (float_of_int (List.length untraced.Common.samples)) untraced.Common.wall in
  let traced_rate = ratio ops t.phase.Common.wall in
  let derived =
    [ ("stats.hits", hits); ("stats.misses", misses);
      ("stats.hit_share", ratio hits (hits +. misses));
      ("stats.fill_s", t.stats.Stats_cache.fill_seconds);
      ("search.driver_s", if workload = "tune" then self_of "op" else 0.0);
      ("search.candidates_per_s", ratio (float_of_int t.phase.Common.candidates) op_busy);
      ("protocol.decode_s", c "protocol.decode.s");
      ("protocol.encode_s", c "protocol.encode.s");
      ("resolve.self_s", self_of "resolve");
      ("plan_cache.hit_share", ratio pc_hits (pc_hits +. pc_misses));
      ("dispatch.compute_s", c "dispatch.s");
      ("transport.s", if workload = "serve" then self_of "op" else 0.0);
      ("ingest.mb_per_s", ratio (c "ingest.bytes" /. 1048576.0) (c "ingest.s"));
      ("gc.alloc_words_per_op", ratio (c "op.alloc_words") (c "op.calls"));
      ("gc.major_collections", float_of_int t.majors);
      ("trace.untraced_ops_per_s", untraced_rate);
      ("trace.traced_ops_per_s", traced_rate);
      ("trace.overhead_share", ratio (untraced_rate -. traced_rate) untraced_rate) ]
    @ chk.Common.check_layers
  in
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name derived with
        | Some v -> v
        | None -> c name
      in
      (* allocated words are whole numbers; the GC reports them as floats *)
      let v = if unit = "words" then Float.round v else v in
      (name, unit, v))
    per_layer

(* Print the per-layer block of one traced run; returns the values, the
   number of checks attempted and the failures. *)
let report_traced ~workload ~spans_path (untraced : Common.phase) (chk : Common.check) a =
  let va = layer_values ~workload ~untraced chk a in
  Printf.printf "  %-26s %16s %-7s %s\n" "layer metric" "value" "unit" "kind";
  List.iter
    (fun (name, unit, v) ->
      line name v unit
        (if is_exact name then "exact count"
         else if List.mem unit [ "count"; "words"; "bytes" ] then "count"
         else "timing"))
    va;
  Printf.printf "  self time by span:\n";
  List.iter
    (fun (name, s) -> Printf.printf "    %-22s %12.6f s\n" name s)
    (Spans.self_times a.spans);
  Printf.printf "  tracing overhead: traced ops/s is %s below untraced\n"
    (number (List.assoc "trace.overhead_share" (List.map (fun (n, _, v) -> (n, v)) va)));
  Printf.printf "  spans written to %s\n" spans_path;
  let replay =
    match Spans.count a.spans "replay.mismatches" with
    | 0.0 -> []
    | n -> [ Printf.sprintf "%.0f re-issued points disagree with their search's cycles" n ]
  in
  let failures =
    List.concat_map failed_ops [ untraced; a.phase ] @ chk.Common.failures @ replay
  in
  print_failures failures;
  let attempted =
    chk.Common.checked + List.length untraced.Common.samples + List.length a.phase.Common.samples
  in
  (va, attempted, failures)

(* ------------------------------------------------------------------ *)
(* Exact counts across two runs                                        *)
(* ------------------------------------------------------------------ *)

(* OCaml 5's allocation counters depend on the heap's history, so two
   passes in one process disagree by a few per cent; two processes that
   do the same work from the same start agree exactly.  A traced run of
   a single-domain workload therefore runs as two identical child
   processes ("twins") whose exact counts are compared. *)
let run_twin argv =
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "perfbench: a twin run failed");
  match List.rev lines with
  | last :: rest -> (List.rev rest, Stardust_json.Json.parse last)
  | [] -> failwith "perfbench: a twin run printed nothing"

let twin_result j =
  let module Json = Stardust_json.Json in
  let num k = match Json.member k j with Some (Json.Num n) -> int_of_float n | _ -> 0 in
  let metrics =
    List.map
      (fun (name, unit) ->
        match Option.bind (Json.member "metrics" j) (Json.member name) with
        | Some m -> (
            match Json.member "value" m with
            | Some (Json.Num v) -> (name, unit, v)
            | _ -> failwith ("perfbench: twin metric without a value: " ^ name))
        | None -> failwith ("perfbench: twin did not report " ^ name))
      per_layer
  in
  (Json.member "correct" j = Some (Json.Bool true), num "attempted", num "failed", metrics)

let run_twins ~workload ~seed ~seconds ~dir =
  let argv =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; "1"; "--twin"; dir |]
  in
  let lines, j1 = run_twin argv in
  let _, j2 = run_twin argv in
  List.iter
    (fun l -> if not (String.starts_with ~prefix:"correct:" l) then print_endline l)
    lines;
  let _, a1, f1, m1 = twin_result j1 and _, a2, f2, m2 = twin_result j2 in
  let compared = List.filter (fun (n, _) -> is_exact n) per_layer in
  let mismatches =
    List.concat
      (List.map2
         (fun (name, _, x) (_, _, y) ->
           if is_exact name && x <> y then
             [ Printf.sprintf "exact count %s differs between two runs: %s vs %s" name
                 (number x) (number y) ]
           else [])
         m1 m2)
  in
  Printf.printf "  exact counts: %d compared across two runs, %d differ\n"
    (List.length compared) (List.length mismatches);
  print_failures mismatches;
  let failed = f1 + f2 + List.length mismatches in
  Printf.printf "correct: %b\n" (failed = 0);
  result_line ~correct:(failed = 0)
    ~attempted:(a1 + a2 + List.length compared)
    ~failed m1

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let out = Filename.concat "perfbench" "_out"

(* Set up, run and report one workload in this process. *)
let run_here (module M : WORKLOAD) ~workload ~seed ~seconds ~trace ~dir =
  let rec set_up k times =
    let p0 = Common.probe () in
    let st, dt, _ = Common.timed (fun () -> M.setup ~seed ~dir) in
    let dt = dt *. Common.scale p0 (Common.probe ()) in
    if k = 1 then (st, List.rev (dt :: times))
    else begin
      M.teardown st;
      set_up (k - 1) (dt :: times)
    end
  in
  let st, setup_times = set_up setups [] in
  Fun.protect
    ~finally:(fun () -> M.teardown st)
    (fun () ->
      if not trace then begin
        let ph = M.measure st ~seconds in
        let chk = M.check st ph in
        report_end_to_end ~workload ~setup_times ph chk
      end
      else begin
        Stats_cache.reset ();
        let untraced = M.first_pass st in
        let chk = M.check st untraced in
        let a = traced_run (module M) st in
        let spans_path =
          Filename.concat out (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed)
        in
        Spans.write a.spans spans_path;
        let va, attempted, failures = report_traced ~workload ~spans_path untraced chk a in
        let failed = List.length failures in
        Printf.printf "correct: %b\n" (failed = 0);
        result_line ~correct:(failed = 0) ~attempted ~failed va
      end)

let run ~workload ~seed ~seconds ~trace ~twin =
  let m, exact =
    match List.find_opt (fun (n, _, _) -> n = workload) workloads with
    | Some (_, m, e) -> (m, e)
    | None -> failwith ("unknown workload " ^ workload)
  in
  match twin with
  | Some dir -> run_here m ~workload ~seed ~seconds:(float_of_int seconds) ~trace:true ~dir
  | None ->
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let dir = Filename.concat out (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
      Sys.mkdir dir 0o755;
      Fun.protect
        ~finally:(fun () -> remove_tree dir)
        (fun () ->
          Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n%!" workload seed seconds
            (if trace then 1 else 0);
          if trace && exact then run_twins ~workload ~seed ~seconds ~dir
          else run_here m ~workload ~seed ~seconds:(float_of_int seconds) ~trace ~dir)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let twin = ref None in
  let spec =
    [ ("--workload", Arg.Set_string workload, "tune | serve | ingest");
      ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run or traced per-layer run");
      ("--twin", Arg.String (fun d -> twin := Some d), "DIR  (internal) one of a traced run's two child runs") ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if
    (not (List.exists (fun (n, _, _) -> n = !workload) workloads))
    || !seed < 0 || !seconds < 1
    || not (List.mem !trace [ 0; 1 ])
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~twin:!twin
