(** Machine-readable benchmark artifacts.

    [suite_json] runs selected kernels of the paper suite and writes one
    JSON document with, per kernel/dataset instance: the per-platform
    model seconds, the deterministic Capstan cycle counters (HBM2E), the
    per-stage resource counts, and the wall-clock the run took.  All
    fields except [wall_seconds] come from analytic models and are
    bit-identical across runs — which is what [perf_diff] relies on to
    catch cost-model regressions in CI.

    [perf_diff] parses two such documents (with the oracle's own JSON
    parser — no new dependencies) and compares every deterministic field
    exactly; wall-clock fields are ignored. *)

module K = Stardust_core.Kernels
module C = Stardust_core.Compile
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module Resources = Stardust_capstan.Resources
module Json = Stardust_json.Json
module Metrics = Stardust_obs.Metrics

let num = Json.number_to_string

let find_specs names =
  match names with
  | [] -> K.all
  | names ->
      List.map
        (fun n ->
          match K.find n with
          | Some s -> s
          | None -> Fmt.failwith "unknown kernel %s (try: bench list)" n)
        names

(** One instance rendered as a JSON object. *)
let instance_json (r : Suite.run) ~wall =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\"kernel\":\"%s\",\"dataset\":\"%s\""
       (Json.escape (String.lowercase_ascii r.Suite.spec.K.kname))
       (Json.escape r.Suite.instance));
  (* per-platform analytic seconds (all deterministic models) *)
  Buffer.add_string buf ",\"platform_seconds\":{";
  List.iteri
    (fun i (p, s) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s"
           (Json.escape (Suite.platform_name p))
           (num s)))
    r.Suite.seconds;
  Buffer.add_char buf '}';
  (* deterministic Capstan (HBM2E) cycle counters, summed over stages *)
  let reports =
    List.map (fun c -> Sim.estimate ~config:Sim.default_config c) r.Suite.compiled
  in
  let sum f = List.fold_left (fun a (x : Sim.report) -> a +. f x) 0.0 reports in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"cycles\":%s,\"compute_cycles\":%s,\"dram_cycles\":%s,\"streamed_bytes\":%s,\"iterations\":%s"
       (num (sum (fun x -> x.Sim.cycles)))
       (num (sum (fun x -> x.Sim.compute_cycles)))
       (num (sum (fun x -> x.Sim.dram_cycles)))
       (num (sum (fun x -> x.Sim.streamed_bytes)))
       (num (sum (fun x -> x.Sim.iterations))));
  (* per-stage resource counts *)
  Buffer.add_string buf ",\"resources\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      let u = Resources.count Arch.default c in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"pcu\":%d,\"pmu\":%d,\"mc\":%d,\"shuffle\":%d,\"limiting\":\"%s\"}"
           u.Resources.pcu u.Resources.pmu u.Resources.mc u.Resources.shuffle
           (Json.escape u.Resources.limiting)))
    r.Suite.compiled;
  Buffer.add_char buf ']';
  (* wall clock: the one non-deterministic field; perf_diff ignores it *)
  Buffer.add_string buf (Printf.sprintf ",\"wall_seconds\":%s}" (num wall));
  Buffer.contents buf

let all_sections =
  [ "kernels"; "throughput"; "serve"; "ingest"; "search-efficiency";
    "serve-http" ]

let suite_json ~kernels ?(sections = all_sections) ~path () =
  List.iter
    (fun s ->
      if not (List.mem s all_sections) then
        Fmt.failwith "unknown suite section %s (try: %s)" s
          (String.concat "/" all_sections))
    sections;
  let want s = List.mem s sections in
  let parts = ref [] in
  let add fragment = parts := fragment :: !parts in
  let instances = ref 0 in
  if want "kernels" then begin
    let specs = find_specs kernels in
    let entries =
      List.concat_map
        (fun (spec : K.spec) ->
          Fmt.epr "bench: %s...@." spec.K.kname;
          List.map
            (fun inst ->
              let t0 = Unix.gettimeofday () in
              let r = Suite.run_instance spec inst in
              instance_json r ~wall:(Unix.gettimeofday () -. t0))
            (Suite.instances spec))
        specs
    in
    instances := List.length entries;
    add ("\"kernels\":[" ^ String.concat "," entries ^ "]")
  end;
  if want "throughput" then begin
    Fmt.epr "bench: estimate-throughput...@.";
    add ("\"throughput\":[" ^ Throughput.rows_json (Throughput.measure ()) ^ "]")
  end;
  if want "serve" then begin
    Fmt.epr "bench: serve-throughput...@.";
    add ("\"serve\":[" ^ Serve_bench.rows_json (Serve_bench.measure ()) ^ "]")
  end;
  if want "ingest" then begin
    Fmt.epr "bench: ingest-throughput...@.";
    add ("\"ingest\":[" ^ Ingest_bench.rows_json (Ingest_bench.measure ()) ^ "]")
  end;
  if want "search-efficiency" then begin
    Fmt.epr "bench: search-efficiency...@.";
    add
      ("\"search-efficiency\":["
      ^ Search_efficiency.rows_json (Search_efficiency.measure ())
      ^ "]")
  end;
  (* serve-http resets the metrics registry for a deterministic scrape,
     so it must run after every section that reads global counters *)
  if want "serve-http" then begin
    Fmt.epr "bench: serve-http...@.";
    add
      ("\"serve-http\":["
      ^ Serve_bench.http_rows_json (Serve_bench.measure_http ())
      ^ "]")
  end;
  let doc =
    "{\"schema\":\"stardust-bench-suite/1\","
    ^ String.concat "," (List.rev !parts)
    ^ "}"
  in
  let oc = open_out path in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Fmt.epr "bench: wrote %s (%d instances, sections %s)@." path !instances
    (String.concat "," sections)

(* ------------------------------------------------------------------ *)
(* perf-diff                                                           *)
(* ------------------------------------------------------------------ *)

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Json.parse s

(** Deterministic scalar fields compared exactly. *)
let det_fields =
  [ "cycles"; "compute_cycles"; "dram_cycles"; "streamed_bytes"; "iterations" ]

let entry_key j =
  Printf.sprintf "%s/%s"
    (Json.to_str (Json.member_exn "kernel" j))
    (Json.to_str (Json.member_exn "dataset" j))

let resources_sig j =
  String.concat ";"
    (List.map
       (fun r ->
         String.concat ","
           (List.map
              (fun f -> num (Json.to_float (Json.member_exn f r)))
              [ "pcu"; "pmu"; "mc"; "shuffle" ]))
       (Json.to_list (Json.member_exn "resources" j)))

(** Compare two suite documents; returns the number of mismatches and
    prints one line per difference.  Wall-clock and platform-seconds
    fields are not compared (seconds are deterministic too, but cycles
    subsume them and integer comparison avoids any float-text concern). *)
let perf_diff ?(sections = all_sections) base_path new_path =
  let base_doc = load base_path and fresh_doc = load new_path in
  let mismatches = ref 0 in
  let complain fmt = Fmt.epr ("perf-diff: " ^^ fmt ^^ "@.") in
  let want s = List.mem s sections in
  if want "kernels" then begin
    let index doc =
      List.map
        (fun e -> (entry_key e, e))
        (Json.to_list (Json.member_exn "kernels" doc))
    in
    let base = index base_doc and fresh = index fresh_doc in
    List.iter
      (fun (k, b) ->
        match List.assoc_opt k fresh with
        | None ->
            incr mismatches;
            complain "%s: present in %s but missing from %s" k base_path
              new_path
        | Some f ->
            List.iter
              (fun field ->
                let vb = Json.to_float (Json.member_exn field b)
                and vf = Json.to_float (Json.member_exn field f) in
                if vb <> vf then begin
                  incr mismatches;
                  complain "%s: %s changed %s -> %s" k field (num vb) (num vf)
                end)
              det_fields;
            let rb = resources_sig b and rf = resources_sig f in
            if rb <> rf then begin
              incr mismatches;
              complain "%s: resources changed %s -> %s" k rb rf
            end)
      base;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k base) then begin
          incr mismatches;
          complain "%s: new instance not in baseline %s" k base_path
        end)
      fresh
  end;
  (* Counter tables — keyed entries whose listed fields are exact
     deterministic counts (wall-clock fields are never compared):
     - throughput: evaluation and stats-cache hit/miss counts
       (sequential, seeded);
     - serve: request and plan-cache counts (single-flight fills make
       them independent of client interleaving). *)
  let diff_counter_section ~section ~key_field ~fields =
    let index doc =
      match Json.member section doc with
      | None -> None
      | Some j ->
          Some
            (List.map
               (fun e ->
                 ( num (Json.to_float (Json.member_exn key_field e)),
                   e ))
               (Json.to_list j))
    in
    match (index base_doc, index fresh_doc) with
    | None, None -> ()
    | Some _, None ->
        incr mismatches;
        complain "%s section missing from %s" section new_path
    | None, Some _ ->
        incr mismatches;
        complain "%s section missing from baseline %s" section base_path
    | Some base_tp, Some fresh_tp ->
        List.iter
          (fun (k, b) ->
            match List.assoc_opt k fresh_tp with
            | None ->
                incr mismatches;
                complain "%s/%s: missing from %s" section k new_path
            | Some f ->
                List.iter
                  (fun field ->
                    let vb = Json.to_float (Json.member_exn field b)
                    and vf = Json.to_float (Json.member_exn field f) in
                    if vb <> vf then begin
                      incr mismatches;
                      complain "%s/%s: %s changed %s -> %s" section k field
                        (num vb) (num vf)
                    end)
                  fields)
          base_tp;
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k base_tp) then begin
              incr mismatches;
              complain "%s/%s: new entry not in baseline %s" section k
                base_path
            end)
          fresh_tp
  in
  (* String-keyed counter tables — like [diff_counter_section] but with
     an entry key built from one or more string fields (e.g. kernel, or
     kernel plus strategy). *)
  let diff_string_keyed_section ~section ~key_of ~fields =
    let index doc =
      match Json.member section doc with
      | None -> None
      | Some j -> Some (List.map (fun e -> (key_of e, e)) (Json.to_list j))
    in
    match (index base_doc, index fresh_doc) with
    | None, None -> ()
    | Some _, None ->
        incr mismatches;
        complain "%s section missing from %s" section new_path
    | None, Some _ ->
        incr mismatches;
        complain "%s section missing from baseline %s" section base_path
    | Some base_tp, Some fresh_tp ->
        List.iter
          (fun (k, b) ->
            match List.assoc_opt k fresh_tp with
            | None ->
                incr mismatches;
                complain "%s/%s: missing from %s" section k new_path
            | Some f ->
                List.iter
                  (fun field ->
                    let vb = Json.to_float (Json.member_exn field b)
                    and vf = Json.to_float (Json.member_exn field f) in
                    if vb <> vf then begin
                      incr mismatches;
                      complain "%s/%s: %s changed %s -> %s" section k field
                        (num vb) (num vf)
                    end)
                  fields)
          base_tp;
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k base_tp) then begin
              incr mismatches;
              complain "%s/%s: new entry not in baseline %s" section k
                base_path
            end)
          fresh_tp
  in
  if want "throughput" then
    (* throughput entries are keyed by kernel name (a string field) *)
    diff_string_keyed_section ~section:"throughput"
      ~key_of:(fun e -> Json.to_str (Json.member_exn "kernel" e))
      ~fields:[ "evaluations"; "cache_hits"; "cache_misses" ];
  if want "search-efficiency" then
    (* one entry per kernel/strategy pair; every field but wall-clock is
       deterministic, so the frontier-exactness bit and the evaluation
       budget of halving are pinned by CI *)
    diff_string_keyed_section ~section:"search-efficiency"
      ~key_of:(fun e ->
        Json.to_str (Json.member_exn "kernel" e)
        ^ "/"
        ^ Json.to_str (Json.member_exn "strategy" e))
      ~fields:
        [
          "budget"; "candidates"; "full_evals"; "estimates"; "bound_evals";
          "frontier_size"; "frontier_match"; "within_tenth";
        ];
  if want "serve" then
    diff_counter_section ~section:"serve" ~key_field:"clients"
      ~fields:
        [ "requests"; "plan_cache_hits"; "plan_cache_misses" ];
  if want "ingest" then
    (* streaming-reader byte/entry tallies and the out-of-core planner's
       tile counts are pure functions of the seeded generator *)
    diff_counter_section ~section:"ingest" ~key_field:"target_nnz"
      ~fields:[ "entries"; "bytes"; "tiles"; "tile0_cycles" ];
  if want "serve-http" then
    (* the observability plane replays a fixed one-worker script from a
       reset registry: recorder occupancy and the byte length of the
       volatile-free scrape are pure functions of the script *)
    diff_counter_section ~section:"serve-http" ~key_field:"requests"
      ~fields:[ "flight_recorded"; "flight_failed"; "scrape_bytes" ];
  if !mismatches = 0 then
    Fmt.epr "perf-diff: %s and %s agree on every deterministic counter@."
      base_path new_path;
  !mismatches
