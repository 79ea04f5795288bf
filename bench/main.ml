(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation:

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table6     # one artifact
     dune exec bench/main.exe -- list    # available artifacts

   Capstan numbers come from the analytic simulator (exact work tallies
   derived from the real generated datasets); CPU/GPU numbers from the
   calibrated analytic baseline models.  See EXPERIMENTS.md for
   paper-vs-measured discussion. *)

let artifacts =
  [
    ("table3", ("Table 3: input vs generated lines of code", Tables.table3));
    ("table4", ("Table 4: datasets", Tables.table4));
    ("table5", ("Table 5: Capstan resource usage", Tables.table5));
    ("table6", ("Table 6: normalized runtimes", fun () -> Tables.table6 ()));
    ("fig12", ("Figure 12: memory bandwidth sweep", Tables.fig12));
    ("fig13", ("Figure 13: per-kernel speedups", Tables.fig13));
    ("case_spmv", ("Section 8.3: SpMV case study", Tables.case_spmv));
    ("longtail", ("Long-tail kernels beyond the paper's suite", Tables.longtail));
    ("ablations", ("Ablations: sparse lanes, bit-vector stream, gather staging, scheduling", Ablations.run));
    ("autotune", ("Design-space exploration: best point per kernel, pool scaling", Autotune.run));
    ( "estimate-throughput",
      ( "Oracle throughput: compile+estimate points/sec, stats cache on/off",
        Throughput.run ) );
    ( "search-efficiency",
      ( "Budgeted autotune strategies vs exhaustive: frontier exactness \
         and evaluation counts",
        Search_efficiency.run ) );
    ( "serve-throughput",
      ( "Compile service: requests/sec and p50/p99 latency at 1-16 clients",
        Serve_bench.run ) );
    ( "ingest-throughput",
      ( "Dataset ingestion: streaming-reader MB/s and out-of-core tile plans",
        Ingest_bench.run ) );
    ( "serve-soak",
      ( "Compile service: chaos soak over a live socket (informational)",
        Serve_bench.soak ) );
    ( "serve-http",
      ( "Observability plane: flight-recorder occupancy and scrape timing",
        Serve_bench.run_http ) );
  ]

(* "a,b,c" -> ["a"; "b"; "c"] *)
let split_kernels s =
  List.filter (fun x -> x <> "") (String.split_on_char ',' s)

let usage_suite () =
  Fmt.epr
    "usage: bench suite --json PATH [--kernels a,b,c] [--sections \
     kernels,throughput,serve,ingest,search-efficiency,serve-http]@.       \
     bench perf-diff [--sections ...] BASELINE NEW@.";
  exit 2

(* suite --json PATH [--kernels a,b,c] [--sections a,b]: machine-readable
   per-kernel numbers for CI's perf-smoke diff; --sections restricts the
   document (and the diff) to named sections, so the serve-smoke job can
   regenerate and pin just the serve counters without re-running the
   whole kernel suite *)
let rec suite_json_cli ?json ?(kernels = []) ?sections = function
  | "--json" :: path :: rest -> suite_json_cli ~json:path ~kernels ?sections rest
  | "--kernels" :: ks :: rest ->
      suite_json_cli ?json ~kernels:(kernels @ split_kernels ks) ?sections rest
  | "--sections" :: ss :: rest ->
      suite_json_cli ?json ~kernels ~sections:(split_kernels ss) rest
  | [] -> (
      match json with
      | Some path -> Report.suite_json ~kernels ?sections ~path ()
      | None -> usage_suite ())
  | _ -> usage_suite ()

let rec perf_diff_cli ?sections = function
  | "--sections" :: ss :: rest -> perf_diff_cli ~sections:(split_kernels ss) rest
  | [ base; fresh ] ->
      exit (if Report.perf_diff ?sections base fresh > 0 then 1 else 0)
  | _ -> usage_suite ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "list" ] ->
      List.iter (fun (k, (d, _)) -> Fmt.pr "%-10s %s@." k d) artifacts
  | [ "code"; kernel ] -> Tables.listing kernel
  | "suite" :: rest -> suite_json_cli rest
  | "perf-diff" :: rest -> perf_diff_cli rest
  | [] ->
      (* default: every artifact *)
      List.iter (fun (_, (_, f)) -> f ()) artifacts
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n artifacts with
          | Some (_, f) -> f ()
          | None ->
              Fmt.epr "unknown artifact %s (try: list)@." n;
              exit 1)
        names
