(* stardustc — the Stardust compiler driver.

   Compile sparse tensor algebra to Capstan from the command line:

     stardustc list
     stardustc kernel sddmm --code --resources --simulate
     stardustc compile -e "y(i) = A(i,j) * x(j)" \
         -f A=csr -f x=dv -f y=dv  -d A=64x64@0.05 -d x=64 \
         --code --simulate --cpu

   Random input data is generated deterministically from the -d specs;
   named kernels ship with paper-shaped defaults. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Cin = Stardust_ir.Cin
module S = Stardust_schedule.Schedule
module C = Stardust_core.Compile
module K = Stardust_core.Kernels
module Pipeline = Stardust_core.Pipeline
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module Dram = Stardust_capstan.Dram
module Resources = Stardust_capstan.Resources
module Imp = Stardust_vonneumann.Imp_interp
module Diag = Stardust_diag.Diag
module Json = Stardust_json.Json
module Fallback = Stardust_driver.Fallback
module D = Stardust_workloads.Datasets
module Explore = Stardust_explore.Explore
module Fuzz = Stardust_oracle.Fuzz
module Ocorpus = Stardust_oracle.Corpus
module Orunner = Stardust_oracle.Runner
module Ocase = Stardust_oracle.Case
module Space = Stardust_explore.Space
module Point = Stardust_explore.Point
module Eval = Stardust_explore.Eval
module Trace = Stardust_obs.Trace
module Metrics = Stardust_obs.Metrics
module Profile = Stardust_obs.Profile
open Cmdliner

(* --trace FILE: record spans for the whole command and write a Chrome
   trace_event file on exit.  Saving via [at_exit] survives the [exit]
   calls the subcommands use for their status codes. *)
let trace_flag =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace_event file of the run (open in \
                 chrome://tracing or Perfetto).")

let start_tracing = function
  | None -> ()
  | Some path ->
      Trace.start ();
      at_exit (fun () -> Trace.save path)

(* --no-stats-cache: escape hatch around the process-wide dataset-
   statistics cache (every estimate recomputes from the raw tensors).
   Caching is behavior-invariant, so this only trades speed for memory —
   useful for isolating suspected cache bugs and for measuring the
   uncached baseline. *)
let no_stats_cache_flag =
  Arg.(value & flag
       & info [ "no-stats-cache" ]
           ~doc:"Disable the process-wide dataset-statistics cache \
                 (recompute statistics for every estimate).")

let apply_stats_cache no_cache =
  if no_cache then Stardust_tensor.Stats_cache.set_enabled false

(* Input construction (format names, "A=8x8@0.3" data specs, the
   paper-shaped random inputs for a named kernel stage) is shared with
   the compile service: one grammar, one seeding discipline, so a CLI
   invocation and a serve request over the same spec build the same
   tensors — and therefore the same plan-cache fingerprint. *)
module W = Stardust_serve.Workload
module Ingest = Stardust_ingest.Ingest
module Ingest_fuzz = Stardust_ingest.Ingest_fuzz

let stage_random_inputs = W.stage_random_inputs

(* Every stage's random inputs: they are seeded by tensor name, so each
   stage sees the tensors it would get on its own. *)
let kernel_random_inputs (spec : K.spec) n =
  List.concat_map (fun st -> stage_random_inputs st n) spec.K.stages

(* Real-dataset ingestion flags, shared by every command that accepts -d
   specs: "NAME=@PATH" file specs resolve inside the --data-root sandbox
   and stream through Stardust_ingest under the hard budgets. *)
let data_root_flag =
  Arg.(value & opt (some string) None
       & info [ "data-root" ] ~docv:"DIR"
           ~doc:"Sandbox directory for $(b,NAME=@PATH) file data specs; \
                 file specs are refused without it, and may not be \
                 absolute or traverse with \"..\".")

let max_nnz_flag =
  Arg.(value & opt int 0
       & info [ "max-nnz" ] ~docv:"N"
           ~doc:"Refuse ingested files with more than $(docv) entries \
                 (0 = unlimited); exceeding it is a stable E0214.")

let max_ingest_bytes_flag =
  Arg.(value & opt int 0
       & info [ "max-ingest-bytes" ] ~docv:"BYTES"
           ~doc:"Refuse reading more than $(docv) bytes per ingested file \
                 (0 = unlimited); exceeding it is a stable E0214.")

let budget_of max_nnz max_bytes =
  Ingest.budget
    ?max_nnz:(if max_nnz > 0 then Some max_nnz else None)
    ?max_bytes:(if max_bytes > 0 then Some max_bytes else None)
    ()

let data_doc =
  "Input data spec: random, e.g. A=64x64@0.05 or x=64, or a real \
   dataset file under $(b,--data-root), e.g. A=@bcsstk.mtx."

(* ------------------------------------------------------------------ *)
(* Output sections                                                      *)
(* ------------------------------------------------------------------ *)

let report_compiled ?(dot = false) ~cin ~code ~resources ~simulate ~estimate
    ~cpu (compiled : C.compiled) =
  if dot then
    Fmt.pr "%s@." (Stardust_spatial.Dotgraph.of_program compiled.C.program);
  if cin then
    Fmt.pr "=== Concrete index notation ===@.%a@.@." Cin.pp
      (S.stmt compiled.C.schedule);
  if code then Fmt.pr "=== Spatial ===@.%s@.@." (C.spatial_code compiled);
  if resources then
    Fmt.pr "=== Capstan resources ===@.%a@.@." Resources.pp
      (Resources.count Arch.default compiled);
  if cpu then begin
    let _, _, func = Imp.run compiled.C.plan ~inputs:compiled.C.inputs in
    Fmt.pr "=== TACO-style C (CPU baseline) ===@.%s@.@."
      (Stardust_vonneumann.Imperative_ir.to_string func)
  end;
  if simulate then begin
    let results, report = Sim.execute compiled in
    List.iter (fun (name, t) -> Fmt.pr "=== Result %s ===@.%a@." name T.pp t) results;
    Fmt.pr "simulated: %.0f cycles (%.3f us), %.0f B DRAM traffic@.@."
      report.Sim.cycles (report.Sim.seconds *. 1e6) report.Sim.streamed_bytes
  end;
  if estimate then
    List.iter
      (fun (name, config) ->
        let r = Sim.estimate ~config compiled in
        Fmt.pr "%-18s %12.0f cycles  %10.3f us@." name r.Sim.cycles
          (r.Sim.seconds *. 1e6))
      [ ("Capstan (HBM2E)", Sim.default_config);
        ("Capstan (DDR4)", { Sim.arch = Arch.default; dram = Dram.ddr4 });
        ("Capstan (ideal)", Sim.ideal_config) ]

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)
(* ------------------------------------------------------------------ *)

let flag_cin = Arg.(value & flag & info [ "cin" ] ~doc:"Print the scheduled CIN.")
let flag_code = Arg.(value & flag & info [ "code" ] ~doc:"Print the generated Spatial code.")
let flag_res = Arg.(value & flag & info [ "resources" ] ~doc:"Print Capstan resource usage.")
let flag_sim = Arg.(value & flag & info [ "simulate" ] ~doc:"Functionally simulate and print results.")
let flag_est = Arg.(value & flag & info [ "estimate" ] ~doc:"Print analytic cycle estimates per memory system.")
let flag_cpu = Arg.(value & flag & info [ "cpu" ] ~doc:"Print the TACO-style C the CPU baseline path generates.")
let flag_dot = Arg.(value & flag & info [ "dot" ] ~doc:"Print the dataflow graph in Graphviz DOT form.")

let list_cmd =
  let run () =
    Fmt.pr "Paper kernels (stardustc kernel NAME):@.";
    List.iter
      (fun (spec : K.spec) ->
        Fmt.pr "  %-12s %s@." (String.lowercase_ascii spec.K.kname)
          spec.K.paper_expr)
      K.all;
    Fmt.pr "@.Formats (for -f NAME=FMT): csr csc dv sv rm cm csf2 csf3 ucc scalar@."
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in paper kernels and formats.")
    Term.(const run $ const ())

let kernel_cmd =
  let kname_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL") in
  let scale =
    Arg.(value & opt int 32 & info [ "n" ] ~doc:"Scale of the random inputs.")
  in
  let run name scale cin code res sim est cpu dot =
    match K.find name with
    | None ->
        Fmt.epr "unknown kernel %s (try: stardustc list)@." name;
        exit 1
    | Some spec ->
        ignore
          (Pipeline.run spec ~inputs:(kernel_random_inputs spec scale)
             (fun st ~inputs ->
               Fmt.pr "--- stage: %s ---@." st.K.expr;
               let compiled = K.compile_stage spec st ~inputs in
               report_compiled ~dot ~cin ~code ~resources:res ~simulate:sim
                 ~estimate:est ~cpu compiled;
               ((), if sim then fst (Sim.execute compiled) else []))
            : unit list)
  in
  Cmd.v
    (Cmd.info "kernel"
       ~doc:"Compile one of the paper's kernels on synthetic data.")
    Term.(const run $ kname_arg $ scale $ flag_cin $ flag_code $ flag_res
          $ flag_sim $ flag_est $ flag_cpu $ flag_dot)

let compile_cmd =
  let expr =
    Arg.(required & opt (some string) None
         & info [ "e"; "expr" ] ~docv:"EXPR"
             ~doc:"Index-notation assignment, e.g. \"y(i) = A(i,j) * x(j)\".")
  in
  let formats =
    Arg.(value & opt_all string []
         & info [ "f"; "format" ] ~docv:"NAME=FMT" ~doc:"Tensor format binding.")
  in
  let data =
    Arg.(value & opt_all string []
         & info [ "d"; "data" ] ~docv:"NAME=SPEC" ~doc:data_doc)
  in
  let run expr formats data data_root max_nnz max_bytes cin code res sim est
      cpu dot =
    let formats =
      List.map W.parse_format_binding formats
    in
    let sched = C.schedule_of_string ~formats expr in
    let inputs =
      W.inputs_of_specs ?data_root ~budget:(budget_of max_nnz max_bytes)
        ~formats data
    in
    let compiled = C.compile sched ~inputs in
    let any = cin || code || res || sim || est || cpu || dot in
    report_compiled ~dot ~cin ~code:(code || not any) ~resources:res
      ~simulate:sim ~estimate:est ~cpu compiled
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile an arbitrary index-notation expression to Spatial.")
    Term.(const run $ expr $ formats $ data $ data_root_flag $ max_nnz_flag
          $ max_ingest_bytes_flag $ flag_cin $ flag_code $ flag_res
          $ flag_sim $ flag_est $ flag_cpu $ flag_dot)

(* ------------------------------------------------------------------ *)
(* run: execute with graceful degradation                              *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let kname_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"KERNEL"
             ~doc:"Paper kernel to run (or use -e/-f/-d for an arbitrary \
                   expression).")
  in
  let scale =
    Arg.(value & opt int 32 & info [ "n" ] ~doc:"Scale of the random inputs.")
  in
  let expr =
    Arg.(value & opt (some string) None
         & info [ "e"; "expr" ] ~docv:"EXPR"
             ~doc:"Index-notation assignment to run instead of a named kernel.")
  in
  let formats =
    Arg.(value & opt_all string []
         & info [ "f"; "format" ] ~docv:"NAME=FMT" ~doc:"Tensor format binding.")
  in
  let data =
    Arg.(value & opt_all string []
         & info [ "d"; "data" ] ~docv:"NAME=SPEC" ~doc:data_doc)
  in
  let fallback =
    Arg.(value
         & opt
             (enum
                [ ("none", Fallback.No_fallback);
                  ("retile", Fallback.Retile);
                  ("tiled", Fallback.Tiled);
                  ("cpu", Fallback.Cpu) ])
             Fallback.No_fallback
         & info [ "fallback" ] ~docv:"POLICY"
             ~doc:"Degradation policy when the kernel exceeds chip capacity: \
                   $(b,none) fails with diagnostics, $(b,retile) retries \
                   progressively gentler mappings, $(b,tiled) additionally \
                   permits out-of-core coordinate tiling when the data is \
                   what does not fit, $(b,cpu) additionally falls back to \
                   the von Neumann CPU baseline.")
  in
  let diag_json =
    Arg.(value & flag
         & info [ "diag-json" ]
             ~doc:"Emit all diagnostics as a JSON array on stdout instead of \
                   human-readable text on stderr.")
  in
  let pmus =
    Arg.(value & opt int 0
         & info [ "pmus" ]
             ~doc:"Override the chip's PMU count (0 = default; shrink it to \
                   exercise the capacity fallbacks).")
  in
  let pcus =
    Arg.(value & opt int 0
         & info [ "pcus" ]
             ~doc:"Override the chip's PCU count (0 = default).")
  in
  let watchdog =
    Arg.(value & opt float Sim.default_watchdog
         & info [ "watchdog" ]
             ~doc:"Simulator step budget before the watchdog trips.")
  in
  let run kname scale expr formats data data_root max_nnz max_bytes policy
      diag_json pmus pcus watchdog trace no_stats_cache =
    start_tracing trace;
    apply_stats_cache no_stats_cache;
    let arch =
      let a = Arch.default in
      let a = if pmus > 0 then { a with Arch.num_pmu = pmus } else a in
      if pcus > 0 then { a with Arch.num_pcu = pcus } else a
    in
    let config = { Sim.default_config with Sim.arch } in
    (* Stdout hygiene: with --diag-json, stdout carries only the JSON
       array, so `stardustc run --diag-json | jq` always parses; human
       progress moves to stderr. *)
    let hum_ppf = if diag_json then Fmt.stderr else Fmt.stdout in
    (* every diagnostic the run produces, in emission order *)
    let emitted = ref [] in
    let emit ds = emitted := !emitted @ ds in
    let finish code =
      if diag_json then Fmt.pr "%s@." (Diag.list_to_json !emitted)
      else List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) !emitted;
      exit code
    in
    let run_stage label (cres : (C.compiled, Diag.t list) result) =
      match cres with
      | Error ds ->
          emit ds;
          finish 1
      | Ok compiled -> (
          match Fallback.run ~policy ~config ~watchdog compiled with
          | Error ds ->
              emit ds;
              finish 1
          | Ok o ->
              emit o.Fallback.diags;
              Fmt.pf hum_ppf "%s: ok on %s%a@." label
                (Fallback.backend_name o.Fallback.backend)
                Fmt.(
                  option (fun ppf (r : Sim.report) ->
                      Fmt.pf ppf " (%.0f cycles)" r.Sim.cycles))
                o.Fallback.report;
              List.iter
                (fun (rname, t) ->
                  Fmt.pf hum_ppf "  %s: %d nnz@." rname (T.nnz t))
                o.Fallback.results;
              o.Fallback.results)
    in
    (match (kname, expr) with
    | Some name, None -> (
        match K.find name with
        | None ->
            Fmt.epr "unknown kernel %s (try: stardustc list)@." name;
            exit 1
        | Some spec ->
            ignore
              (Pipeline.run spec ~inputs:(kernel_random_inputs spec scale)
                 (fun st ~inputs ->
                   ( (),
                     run_stage st.K.expr
                       (K.compile_stage_result spec st ~inputs) ))
                : unit list))
    | None, Some e ->
        let formats =
          List.map W.parse_format_binding formats
        in
        (* ingestion failures (malformed files, budgets, sandbox refusals)
           reach --diag-json consumers structurally, like any other stage *)
        let inputs =
          match
            W.inputs_of_specs ?data_root ~budget:(budget_of max_nnz max_bytes)
              ~formats data
          with
          | inputs -> inputs
          | exception Diag.Fail ds ->
              emit ds;
              finish 1
        in
        ignore (run_stage e (C.compile_string_result ~formats ~inputs e))
    | _ ->
        Fmt.epr "run: give a KERNEL name or -e EXPR (not both)@.";
        exit 1);
    finish 0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile and execute a kernel, degrading gracefully (per \
             $(b,--fallback)) when it exceeds chip capacity.")
    Term.(const run $ kname_arg $ scale $ expr $ formats $ data
          $ data_root_flag $ max_nnz_flag $ max_ingest_bytes_flag $ fallback
          $ diag_json $ pmus $ pcus $ watchdog $ trace_flag
          $ no_stats_cache_flag)

let autotune_cmd =
  let kname_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"KERNEL"
             ~doc:"Paper kernel to autotune (or use -e/-f/-d for an \
                   arbitrary expression).")
  in
  let scale =
    Arg.(value & opt int 128 & info [ "n" ] ~doc:"Scale of the random inputs.")
  in
  let expr =
    Arg.(value & opt (some string) None
         & info [ "e"; "expr" ] ~docv:"EXPR"
             ~doc:"Index-notation assignment to autotune instead of a named \
                   kernel.")
  in
  let formats =
    Arg.(value & opt_all string []
         & info [ "f"; "format" ] ~docv:"NAME=FMT" ~doc:"Tensor format binding.")
  in
  let data =
    Arg.(value & opt_all string []
         & info [ "d"; "data" ] ~docv:"NAME=SPEC" ~doc:data_doc)
  in
  let strategy =
    Arg.(value & opt string "grid"
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:"Search strategy: $(b,grid) (alias $(b,exhaustive)) \
                   evaluates every candidate; bound-guided successive \
                   $(b,halving) caps full simulator evaluations at \
                   $(b,--budget).")
  in
  let budget =
    Arg.(value & opt int 0
         & info [ "budget" ] ~docv:"N"
             ~doc:"Maximum number of full simulator evaluations (0 = the \
                   strategy's own default: uncapped for exhaustive).")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ]
             ~doc:"Domain worker pool size (0 = one per available core).")
  in
  let splits =
    Arg.(value & opt (list int) []
         & info [ "splits" ] ~docv:"N,N"
             ~doc:"Also enumerate loop splits at these tile sizes (the \
                   pruning layer rejects what the backend cannot lower).")
  in
  let regions =
    Arg.(value & flag
         & info [ "regions" ]
             ~doc:"Also search the on-chip/off-chip gather-region axis.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the result as JSON on stdout.")
  in
  let run kname scale expr formats data data_root max_nnz max_bytes strategy
      budget workers splits regions json trace no_stats_cache =
    start_tracing trace;
    apply_stats_cache no_stats_cache;
    let problem =
      match (kname, expr) with
      | Some name, None -> (
          match K.find name with
          | None ->
              Fmt.epr "unknown kernel %s (try: stardustc list)@." name;
              exit 1
          | Some spec ->
              let st = List.hd spec.K.stages in
              if List.length spec.K.stages > 1 then
                Fmt.epr
                  "note: %s is multi-stage; autotuning its first stage (%s)@."
                  spec.K.kname st.K.expr;
              let inputs = stage_random_inputs st scale in
              Eval.problem_of_string
                ~name:(String.lowercase_ascii spec.K.kname)
                ~formats:st.K.formats ~inputs st.K.expr)
      | None, Some expr ->
          let formats =
            List.map W.parse_format_binding formats
          in
          let inputs =
            W.inputs_of_specs ?data_root ~budget:(budget_of max_nnz max_bytes)
              ~formats data
          in
          Eval.problem_of_string ~name:"custom" ~formats ~inputs expr
      | _ ->
          Fmt.epr "autotune: give a KERNEL name or -e EXPR (not both)@.";
          exit 1
    in
    let axes =
      Space.default_axes ~arch:Arch.default ~split_factors:splits
        ~gathers:
          (if regions then [ Point.Auto; Point.On_chip; Point.Off_chip ]
           else [ Point.Auto ])
        ~formats:problem.Eval.formats problem.Eval.expr
    in
    let strategy =
      match W.strategy_of_string strategy with
      | Ok s -> s
      | Error msg ->
          Fmt.epr "autotune: %s@." msg;
          exit 1
    in
    let budget = if budget > 0 then Some budget else None in
    let workers = if workers <= 0 then None else Some workers in
    let r = Explore.run ?workers ~strategy ?budget ~axes problem in
    if json then print_endline (Json.to_string (Explore.json r))
    else Fmt.pr "%a" Explore.pp_result r
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:"Search the schedule/format/hardware design space of a kernel \
             and print the Pareto frontier over (cycles, chip resources).")
    Term.(const run $ kname_arg $ scale $ expr $ formats $ data
          $ data_root_flag $ max_nnz_flag $ max_ingest_bytes_flag $ strategy
          $ budget $ workers $ splits $ regions $ json
          $ trace_flag $ no_stats_cache_flag)

(* ------------------------------------------------------------------ *)
(* profile: attributed per-loop cycle trees                            *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let kname_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"KERNEL"
             ~doc:"Paper kernel to profile (or use -e/-f/-d for an \
                   arbitrary expression).")
  in
  let scale =
    Arg.(value & opt int 32 & info [ "n" ] ~doc:"Scale of the random inputs.")
  in
  let expr =
    Arg.(value & opt (some string) None
         & info [ "e"; "expr" ] ~docv:"EXPR"
             ~doc:"Index-notation assignment to profile instead of a named \
                   kernel.")
  in
  let formats =
    Arg.(value & opt_all string []
         & info [ "f"; "format" ] ~docv:"NAME=FMT" ~doc:"Tensor format binding.")
  in
  let data =
    Arg.(value & opt_all string []
         & info [ "d"; "data" ] ~docv:"NAME=SPEC" ~doc:data_doc)
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the profile (and the deterministic metrics \
                   snapshot) as JSON on stdout; nothing else is printed \
                   there.")
  in
  let show_metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Also print the metrics registry in Prometheus text \
                   format.")
  in
  let run kname scale expr formats data data_root max_nnz max_bytes json
      show_metrics trace =
    start_tracing trace;
    (* stage name, compiled form — multi-stage kernels are executed
       stage-by-stage so later stages see real intermediates (their trip
       counts come from the actual tensor statistics) *)
    let stages : (string * C.compiled) list =
      match (kname, expr) with
      | Some name, None -> (
          match K.find name with
          | None ->
              Fmt.epr "unknown kernel %s (try: stardustc list)@." name;
              exit 1
          | Some spec ->
              Pipeline.run spec ~inputs:(kernel_random_inputs spec scale)
                (fun st ~inputs ->
                  let compiled = K.compile_stage spec st ~inputs in
                  ( (st.K.expr, compiled),
                    if List.length spec.K.stages > 1 then
                      fst (Sim.execute compiled)
                    else [] )))
      | None, Some e ->
          let formats =
            List.map W.parse_format_binding formats
          in
          let inputs =
            W.inputs_of_specs ?data_root ~budget:(budget_of max_nnz max_bytes)
              ~formats data
          in
          [ (e, C.compile_string ~formats ~inputs e) ]
      | _ ->
          Fmt.epr "profile: give a KERNEL name or -e EXPR (not both)@.";
          exit 1
    in
    let profiled =
      List.map
        (fun (label, compiled) ->
          let p = Sim.estimate_profiled compiled in
          (label, p))
        stages
    in
    if json then begin
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\"stages\":[";
      List.iteri
        (fun i (label, (p : Sim.profiled)) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "{\"expr\":\"%s\",\"cycles\":%s,\"compute_cycles\":%s,\"dram_cycles\":%s,\"seconds\":%s,\"profile\":%s}"
               (Json.escape label)
               (Json.number_to_string p.Sim.preport.Sim.cycles)
               (Json.number_to_string p.Sim.preport.Sim.compute_cycles)
               (Json.number_to_string p.Sim.preport.Sim.dram_cycles)
               (Json.number_to_string p.Sim.preport.Sim.seconds)
               (Profile.to_json p.Sim.ptree)))
        profiled;
      Buffer.add_string buf "],\"metrics\":";
      Buffer.add_string buf (Metrics.snapshot_json ());
      Buffer.add_char buf '}';
      print_endline (Buffer.contents buf)
    end
    else begin
      List.iter
        (fun (label, (p : Sim.profiled)) ->
          let r = p.Sim.preport in
          Fmt.pr "=== profile: %s ===@.%s@." label
            (Profile.to_string p.Sim.ptree);
          Fmt.pr
            "total: %.0f cycles (%.3f us) — %s-bound (compute %.0f, dram \
             %.0f)@.@."
            r.Sim.cycles (r.Sim.seconds *. 1e6)
            (if r.Sim.compute_cycles >= r.Sim.dram_cycles then "compute"
             else "memory")
            r.Sim.compute_cycles r.Sim.dram_cycles)
        profiled;
      if show_metrics then Fmt.pr "%s" (Metrics.render_text ())
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Attribute a kernel's estimated cycles to its loop nest: \
             per-loop compute/DRAM breakdown with shares of the kernel \
             total, from the same analytic model the benchmarks use.")
    Term.(const run $ kname_arg $ scale $ expr $ formats $ data
          $ data_root_flag $ max_nnz_flag $ max_ingest_bytes_flag $ json
          $ show_metrics $ trace_flag)

(* ------------------------------------------------------------------ *)
(* serve: the persistent compile service                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve NDJSON requests on a Unix-domain socket at $(docv) \
                   instead of stdin/stdout.")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ]
             ~doc:"Domain worker pool size (0 = one per available core); \
                   request batches and autotune searches fan out on it.")
  in
  let plan_cap =
    Arg.(value & opt int Stardust_serve.Plan_cache.default_capacity
         & info [ "plan-cache-capacity" ] ~docv:"N"
             ~doc:"LRU bound on cached plans (compiled results, estimates, \
                   autotune frontiers).")
  in
  let stats_cap =
    Arg.(value & opt int 0
         & info [ "stats-cache-capacity" ] ~docv:"N"
             ~doc:"LRU bound on the dataset-statistics cache (0 = default).")
  in
  let max_conns =
    Arg.(value & opt int Stardust_serve.Server.default_max_connections
         & info [ "max-connections" ] ~docv:"N"
             ~doc:"Concurrent connection bound for $(b,--socket) mode; \
                   connections beyond it are shed with a one-line stable \
                   E1004 response instead of queuing.")
  in
  let request_timeout =
    Arg.(value & opt float 0.0
         & info [ "request-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request deadline (0 = none): a request that blows \
                   it is abandoned and answered with E1005 while the \
                   daemon keeps serving.  Requests may tighten it with a \
                   $(i,deadline_ms) field.  If too many abandoned \
                   runaways are still live, deadline-bearing requests \
                   are refused with E1007 until the pool reaps them.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Spill the plan cache to $(docv) (content-addressed, \
                   atomically written) and warm-start from it on boot: a \
                   restarted daemon answers repeats from disk \
                   bit-identically.  Corrupt entries are skipped with a \
                   W0104 warning.")
  in
  let max_line_bytes =
    Arg.(value & opt int Stardust_serve.Server.default_max_line_bytes
         & info [ "max-line-bytes" ] ~docv:"BYTES"
             ~doc:"Request-line length bound; longer lines are drained \
                   and answered with E1006.")
  in
  let http_addr =
    Arg.(value & opt (some string) None
         & info [ "http" ] ~docv:"ADDR:PORT"
             ~doc:"Also serve the HTTP observability plane on $(docv) \
                   (port 0 binds an ephemeral port): GET /metrics \
                   (Prometheus text), /healthz, /readyz (503 while \
                   draining), /buildinfo, /debug/requests (flight \
                   recorder), /debug/trace?id=REQUEST_ID.  The bound \
                   address is printed on stderr as a machine-parsable \
                   $(i,serve: http listening on HOST:PORT) line.")
  in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Boot the daemon on $(b,--socket), run the chaos \
                   harness against it (well-formed clients concurrent \
                   with garbage/half-line/oversized/slow-loris/\
                   deep-nesting/disconnect adversaries), print the \
                   report and the deterministic metrics snapshot, and \
                   exit non-zero on any failure.")
  in
  let chaos_clients =
    Arg.(value & opt int 4
         & info [ "chaos-clients" ] ~docv:"N"
             ~doc:"Chaos harness: well-formed client threads.")
  in
  let chaos_requests =
    Arg.(value & opt int 25
         & info [ "chaos-requests" ] ~docv:"N"
             ~doc:"Chaos harness: requests per well-formed client.")
  in
  let chaos_seed =
    Arg.(value & opt int 42
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Chaos harness: PRNG seed (same seed, same schedule).")
  in
  let run socket workers plan_cap stats_cap max_conns request_timeout
      cache_dir data_root max_nnz max_bytes max_line_bytes http_addr chaos
      chaos_clients chaos_requests chaos_seed trace no_stats_cache =
    start_tracing trace;
    apply_stats_cache no_stats_cache;
    if stats_cap > 0 then Stardust_tensor.Stats_cache.set_capacity stats_cap;
    let module Serve = Stardust_serve in
    let svc =
      Serve.Service.create
        ?workers:(if workers <= 0 then None else Some workers)
        ~plan_cache_capacity:plan_cap
        ?request_timeout:
          (if request_timeout > 0.0 then Some request_timeout else None)
        ?cache_dir ?data_root
        ~ingest_budget:(budget_of max_nnz max_bytes) ()
    in
    List.iter
      (fun d -> Fmt.epr "%a@." Diag.pp d)
      (Serve.Service.boot_diags svc);
    Serve.Server.install_stop_signals svc;
    (* The observability plane outlives the NDJSON transport's drain: it
       must keep answering /readyz (503) and /metrics while in-flight
       requests finish, so it is stopped last, after the serve loop
       returns. *)
    let http_plane =
      match http_addr with
      | None -> None
      | Some addr -> (
          match Serve.Http.start ~version:"1.0.0" ~service:svc addr with
          | Ok plane ->
              Fmt.epr "serve: http listening on %s@."
                (Serve.Http.bound_addr plane);
              Some plane
          | Error msg ->
              Fmt.epr "stardustc serve: %s@." msg;
              Stdlib.exit 2)
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Serve.Http.stop http_plane;
        Serve.Service.shutdown svc)
      (fun () ->
        match (chaos, socket) with
        | true, None ->
            Fmt.epr "stardustc serve: --chaos needs --socket@.";
            Stdlib.exit 2
        | true, Some path ->
            let listener =
              Thread.create
                (fun () ->
                  Serve.Server.serve_unix_socket ~max_connections:max_conns
                    ~max_line_bytes svc path)
                ()
            in
            let cfg =
              {
                (Serve.Chaos.default_config ~socket:path) with
                Serve.Chaos.seed = chaos_seed;
                clients = chaos_clients;
                requests_per_client = chaos_requests;
                max_line_bytes;
              }
            in
            let report = Serve.Chaos.run cfg in
            Fmt.pr "%a@." Serve.Chaos.pp_report report;
            Fmt.pr "%s@." (Metrics.snapshot_json ~deterministic:true ());
            Serve.Service.request_stop svc;
            Thread.join listener;
            if report.Serve.Chaos.failures <> [] then Stdlib.exit 1
        | false, None -> Serve.Server.serve_channels ~max_line_bytes svc stdin stdout
        | false, Some path ->
            Fmt.epr "stardustc serve: listening on %s@." path;
            Serve.Server.serve_unix_socket ~max_connections:max_conns
              ~max_line_bytes svc path)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent compile service: newline-delimited JSON \
             requests (compile/estimate/autotune/stats/metrics) over \
             stdin/stdout or a Unix socket, answered from a \
             content-addressed plan cache with the same stable \
             diagnostic codes as $(b,run --diag-json).  Socket mode \
             serves connections concurrently up to \
             $(b,--max-connections), sheds beyond it, survives client \
             disconnects, honors per-request deadlines, and can persist \
             its plan cache across restarts with $(b,--cache-dir).")
    Term.(const run $ socket $ workers $ plan_cap $ stats_cap $ max_conns
          $ request_timeout $ cache_dir $ data_root_flag $ max_nnz_flag
          $ max_ingest_bytes_flag $ max_line_bytes $ http_addr $ chaos
          $ chaos_clients $ chaos_requests $ chaos_seed $ trace_flag
          $ no_stats_cache_flag)

(* ------------------------------------------------------------------ *)
(* fuzz / replay: the differential-testing oracle                      *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let cases =
    Arg.(value & opt int 100
         & info [ "cases" ] ~doc:"Number of random cases to run.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~doc:"Master PRNG seed (the run is bit-for-bit \
                                 reproducible given the same seed and case \
                                 count).")
  in
  let corpus =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory for minimized failing cases (default: corpus/; \
                   $(b,--no-corpus) disables persistence).")
  in
  let no_corpus =
    Arg.(value & flag
         & info [ "no-corpus" ] ~doc:"Do not persist failing cases.")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ]
             ~doc:"Domain worker pool size (0 = one per available core).")
  in
  let timeout =
    Arg.(value & opt float 10.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-case wall-clock deadline; a case that exceeds it is \
                   abandoned and reported as hung (0 disables).")
  in
  let watchdog =
    Arg.(value & opt float Orunner.default_watchdog
         & info [ "watchdog" ]
             ~doc:"Simulator step budget per backend run.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-case progress.")
  in
  let ingest =
    Arg.(value & flag
         & info [ "ingest" ]
             ~doc:"Fuzz the dataset readers instead of the backends: \
                   byte-wise mutations of well-formed .mtx/.tns files \
                   (plus injected faults) must always land inside the \
                   structured E021x envelope — no raw exceptions, no \
                   leaked file descriptors.")
  in
  let run cases seed corpus no_corpus workers timeout watchdog quiet ingest
      trace no_stats_cache =
    start_tracing trace;
    apply_stats_cache no_stats_cache;
    if ingest then begin
      let stats =
        Ingest_fuzz.run ~cases ~seed
          ~log:(if quiet then ignore else prerr_endline)
          ()
      in
      Fmt.pr "%a@." Ingest_fuzz.pp_stats stats;
      List.iter (Fmt.epr "%s@.") stats.Ingest_fuzz.failures;
      exit (if stats.Ingest_fuzz.failures <> [] then 1 else 0)
    end;
    let cfg =
      {
        Fuzz.default_config with
        Fuzz.cases;
        seed;
        corpus_dir =
          (if no_corpus then None
           else Some (Option.value corpus ~default:Ocorpus.default_dir));
        workers = (if workers <= 0 then None else Some workers);
        case_timeout = (if timeout <= 0.0 then None else Some timeout);
        watchdog;
        log = (if quiet then ignore else prerr_endline);
      }
    in
    let stats = Fuzz.run cfg in
    Fmt.pr "%a@." Fuzz.pp_stats stats;
    List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) stats.Fuzz.diags;
    exit (if stats.Fuzz.failed > 0 || stats.Fuzz.hung > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially test every backend on random sparse tensor \
             algebra: generated cases run through the reference evaluator, \
             both interpreters, the Capstan simulator, and the fallback \
             driver; disagreements are minimized and saved to the corpus.")
    Term.(const run $ cases $ seed $ corpus $ no_corpus $ workers $ timeout
          $ watchdog $ quiet $ ingest $ trace_flag $ no_stats_cache_flag)

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"CASE.json" ~doc:"Corpus entry to re-execute.")
  in
  let watchdog =
    Arg.(value & opt float Orunner.default_watchdog
         & info [ "watchdog" ] ~doc:"Simulator step budget per backend run.")
  in
  let run file watchdog =
    let case = Ocorpus.load file in
    (match Ocorpus.load_verdicts file with
    | [] -> ()
    | vs ->
        Fmt.pr "recorded verdicts:@.";
        List.iter (fun (b, v) -> Fmt.pr "  %-14s %s@." b v) vs;
        Fmt.pr "@.");
    let outcome = Orunner.run_case ~watchdog case in
    Fmt.pr "%a@." Orunner.pp_outcome outcome;
    List.iter
      (fun d -> Fmt.epr "%a@." Diag.pp d)
      (Orunner.diags_of_outcome ~file outcome);
    exit (if outcome.Orunner.failing then 1 else 0)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Deterministically re-execute a saved fuzz case through every \
             backend and report fresh verdicts.")
    Term.(const run $ file_arg $ watchdog)

let () =
  let doc = "the Stardust sparse-tensor-algebra-to-RDA compiler" in
  let group =
    Cmd.group (Cmd.info "stardustc" ~version:"1.0.0" ~doc)
      [ list_cmd; kernel_cmd; compile_cmd; run_cmd; profile_cmd;
        autotune_cmd; serve_cmd; fuzz_cmd; replay_cmd ]
  in
  (* last-resort structured handler: no input may crash the CLI with a raw
     exception; anything the subcommands did not turn into diagnostics
     themselves becomes an E0901 here *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Diag.Fail ds ->
      (* already-structured failures (e.g. ingestion rejects from commands
         without their own --diag-json plumbing) print as themselves *)
      List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) ds;
      exit 1
  | exception e ->
      let d =
        Diag.error ~stage:Diag.Driver ~code:Diag.code_unexpected
          ~context:[ ("exception", Printexc.to_string e) ]
          "stardustc aborted on an unhandled exception"
      in
      Fmt.epr "%a@." Diag.pp d;
      exit 2
