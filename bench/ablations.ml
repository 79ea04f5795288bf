(** Ablation benches for the design choices DESIGN.md calls out.

    Each ablation removes one architectural or compiler mechanism and
    reports the compiled kernels' simulated cycles with and without it:

    - {b sparse vector lanes}: Capstan's vectorized sparse iteration
      (16-wide scanners) vs Plasticine's scalar compressed iteration — the
      architectural delta the paper's Table 6 Plasticine row isolates;
    - {b bit-vector stream width}: the network serialization of packed
      bit-vector streams to the scanner (1 word/cycle) vs an ideal
      full-vector stream — where the ideal-network gains of Figure 12's
      companion rows come from on scan-heavy kernels;
    - {b gather staging}: on-chip sparse-SRAM staging of gathered arrays
      vs direct random DRAM access (forced by shrinking the SRAM budget);
    - {b scheduling}: the paper's workspace+Reduce schedule vs the
      unscheduled canonical loop nest, and vs the auto-scheduler. *)

module T = Stardust_tensor.Tensor
module F = Stardust_tensor.Format
module K = Stardust_core.Kernels
module C = Stardust_core.Compile
module Auto = Stardust_core.Autoschedule
module S = Stardust_schedule.Schedule
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module Dram = Stardust_capstan.Dram
open Suite

let header title =
  Fmt.pr "@.%s@.%s@.%s@." (String.make 100 '=') title (String.make 100 '=')

let hbm arch = { Sim.arch; dram = Dram.hbm2e }

let first_compiled (spec : K.spec) =
  let r = List.hd (run_kernel spec) in
  List.hd r.compiled

(* ------------------------------------------------------------------ *)

let sparse_lanes () =
  header
    "Ablation: sparse vector lanes (Capstan scanners vs scalar compressed \
     iteration)";
  Fmt.pr "%-12s %14s %14s %14s %10s@." "Name" "lanes=1" "lanes=4" "lanes=16"
    "16/1 gain";
  Fmt.pr "%s@." (String.make 70 '-');
  List.iter
    (fun (spec : K.spec) ->
      let compiled = first_compiled spec in
      let cyc lanes =
        (Sim.estimate ~config:(hbm { Arch.default with Arch.sparse_lanes = lanes })
           compiled).Sim.compute_cycles
      in
      let c1 = cyc 1 and c4 = cyc 4 and c16 = cyc 16 in
      Fmt.pr "%-12s %14.0f %14.0f %14.0f %9.1fx@." spec.K.kname c1 c4 c16
        (c1 /. c16))
    K.all

let bv_stream () =
  header "Ablation: bit-vector stream width (scan-heavy kernels)";
  Fmt.pr "%-12s %14s %14s %14s@." "Name" "1 word/cyc" "4 words/cyc" "16 words/cyc";
  Fmt.pr "%s@." (String.make 60 '-');
  List.iter
    (fun name ->
      let spec = Option.get (K.find name) in
      let compiled = first_compiled spec in
      let cyc w =
        (Sim.estimate
           ~config:(hbm { Arch.default with Arch.bv_words_per_cycle = w })
           compiled).Sim.compute_cycles
      in
      Fmt.pr "%-12s %14.0f %14.0f %14.0f@." name (cyc 1.0) (cyc 4.0) (cyc 16.0))
    [ "Plus3"; "InnerProd"; "Plus2" ]

let gather_staging () =
  header "Ablation: on-chip gather staging vs direct sparse-DRAM access";
  Fmt.pr "%-12s %16s %16s %10s@." "Name" "staged (SRAM)" "direct (DRAM)" "gain";
  Fmt.pr "%s@." (String.make 60 '-');
  List.iter
    (fun name ->
      let spec = Option.get (K.find name) in
      let inst = List.hd (instances spec) in
      let st = List.hd spec.K.stages in
      let inputs = Pipeline.stage_inputs st inst.inputs in
      let staged = K.compile_stage spec st ~inputs in
      (* a 16-word budget forces every gathered array off-chip *)
      let direct = K.compile_stage ~sram_budget:16 spec st ~inputs in
      let cyc c = (Sim.estimate c).Sim.cycles in
      Fmt.pr "%-12s %16.0f %16.0f %9.1fx@." name (cyc staged) (cyc direct)
        (cyc direct /. cyc staged))
    [ "SpMV"; "MatTransMul"; "Residual"; "TTV" ]

let scheduling () =
  header "Ablation: scheduled (workspace + Reduce) vs unscheduled vs auto";
  let spec = K.spmv in
  let inst = List.hd (instances spec) in
  let st = List.hd spec.K.stages in
  let inputs = Pipeline.stage_inputs st inst.inputs in
  let scheduled = K.compile_stage spec st ~inputs in
  let unscheduled =
    (* the canonical loop nest with only parallelization factors set *)
    let a = Stardust_ir.Parser.parse_assign st.K.expr in
    let sched = S.of_assign ~formats:st.K.formats a in
    let sched = S.set_environment sched "innerPar" 16 in
    let sched = S.set_environment sched "outerPar" 16 in
    C.compile ~name:"spmv_unscheduled" sched ~inputs
  in
  let auto =
    Auto.compile ~name:"spmv_auto" ~formats:st.K.formats ~inputs st.K.expr
  in
  List.iter
    (fun (name, c) ->
      let r = Sim.estimate c in
      Fmt.pr "%-28s %12.0f cycles  %4d LoC@." name r.Sim.cycles (C.spatial_loc c))
    [ ("paper schedule (Fig. 5)", scheduled);
      ("unscheduled canonical nest", unscheduled);
      ("auto-scheduled", auto) ];
  Fmt.pr "@.(the auto-scheduler reproduces the paper schedule from the@.";
  Fmt.pr " algorithm + formats alone — the 10 -> 6 input-LoC claim of 8.3)@."

let run () =
  sparse_lanes ();
  bv_stream ();
  gather_staging ();
  scheduling ()
