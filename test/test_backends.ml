(* End-to-end backend tests: for every paper kernel on small data, four
   independent implementations must agree —

     dense reference  =  CIN interpreter  =  Capstan functional sim
                      =  imperative (TACO-style) CPU path

   — and the Capstan analytic estimate must match the functional
   execution's work tallies.  Plus property tests over random expressions
   and inputs. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Ast = Stardust_ir.Ast
module P = Stardust_ir.Parser
module S = Stardust_schedule.Schedule
module C = Stardust_core.Compile
module K = Stardust_core.Kernels
module Sim = Stardust_capstan.Sim
module Ref = Stardust_vonneumann.Reference
module Interp = Stardust_vonneumann.Cin_interp
module Imp = Stardust_vonneumann.Imp_interp
module Cpu_lower = Stardust_vonneumann.Cpu_lower
module Imperative_ir = Stardust_vonneumann.Imperative_ir
module Profile = Stardust_vonneumann.Profile
module D = Stardust_workloads.Datasets

let checkb = Alcotest.check Alcotest.bool
let close a b = T.approx_equal a b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* The four-way agreement check, per kernel                            *)
(* ------------------------------------------------------------------ *)

let run_kernel_stage (spec : K.spec) (st : K.stage) ~inputs =
  let compiled = K.compile_stage spec st ~inputs in
  let assign = P.parse_assign st.K.expr in
  let expected = Ref.eval assign ~inputs ~result_format:st.K.result_format in
  let sched = K.schedule_stage spec st in
  let interp =
    Interp.run sched ~inputs ~result:st.K.result ~result_format:st.K.result_format
  in
  let sim_results, report = Sim.execute compiled in
  let simmed = List.assoc st.K.result sim_results in
  let cpu_results, _tally, _func = Imp.run compiled.C.plan ~inputs in
  let cpu = List.assoc st.K.result cpu_results in
  let est = Sim.estimate compiled in
  (expected, interp, simmed, cpu, report, est)

let kernel_test (spec : K.spec) () =
  let pool = ref (List.assoc spec.K.kname Test_backend_data.small_inputs) in
  List.iter
    (fun (st : K.stage) ->
      let inputs =
        List.filter_map
          (fun (n, _) ->
            if n = st.K.result then None
            else Option.map (fun t -> (n, t)) (List.assoc_opt n !pool))
          st.K.formats
      in
      let expected, interp, simmed, cpu, report, est =
        run_kernel_stage spec st ~inputs
      in
      checkb "interpreter agrees" true (close interp expected);
      checkb "capstan sim agrees" true (close simmed expected);
      checkb "cpu path agrees" true (close cpu expected);
      let rel a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs b) in
      checkb "estimate iterations exact" true
        (rel est.Sim.iterations report.Sim.iterations < 1e-3);
      checkb "estimate compute close" true
        (rel est.Sim.compute_cycles report.Sim.compute_cycles < 0.05);
      checkb "estimate bytes close" true
        (rel est.Sim.streamed_bytes report.Sim.streamed_bytes < 0.05);
      checkb "nonzero work tallied" true (report.Sim.iterations > 0.0);
      pool := (st.K.result, simmed) :: !pool)
    spec.K.stages

let kernel_cases =
  List.map
    (fun (spec : K.spec) ->
      ("four-way agreement: " ^ spec.K.kname, `Quick, kernel_test spec))
    K.all

(* ------------------------------------------------------------------ *)
(* Simulator specifics                                                 *)
(* ------------------------------------------------------------------ *)

let spmv_compiled () =
  let spec = K.spmv in
  let st = List.hd spec.K.stages in
  let inputs = List.assoc "SpMV" Test_backend_data.small_inputs in
  K.compile_stage spec st ~inputs

let test_sim_configs_ordered () =
  let c = spmv_compiled () in
  let hbm = (Sim.estimate c).Sim.cycles in
  let ddr = (Sim.estimate ~config:{ Sim.arch = Stardust_capstan.Arch.default;
                                    dram = Stardust_capstan.Dram.ddr4 } c).Sim.cycles in
  let ideal = (Sim.estimate ~config:Sim.ideal_config c).Sim.cycles in
  checkb "ideal <= hbm" true (ideal <= hbm);
  checkb "hbm <= ddr4" true (hbm <= ddr)

let test_sim_plasticine_slower () =
  let c = spmv_compiled () in
  let hbm = (Sim.estimate c).Sim.compute_cycles in
  let plast =
    (Sim.estimate
       ~config:{ Sim.arch = Stardust_capstan.Arch.plasticine;
                 dram = Stardust_capstan.Dram.hbm2e } c).Sim.compute_cycles
  in
  checkb "plasticine slower (scalar sparse lanes)" true (plast > hbm)

let test_sim_fifo_discipline () =
  (* an unbalanced FIFO program fails loudly in the functional simulator *)
  let open Stardust_spatial.Spatial_ir in
  let prog =
    { name = "bad_fifo"; env = []; host_params = [];
      dram = [ { mem = "src_dram"; kind = Dram_dense; size = Int 4 } ];
      accel =
        [ Alloc { mem = "f"; kind = Fifo 16; size = Int 16 };
          Load_burst { dst = "f"; src = "src_dram"; lo = Int 0; hi = Int 2; par = 1 };
          Foreach { len = Int 4; par = 1; bind = "k"; trip = Trip_const 4;
                    body = [ Deq ("v", "f") ] } ] }
  in
  (* wrap into a fake compiled record via the public compile path is not
     possible; drive the machine through a tiny schedule instead *)
  ignore prog;
  (* deq more than enqueued: exercised indirectly by the compiled kernels;
     here we check the validator rejects use-before-alloc *)
  checkb "validator" false (is_valid
    { prog with accel = List.tl prog.accel })

let test_sim_report_fields () =
  let c = spmv_compiled () in
  let _, report = Sim.execute c in
  checkb "bytes positive" true (report.Sim.streamed_bytes > 0.0);
  checkb "seconds consistent" true
    (Float.abs (report.Sim.seconds -. report.Sim.cycles /. 1.6e9) < 1e-12);
  checkb "cycles = max(compute, dram)" true
    (report.Sim.cycles >= report.Sim.compute_cycles -. 1e-9
     && report.Sim.cycles >= report.Sim.dram_cycles -. 1e-9)

(* ------------------------------------------------------------------ *)
(* CPU path specifics                                                  *)
(* ------------------------------------------------------------------ *)

let test_cpu_codegen_text () =
  let c = spmv_compiled () in
  let _, _, func = Imp.run c.C.plan ~inputs:c.C.inputs in
  let code = Imperative_ir.to_string func in
  checkb "is C" true (contains code "#include <stdint.h>");
  checkb "pos loop" true (contains code "A2_pos[");
  checkb "restrict arrays" true (contains code "double* restrict");
  checkb "loc sane" true (Imperative_ir.lines_of_code func > 10)

let test_cpu_merge_codegen () =
  let spec = K.plus2 in
  let st = List.hd spec.K.stages in
  let inputs = List.assoc "Plus2" Test_backend_data.small_inputs in
  let c = K.compile_stage spec st ~inputs in
  let _, tally, func = Imp.run c.C.plan ~inputs in
  let code = Imperative_ir.to_string func in
  checkb "merge while loop" true (contains code "while (");
  checkb "min merge" true (contains code "TACO_MIN" || contains code "==");
  checkb "branches counted" true (tally.Imp.branches > 0.0)

let test_cpu_omp_only_for_spmv () =
  List.iter
    (fun (spec : K.spec) ->
      let st = List.hd spec.K.stages in
      let inputs = List.assoc spec.K.kname Test_backend_data.small_inputs in
      let inputs =
        List.filter (fun (n, _) -> List.mem_assoc n st.K.formats) inputs
      in
      let plan =
        Stardust_core.Plan.build
          (S.of_assign ~formats:st.K.formats (P.parse_assign st.K.expr))
          ~inputs
      in
      let p = Profile.of_plan plan ~inputs in
      let expect = spec.K.kname = "SpMV" in
      checkb (spec.K.kname ^ " parallel") expect p.Profile.parallel_outer)
    [ K.spmv; K.sddmm; K.residual; K.ttv; K.innerprod ]

(* ------------------------------------------------------------------ *)
(* Properties: random elementwise expressions across all backends       *)
(* ------------------------------------------------------------------ *)

let arb_small_tensor name seed =
  D.small_random ~seed ~name ~format:(F.csr ()) ~dims:[ 5; 6 ] ~density:0.4 ()

let prop_elementwise_backends_agree =
  QCheck.Test.make ~name:"random add/mul kernels agree across backends" ~count:40
    QCheck.(pair (int_range 0 1) (int_range 0 1000))
    (fun (op, seed) ->
      let b = arb_small_tensor "B" seed in
      let c = arb_small_tensor "C" (seed + 7) in
      let expr = if op = 0 then "A(i,j) = B(i,j) + C(i,j)" else "A(i,j) = B(i,j) * C(i,j)" in
      let formats = [ ("A", F.csr ()); ("B", F.csr ()); ("C", F.csr ()) ] in
      let sched = S.of_assign ~formats (P.parse_assign expr) in
      let inputs = [ ("B", b); ("C", c) ] in
      let compiled = C.compile sched ~inputs in
      let expected =
        Ref.eval (P.parse_assign expr) ~inputs ~result_format:(F.csr ())
      in
      let sim, _ = Sim.execute compiled in
      let cpu, _, _ = Imp.run compiled.C.plan ~inputs in
      close (List.assoc "A" sim) expected && close (List.assoc "A" cpu) expected)

let prop_spmv_random_matrices =
  QCheck.Test.make ~name:"SpMV agrees on random matrices/densities" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 1 9))
    (fun (seed, d10) ->
      let density = float_of_int d10 /. 10.0 in
      let a = D.small_random ~seed ~name:"A" ~format:(F.csr ()) ~dims:[ 7; 8 ]
          ~density () in
      let x = D.dense_vector ~seed:(seed + 1) ~name:"x" ~dim:8 () in
      let inputs = [ ("A", a); ("x", x) ] in
      let st = List.hd K.spmv.K.stages in
      let compiled = K.compile_stage K.spmv st ~inputs in
      let expected =
        Ref.eval (P.parse_assign st.K.expr) ~inputs ~result_format:(F.dv ())
      in
      let sim, report = Sim.execute compiled in
      let est = Sim.estimate compiled in
      close (List.assoc "y" sim) expected
      && Float.abs (est.Sim.iterations -. report.Sim.iterations) < 0.5)

let prop_estimate_matches_execute =
  QCheck.Test.make ~name:"estimate tallies match execution on random inputs"
    ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let b = D.small_random ~seed ~name:"B" ~format:(F.ucc ()) ~dims:[ 3; 4; 5 ]
          ~density:0.5 () in
      let c = D.small_random ~seed:(seed + 3) ~name:"C" ~format:(F.ucc ())
          ~dims:[ 3; 4; 5 ] ~density:0.5 () in
      QCheck.assume (T.nnz b > 0 && T.nnz c > 0);
      let inputs = [ ("B", b); ("C", c) ] in
      let st = List.hd K.plus2.K.stages in
      let compiled = K.compile_stage K.plus2 st ~inputs in
      let _, report = Sim.execute compiled in
      let est = Sim.estimate compiled in
      Float.abs (est.Sim.iterations -. report.Sim.iterations) < 0.5
      && Float.abs (est.Sim.compute_cycles -. report.Sim.compute_cycles)
         /. Float.max 1.0 report.Sim.compute_cycles
         < 0.05)

(* Column-major storage under loop order (j,i): the estimate's
   co-iteration counts follow storage order, so CSC and the DCSC union
   match execution exactly; the DCSC product keeps the small launch gap
   every doubly compressed product has. *)
let prop_estimate_matches_execute_col_major =
  QCheck.Test.make
    ~name:"estimate matches execution on column-major inputs" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let dcsc = F.make ~mode_order:[ 1; 0 ] [ F.Compressed; F.Compressed ] in
      List.for_all
        (fun (fmt, op, tol) ->
          let expr = Printf.sprintf "A(i,j) = B(i,j) %s C(i,j)" op in
          let input name seed =
            D.small_random ~seed ~name ~format:fmt ~dims:[ 6; 7 ] ~density:0.4 ()
          in
          let inputs = [ ("B", input "B" seed); ("C", input "C" (seed + 7)) ] in
          let formats = [ ("A", fmt); ("B", fmt); ("C", fmt) ] in
          let sched =
            S.reorder (S.of_assign ~formats (P.parse_assign expr)) [ "j"; "i" ]
          in
          let compiled = C.compile sched ~inputs in
          let _, report = Sim.execute compiled in
          let est = Sim.estimate compiled in
          est.Sim.iterations = report.Sim.iterations
          && Float.abs (est.Sim.compute_cycles -. report.Sim.compute_cycles)
             /. Float.max 1.0 report.Sim.compute_cycles
             <= tol)
        [
          (F.csc (), "+", 1e-9);
          (F.csc (), "*", 1e-9);
          (dcsc, "+", 1e-9);
          (dcsc, "*", 0.05);
        ])

let suite =
  kernel_cases
  @ [
      ("sim: config ordering", `Quick, test_sim_configs_ordered);
      ("sim: plasticine slower", `Quick, test_sim_plasticine_slower);
      ("sim: fifo discipline/validation", `Quick, test_sim_fifo_discipline);
      ("sim: report consistency", `Quick, test_sim_report_fields);
      ("cpu: C codegen", `Quick, test_cpu_codegen_text);
      ("cpu: merge codegen", `Quick, test_cpu_merge_codegen);
      ("cpu: parallelization rule", `Quick, test_cpu_omp_only_for_spmv);
      QCheck_alcotest.to_alcotest prop_elementwise_backends_agree;
      QCheck_alcotest.to_alcotest prop_spmv_random_matrices;
      QCheck_alcotest.to_alcotest prop_estimate_matches_execute;
      QCheck_alcotest.to_alcotest prop_estimate_matches_execute_col_major;
    ]
