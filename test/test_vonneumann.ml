(* Tests for the von Neumann substrate: the reference evaluator, the CIN
   interpreter, the imperative IR + interpreter, workload profiles, and the
   CPU/GPU timing models. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Ast = Stardust_ir.Ast
module P = Stardust_ir.Parser
module S = Stardust_schedule.Schedule
module Plan = Stardust_core.Plan
module K = Stardust_core.Kernels
module Ref = Stardust_vonneumann.Reference
module Interp = Stardust_vonneumann.Cin_interp
module Imp = Stardust_vonneumann.Imp_interp
module Iir = Stardust_vonneumann.Imperative_ir
module Profile = Stardust_vonneumann.Profile
module Cpu = Stardust_vonneumann.Cpu_model
module Gpu = Stardust_vonneumann.Gpu_model
module Pipeline = Stardust_core.Pipeline
module Sim = Stardust_capstan.Sim
module Dot = Stardust_spatial.Dotgraph
module D = Stardust_workloads.Datasets

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Reference evaluator                                                 *)
(* ------------------------------------------------------------------ *)

let test_reference_mixed_terms () =
  (* b is added once, not once per reduction iteration *)
  let a =
    T.of_entries ~name:"A" ~format:(F.csr ()) ~dims:[ 2; 3 ]
      [ ([ 0; 0 ], 1.0); ([ 0; 2 ], 2.0); ([ 1; 1 ], 3.0) ]
  in
  let x = T.of_entries ~name:"x" ~format:(F.dv ()) ~dims:[ 3 ]
      [ ([ 0 ], 1.0); ([ 1 ], 1.0); ([ 2 ], 1.0) ] in
  let b = T.of_entries ~name:"b" ~format:(F.dv ()) ~dims:[ 2 ]
      [ ([ 0 ], 10.0); ([ 1 ], 10.0) ] in
  let r =
    Ref.eval
      (P.parse_assign "y(i) = b(i) - A(i,j) * x(j)")
      ~inputs:[ ("A", a); ("x", x); ("b", b) ]
      ~result_format:(F.dv ())
  in
  checkf "row 0" 7.0 (T.get r [| 0 |]);
  checkf "row 1" 7.0 (T.get r [| 1 |])

let test_reference_scalar () =
  let a = T.of_entries ~name:"a" ~format:(F.sv ()) ~dims:[ 4 ]
      [ ([ 1 ], 2.0); ([ 3 ], 3.0) ] in
  let b = T.of_entries ~name:"b" ~format:(F.sv ()) ~dims:[ 4 ]
      [ ([ 1 ], 5.0); ([ 2 ], 7.0) ] in
  let r =
    Ref.eval (P.parse_assign "alpha = a(i) * b(i)")
      ~inputs:[ ("a", a); ("b", b) ] ~result_format:(F.make [])
  in
  checkf "dot" 10.0 (T.scalar_value r)

let test_reference_extent_conflict () =
  let a = D.dense_matrix ~name:"A" ~format:(F.rm ()) ~rows:3 ~cols:4 () in
  let x = D.dense_vector ~name:"x" ~dim:7 () in
  match
    Ref.eval (P.parse_assign "y(i) = A(i,j) * x(j)")
      ~inputs:[ ("A", a); ("x", x) ] ~result_format:(F.dv ())
  with
  | exception Ref.Eval_error _ -> ()
  | _ -> Alcotest.fail "conflicting extents accepted"

(* ------------------------------------------------------------------ *)
(* CIN interpreter                                                     *)
(* ------------------------------------------------------------------ *)

let test_cin_interp_where_scoping () =
  (* the workspace resets per consumer iteration *)
  let formats = [ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ] in
  let sched = S.of_assign ~formats (P.parse_assign "y(i) = A(i,j) * x(j)") in
  let e = Ast.(access "A" [ "i"; "j" ] * access "x" [ "j" ]) in
  let sched = S.precompute sched e [] [] ("ws", F.make ~region:F.On_chip []) in
  let a = T.of_entries ~name:"A" ~format:(F.csr ()) ~dims:[ 2; 2 ]
      [ ([ 0; 0 ], 1.0); ([ 1; 1 ], 1.0) ] in
  let x = T.of_entries ~name:"x" ~format:(F.dv ()) ~dims:[ 2 ]
      [ ([ 0 ], 3.0); ([ 1 ], 4.0) ] in
  let r = Interp.run sched ~inputs:[ ("A", a); ("x", x) ] ~result:"y"
      ~result_format:(F.dv ()) in
  (* without per-iteration reset row 1 would also contain row 0's sum *)
  checkf "row0" 3.0 (T.get r [| 0 |]);
  checkf "row1" 4.0 (T.get r [| 1 |])

let test_cin_interp_split_guard () =
  (* a constant-factor split overshoots the extent; overshoot iterations
     must be guarded out *)
  let formats = [ ("y", F.dv ()); ("x", F.dv ()) ] in
  let sched = S.of_assign ~formats (P.parse_assign "y(i) = x(i)") in
  let sched = S.split_up sched "i" "i0" "i1" 4 in
  let x = D.dense_vector ~name:"x" ~dim:7 () in
  let r = Interp.run sched ~inputs:[ ("x", x) ] ~result:"y"
      ~result_format:(F.dv ()) in
  checkb "copy exact despite overshoot" true (T.equal_approx r x)

(* ------------------------------------------------------------------ *)
(* Imperative path                                                     *)
(* ------------------------------------------------------------------ *)

let spmv_plan () =
  let spec = K.spmv in
  let st = List.hd spec.K.stages in
  let inputs =
    [ ("A", D.small_random ~seed:61 ~name:"A" ~format:(F.csr ()) ~dims:[ 6; 7 ]
          ~density:0.4 ());
      ("x", D.dense_vector ~name:"x" ~dim:7 ()) ]
  in
  (Plan.build (K.schedule_stage spec st) ~inputs, inputs)

let test_imp_tallies () =
  let plan, inputs = spmv_plan () in
  let _, tally, _ = Imp.run plan ~inputs in
  let a = List.assoc "A" inputs in
  (* the j loop executes once per nonzero; plus the outer i loop *)
  checkb "iters >= nnz" true
    (tally.Imp.iters >= float_of_int (T.nnz a));
  checkb "flops counted" true (tally.Imp.flops > 0.0);
  checkb "loads counted" true (tally.Imp.loads > 0.0);
  checkb "stores counted" true (tally.Imp.stores > 0.0)

let test_imp_c_output_zero_init () =
  (* dense outputs carry an explicit zero-init loop (the GPU pathology) *)
  let plan, inputs = spmv_plan () in
  let _, _, func = Imp.run plan ~inputs in
  let code = Iir.to_string func in
  checkb "zero-init loop" true (contains code "zero-initialise");
  checkb "omp parallel (SpMV qualifies)" true (contains code "#pragma omp")

let test_imp_ir_printer () =
  let open Iir in
  let f =
    { fname = "t"; arrays = [ { aname = "x"; length = 4; is_output = true } ];
      scalars = [ ("N", 4) ];
      body =
        [ Decl { var = "acc"; init = Const 0.0; is_int = false };
          For { var = "i"; lo = int 0; hi = var "N";
                body =
                  [ If { cond = Cmp (Lt, var "i", int 2);
                         then_ = [ Assign ("acc", Var "acc" +: idx "x" (var "i")) ];
                         else_ = [ Incr "acc" ] } ];
                parallel = false };
          While { cond = Cmp (Ne, var "acc", Const 0.0);
                  body = [ Assign ("acc", Const 0.0) ] } ] }
  in
  let code = to_string f in
  checkb "for loop" true (contains code "for (int32_t i = 0; i < N; i++)");
  checkb "while" true (contains code "while ((acc != 0))");
  checkb "define" true (contains code "#define N 4")

(* ------------------------------------------------------------------ *)
(* Profiles and timing models                                          *)
(* ------------------------------------------------------------------ *)

let test_profile_spmv () =
  let plan, inputs = spmv_plan () in
  let p = Profile.of_plan plan ~inputs in
  let a = List.assoc "A" inputs in
  checkf "pos iters = nnz" (float_of_int (T.nnz a)) p.Profile.pos_iters;
  checkf "no merges" 0.0 (Profile.merge_iters p);
  checkb "x gathered" true (Profile.total_gathers p > 0.0);
  checkb "gather granularity 1 word" true
    (List.for_all (fun g -> g.Profile.words_each = 1) p.Profile.gathers)

let test_profile_union_counts () =
  let spec = K.plus2 in
  let st = List.hd spec.K.stages in
  let b = D.small_random ~seed:62 ~name:"B" ~format:(F.ucc ()) ~dims:[ 3; 4; 5 ]
      ~density:0.4 () in
  let c = D.rotate_even_last ~name:"C" b in
  let inputs = [ ("B", b); ("C", c) ] in
  let plan = Plan.build (K.schedule_stage spec st) ~inputs in
  let p = Profile.of_plan plan ~inputs in
  checkb "union merges counted" true (p.Profile.merge_or_iters > 0.0);
  checkf "no intersections" 0.0 p.Profile.merge_and_iters;
  checkb "sparse output appends" true (p.Profile.output_appends > 0.0)

let test_cpu_model_monotone () =
  let plan, inputs = spmv_plan () in
  let p = Profile.of_plan plan ~inputs in
  let base = (Cpu.run p).Cpu.seconds in
  let serial = (Cpu.run { p with Profile.parallel_outer = false }).Cpu.seconds in
  checkb "serial slower" true (serial >= base);
  let more_work =
    (Cpu.run { p with Profile.pos_iters = p.Profile.pos_iters *. 10.0 }).Cpu.seconds
  in
  checkb "more iterations, more time" true (more_work > base)

let test_gpu_model_init_dominates () =
  let plan, inputs = spmv_plan () in
  let p = Profile.of_plan plan ~inputs in
  let small = (Gpu.run p).Gpu.seconds in
  let huge_output =
    (Gpu.run { p with Profile.output_dense_words = 1e9 }).Gpu.seconds
  in
  checkb "dense-output init dominates" true (huge_output > 100.0 *. small);
  let r = Gpu.run { p with Profile.output_dense_words = 1e9 } in
  checkb "init component" true (r.Gpu.init_seconds > r.Gpu.compute_seconds)

let test_gpu_scatter_only_sparse_outputs () =
  let plan, inputs = spmv_plan () in
  let p = Profile.of_plan plan ~inputs in
  (* y is fully dense: no scatter charge *)
  checkf "no scatter" 0.0 (Gpu.run p).Gpu.scatter_seconds

(* ------------------------------------------------------------------ *)
(* Pipeline orchestration and DOT export                               *)
(* ------------------------------------------------------------------ *)

let test_pipeline_plus3 () =
  let inputs = List.assoc "Plus3" Test_backend_data.small_inputs in
  let results =
    Pipeline.run K.plus3 ~inputs (fun st ~inputs ->
        let results, _ = Sim.execute (K.compile_stage K.plus3 st ~inputs) in
        (List.assoc st.K.result results, results))
  in
  Alcotest.(check int) "two stages" 2 (List.length results);
  let expected =
    let add = P.parse_assign "A(i,j) = B(i,j) + C(i,j) + D(i,j)" in
    Ref.eval add ~inputs ~result_format:(F.csr ())
  in
  checkb "pipeline result = three-way sum" true
    (T.max_abs_diff (List.nth results 1) expected < 1e-6)

let test_dot_export () =
  let inputs = List.assoc "SpMV" Test_backend_data.small_inputs in
  let st = List.hd K.spmv.K.stages in
  let compiled = K.compile_stage K.spmv st ~inputs in
  let dot = Dot.of_program compiled.Stardust_core.Compile.program in
  checkb "digraph" true (contains dot "digraph");
  checkb "dram node" true (contains dot "A2_pos_dram");
  checkb "reduce pattern" true (contains dot "Reduce");
  checkb "edges" true (contains dot "->")

let suite =
  [
    ("reference: mixed terms", `Quick, test_reference_mixed_terms);
    ("reference: scalar results", `Quick, test_reference_scalar);
    ("reference: extent conflicts", `Quick, test_reference_extent_conflict);
    ("cin-interp: workspace scoping", `Quick, test_cin_interp_where_scoping);
    ("cin-interp: split guard", `Quick, test_cin_interp_split_guard);
    ("imperative: tallies", `Quick, test_imp_tallies);
    ("imperative: zero-init + omp", `Quick, test_imp_c_output_zero_init);
    ("imperative: C printer", `Quick, test_imp_ir_printer);
    ("profile: SpMV counts", `Quick, test_profile_spmv);
    ("profile: union counts", `Quick, test_profile_union_counts);
    ("cpu model: monotone", `Quick, test_cpu_model_monotone);
    ("gpu model: init dominates", `Quick, test_gpu_model_init_dominates);
    ("gpu model: scatter only sparse", `Quick, test_gpu_scatter_only_sparse_outputs);
    ("pipeline: Plus3 orchestration", `Quick, test_pipeline_plus3);
    ("dot export", `Quick, test_dot_export);
  ]
