(* Tests for the compiler core: co-iteration rewrite rules (Figure 10),
   memory analysis (section 6), planning, lowering, and code generation. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Ast = Stardust_ir.Ast
module P = Stardust_ir.Parser
module Cin = Stardust_ir.Cin
module S = Stardust_schedule.Schedule
module Coiter = Stardust_core.Coiter
module Memory = Stardust_core.Memory
module Plan = Stardust_core.Plan
module C = Stardust_core.Compile
module K = Stardust_core.Kernels
module Pipeline = Stardust_core.Pipeline
module Codegen = Stardust_spatial.Codegen
module Ir = Stardust_spatial.Spatial_ir
module D = Stardust_workloads.Datasets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Co-iteration trees and rewrite rules (Figure 10)                    *)
(* ------------------------------------------------------------------ *)

let formats_2sparse =
  [ ("A", F.csr ()); ("B", F.csr ()); ("C", F.csr ()); ("x", F.dv ()) ]

let tree_of expr v =
  Coiter.tree_of_expr formats_2sparse v (P.parse_expr_string expr)

let test_tree_mul_is_and () =
  match tree_of "B(i,j) * C(i,j)" "j" with
  | Coiter.Node (`And, Coiter.Leaf a, Coiter.Leaf b) ->
      checkb "kinds" true (a.Coiter.kind = `C && b.Coiter.kind = `C)
  | t -> Alcotest.failf "wrong tree %a" Coiter.pp_tree t

let test_tree_add_is_or () =
  match tree_of "B(i,j) + C(i,j)" "j" with
  | Coiter.Node (`Or, _, _) -> ()
  | t -> Alcotest.failf "wrong tree %a" Coiter.pp_tree t

let test_tree_skips_irrelevant () =
  (* x(j) has no level over i *)
  match tree_of "B(i,j) * x(j)" "i" with
  | Coiter.Leaf it -> checkb "only B" true (it.Coiter.tensor = "B")
  | t -> Alcotest.failf "wrong tree %a" Coiter.pp_tree t

let test_rewrite_single () =
  (match Coiter.rewrite (tree_of "B(i,j) * x(j)" "j") with
  | Coiter.Pos_plan { lead; dense } ->
      checkb "lead is B" true (lead.Coiter.tensor = "B");
      checki "x accessed densely" 1 (List.length dense)
  | p -> Alcotest.failf "wrong plan %a" Coiter.pp_plan p);
  match Coiter.rewrite (tree_of "B(i,j) * x(j)" "i") with
  | Coiter.Pos_plan _ -> Alcotest.fail "dense i should not be a pos plan"
  | Coiter.Dense_plan _ -> ()
  | p -> Alcotest.failf "wrong plan %a" Coiter.pp_plan p

let test_rewrite_scan () =
  (match Coiter.rewrite (tree_of "B(i,j) * C(i,j)" "j") with
  | Coiter.Scan_plan { op = `And; _ } -> ()
  | p -> Alcotest.failf "wrong plan %a" Coiter.pp_plan p);
  match Coiter.rewrite (tree_of "B(i,j) + C(i,j)" "j") with
  | Coiter.Scan_plan { op = `Or; _ } -> ()
  | p -> Alcotest.failf "wrong plan %a" Coiter.pp_plan p

let test_rewrite_universe_rules () =
  (* U ∩ U = U *)
  (match Coiter.rewrite (tree_of "B(i,j) * C(i,j)" "i") with
  | Coiter.Dense_plan { dense } -> checki "both dense" 2 (List.length dense)
  | p -> Alcotest.failf "wrong plan %a" Coiter.pp_plan p);
  (* U ∪ C = U: dense side dominates a union *)
  let fmts = [ ("B", F.csr ()); ("z", F.dv ()) ] in
  let t = Coiter.tree_of_expr fmts "j" (P.parse_expr_string "B(i,j) + z(j)") in
  match Coiter.rewrite t with
  | Coiter.Dense_plan _ -> ()
  | p -> Alcotest.failf "U∪C should be dense: %a" Coiter.pp_plan p

let test_rewrite_unsupported () =
  (* three-way compressed union exceeds the scanner arity *)
  let fmts = [ ("B", F.csr ()); ("C", F.csr ()); ("D", F.csr ()) ] in
  let t =
    Coiter.tree_of_expr fmts "j" (P.parse_expr_string "B(i,j) + C(i,j) + D(i,j)")
  in
  (match Coiter.rewrite t with
  | exception Coiter.Lower_error _ -> ()
  | p -> Alcotest.failf "3-way union accepted: %a" Coiter.pp_plan p);
  (* mixed (C + C) * C nesting is rejected *)
  let t =
    Coiter.tree_of_expr fmts "j"
      (P.parse_expr_string "(B(i,j) + C(i,j)) * D(i,j)")
  in
  match Coiter.rewrite t with
  | exception Coiter.Lower_error _ -> ()
  | p -> Alcotest.failf "mixed contraction accepted: %a" Coiter.pp_plan p

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let spmv_plan () =
  let spec = K.spmv in
  let st = List.hd spec.K.stages in
  let inputs =
    [ ("A", D.small_random ~name:"A" ~format:(F.csr ()) ~dims:[ 8; 9 ] ~density:0.3 ());
      ("x", D.dense_vector ~name:"x" ~dim:9 ()) ]
  in
  (Plan.build (K.schedule_stage spec st) ~inputs, inputs)

let test_plan_loops () =
  let plan, _ = spmv_plan () in
  let i = Plan.loop_info plan "i" in
  checki "i extent" 8 i.Plan.extent;
  checki "i depth" 0 i.Plan.depth;
  checkb "i dense" true
    (match i.Plan.plan with Coiter.Dense_plan _ -> true | _ -> false);
  let j = Plan.loop_info plan "j" in
  checkb "j sparse" true
    (match j.Plan.plan with Coiter.Pos_plan _ -> true | _ -> false);
  checkb "j reduce-mapped" true (j.Plan.reduce_target = Some "ws");
  checkb "j innermost" true j.Plan.is_innermost

let test_plan_extent_conflict () =
  let formats = [ ("y", F.dv ()); ("A", F.rm ()); ("x", F.dv ()) ] in
  let sched = S.of_assign ~formats (P.parse_assign "y(i) = A(i,j) * x(j)") in
  let inputs =
    [ ("A", D.dense_matrix ~name:"A" ~format:(F.rm ()) ~rows:4 ~cols:5 ());
      ("x", D.dense_vector ~name:"x" ~dim:9 ()) ]
  in
  match Plan.build sched ~inputs with
  | exception Plan.Plan_error _ -> ()
  | _ -> Alcotest.fail "conflicting extents accepted"

let test_plan_format_mismatch () =
  let spec = K.spmv in
  let st = List.hd spec.K.stages in
  let inputs =
    [ ("A", D.dense_matrix ~name:"A" ~format:(F.rm ()) ~rows:4 ~cols:4 ());
      ("x", D.dense_vector ~name:"x" ~dim:4 ()) ]
  in
  match Plan.build (K.schedule_stage spec st) ~inputs with
  | exception Plan.Plan_error _ -> ()
  | _ -> Alcotest.fail "format mismatch accepted"

let test_plan_result_bounds () =
  (* SDDMM result mirrors B's structure *)
  let spec = K.sddmm in
  let st = List.hd spec.K.stages in
  let b = D.small_random ~name:"B" ~format:(F.csr ()) ~dims:[ 5; 6 ] ~density:0.4 () in
  let inputs =
    [ ("B", b);
      ("C", D.dense_matrix ~name:"C" ~format:(F.rm ()) ~rows:5 ~cols:3 ());
      ("D", D.dense_matrix ~name:"D" ~format:(F.rm ()) ~rows:6 ~cols:3 ()) ]
  in
  let plan = Plan.build (K.schedule_stage spec st) ~inputs in
  let a = Plan.meta plan "A" and bm = Plan.meta plan "B" in
  checki "mirrored nnz bound" bm.Plan.level_counts.(1) a.Plan.level_counts.(1)

(* ------------------------------------------------------------------ *)
(* Memory analysis (section 6.1 rules)                                 *)
(* ------------------------------------------------------------------ *)

let binding_of plan tensor arr = Plan.binding plan tensor arr

let test_memory_spmv_bindings () =
  let plan, _ = spmv_plan () in
  (* position arrays -> dense SRAM at kernel start, whole burst *)
  let b = binding_of plan "A" (Memory.Pos 1) in
  checkb "pos kind" true (b.Memory.kind = Ir.Sram_dense);
  checkb "pos site" true (b.Memory.site = Memory.Kernel_start);
  checkb "pos whole" true (b.Memory.transfer = Memory.Whole_array);
  (* coordinates stream through FIFOs per fiber *)
  let b = binding_of plan "A" (Memory.Crd 1) in
  checkb "crd fifo" true (match b.Memory.kind with Ir.Fifo _ -> true | _ -> false);
  checkb "crd per fiber" true (b.Memory.transfer = Memory.Per_fiber);
  (* A's values stream in order -> FIFO *)
  let b = binding_of plan "A" Memory.Vals in
  checkb "vals fifo" true (match b.Memory.kind with Ir.Fifo _ -> true | _ -> false);
  (* x is gathered at sparse coordinates -> sparse SRAM + shuffle *)
  let b = binding_of plan "x" Memory.Vals in
  checkb "gather kind" true (b.Memory.kind = Ir.Sram_sparse);
  checkb "gather shuffle" true b.Memory.uses_shuffle;
  (* y is a whole dense result *)
  let b = binding_of plan "y" Memory.Vals in
  checkb "result dense sram" true (b.Memory.kind = Ir.Sram_dense);
  (* the scalar workspace is a register *)
  let b = binding_of plan "ws" Memory.Vals in
  checkb "ws register" true (b.Memory.kind = Ir.Reg)

let test_memory_gather_budget () =
  (* a gather table beyond the SRAM budget falls back to sparse DRAM *)
  let spec = K.spmv in
  let st = List.hd spec.K.stages in
  let inputs =
    [ ("A", D.small_random ~name:"A" ~format:(F.csr ()) ~dims:[ 8; 9 ] ~density:0.3 ());
      ("x", D.dense_vector ~name:"x" ~dim:9 ()) ]
  in
  let plan = Plan.build ~sram_budget:4 (K.schedule_stage spec st) ~inputs in
  let b = binding_of plan "x" Memory.Vals in
  checkb "falls to sparse DRAM" true (b.Memory.kind = Ir.Dram_sparse);
  checkb "still shuffles" true b.Memory.uses_shuffle

let test_memory_dense_slices () =
  (* SDDMM C/D dense rows: dense SRAM slices per fiber, no shuffle *)
  let spec = K.sddmm in
  let st = List.hd spec.K.stages in
  let inputs =
    [ ("B", D.small_random ~name:"B" ~format:(F.csr ()) ~dims:[ 5; 6 ] ~density:0.4 ());
      ("C", D.dense_matrix ~name:"C" ~format:(F.rm ()) ~rows:5 ~cols:3 ());
      ("D", D.dense_matrix ~name:"D" ~format:(F.rm ()) ~rows:6 ~cols:3 ()) ]
  in
  let plan = Plan.build (K.schedule_stage spec st) ~inputs in
  List.iter
    (fun t ->
      let b = binding_of plan t Memory.Vals in
      checkb (t ^ " dense sram") true (b.Memory.kind = Ir.Sram_dense);
      checkb (t ^ " per fiber") true (b.Memory.transfer = Memory.Per_fiber);
      checkb (t ^ " no shuffle") false b.Memory.uses_shuffle)
    [ "C"; "D" ];
  (* sparse output values stream out of a FIFO *)
  let b = binding_of plan "A" Memory.Vals in
  checkb "A vals fifo" true (match b.Memory.kind with Ir.Fifo _ -> true | _ -> false)

let test_memory_scan_vals () =
  (* co-iterated values are staged in sparse SRAM (lanes revisit) *)
  let spec = K.plus2 in
  let st = List.hd spec.K.stages in
  let b = D.small_random ~name:"B" ~format:(F.ucc ()) ~dims:[ 3; 4; 5 ] ~density:0.4 () in
  let inputs = [ ("B", b); ("C", D.rotate_even_last ~name:"C" b) ] in
  let plan = Plan.build (K.schedule_stage spec st) ~inputs in
  let bb = binding_of plan "B" Memory.Vals in
  checkb "scan vals sparse sram" true (bb.Memory.kind = Ir.Sram_sparse)

let test_memory_names () =
  Alcotest.(check string) "pos dram" "B2_pos_dram" (Memory.dram_name "B" (Memory.Pos 1));
  Alcotest.(check string) "crd onchip" "B3_crd" (Memory.onchip_name "B" (Memory.Crd 2));
  Alcotest.(check string) "vals" "B_vals" (Memory.onchip_name "B" Memory.Vals)

(* ------------------------------------------------------------------ *)
(* Lowering and code generation                                        *)
(* ------------------------------------------------------------------ *)

let compile_kernel spec inputs =
  K.compile_stage spec (List.hd spec.K.stages) ~inputs

let test_lower_spmv_structure () =
  let _, inputs = spmv_plan () in
  let c = compile_kernel K.spmv inputs in
  checkb "program valid" true (Ir.is_valid c.C.program);
  let code = C.spatial_code c in
  checkb "has Accel" true (contains code "Accel {");
  checkb "loads pos array" true (contains code "A2_pos load A2_pos_dram");
  checkb "reduce pattern" true (contains code "Reduce(ws_vals)");
  checkb "deq crd" true (contains code "A2_crd.deq");
  checkb "gathers x" true (contains code "x_vals(j)");
  checkb "stores result" true (contains code "y_vals_dram")

let test_lower_scan_structure () =
  let spec = K.plus2 in
  let b = D.small_random ~name:"B" ~format:(F.ucc ()) ~dims:[ 3; 4; 5 ] ~density:0.4 () in
  let inputs = [ ("B", b); ("C", D.rotate_even_last ~name:"C" b) ] in
  let c = compile_kernel spec inputs in
  let code = C.spatial_code c in
  checkb "valid" true (Ir.is_valid c.C.program);
  checkb "builds bit vectors" true (contains code "GenBitVector");
  checkb "or-scan" true (contains code ", or)");
  checkb "scan binds out ordinal" true (contains code "_out")

let test_lower_rejects_unscheduled_accum_output () =
  (* accumulating into a streamed sparse output needs a workspace *)
  let formats = [ ("A", F.csr ()); ("B", F.csr ()); ("x", F.dv ()); ("y", F.sv ()) ] in
  ignore formats;
  let fmts = [ ("y", F.sv ()); ("B", F.csr ()); ("x", F.dv ()) ] in
  let sched = S.of_assign ~formats:fmts (P.parse_assign "y(i) = B(i,j) * x(j)") in
  let inputs =
    [ ("B", D.small_random ~name:"B" ~format:(F.csr ()) ~dims:[ 4; 5 ] ~density:0.5 ());
      ("x", D.dense_vector ~name:"x" ~dim:5 ()) ]
  in
  match C.compile sched ~inputs with
  | exception C.Compile_error _ -> ()
  | _ -> Alcotest.fail "unscheduled accumulation accepted"

let test_codegen_loc () =
  let _, inputs = spmv_plan () in
  let c = compile_kernel K.spmv inputs in
  let loc = C.spatial_loc c in
  checkb "plausible LoC" true (loc > 20 && loc < 120);
  checki "input loc" 10 (C.input_loc c)

let test_validator_catches_errors () =
  let bad =
    { Ir.name = "bad"; env = []; host_params = []; dram = [];
      accel = [ Ir.Load_burst { dst = "nope"; src = "missing"; lo = Ir.Int 0;
                               hi = Ir.Int 4; par = 1 } ] }
  in
  checkb "invalid" false (Ir.is_valid bad);
  let redeclared =
    { Ir.name = "bad2"; env = []; host_params = [];
      dram = [ { Ir.mem = "a_dram"; kind = Ir.Dram_dense; size = Ir.Int 4 } ];
      accel =
        [ Ir.Alloc { mem = "m"; kind = Ir.Sram_dense; size = Ir.Int 4 };
          Ir.Alloc { mem = "m"; kind = Ir.Sram_dense; size = Ir.Int 4 } ] }
  in
  checkb "redeclaration" false (Ir.is_valid redeclared)

let test_all_kernels_compile_and_validate () =
  (* every paper kernel produces a structurally valid Spatial program *)
  let small = Test_backend_data.small_inputs in
  List.iter
    (fun (spec : K.spec) ->
      ignore
      @@ Pipeline.run spec ~inputs:(List.assoc spec.K.kname small)
           (fun st ~inputs ->
             let c = K.compile_stage spec st ~inputs in
             checkb (spec.K.kname ^ " valid") true (Ir.is_valid c.C.program);
             (* feed a correct intermediate forward *)
             let assign = P.parse_assign st.K.expr in
             let expected =
               Stardust_vonneumann.Reference.eval assign ~inputs
                 ~result_format:st.K.result_format
             in
             ((), [ (st.K.result, expected) ])))
    K.all

let suite =
  [
    ("tree: mul is intersection", `Quick, test_tree_mul_is_and);
    ("tree: add is union", `Quick, test_tree_add_is_or);
    ("tree: irrelevant accesses", `Quick, test_tree_skips_irrelevant);
    ("rewrite: single iterators", `Quick, test_rewrite_single);
    ("rewrite: scans", `Quick, test_rewrite_scan);
    ("rewrite: universe rules", `Quick, test_rewrite_universe_rules);
    ("rewrite: unsupported shapes", `Quick, test_rewrite_unsupported);
    ("plan: loop table", `Quick, test_plan_loops);
    ("plan: extent conflicts", `Quick, test_plan_extent_conflict);
    ("plan: format mismatch", `Quick, test_plan_format_mismatch);
    ("plan: result bounds mirror", `Quick, test_plan_result_bounds);
    ("memory: SpMV bindings", `Quick, test_memory_spmv_bindings);
    ("memory: gather budget", `Quick, test_memory_gather_budget);
    ("memory: dense slices", `Quick, test_memory_dense_slices);
    ("memory: scan values", `Quick, test_memory_scan_vals);
    ("memory: array names", `Quick, test_memory_names);
    ("lower: SpMV structure", `Quick, test_lower_spmv_structure);
    ("lower: scan structure", `Quick, test_lower_scan_structure);
    ("lower: rejects raw sparse accumulation", `Quick,
     test_lower_rejects_unscheduled_accum_output);
    ("codegen: lines of code", `Quick, test_codegen_loc);
    ("validator: catches errors", `Quick, test_validator_catches_errors);
    ("all kernels compile+validate", `Quick, test_all_kernels_compile_and_validate);
  ]
