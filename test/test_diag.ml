(* Diagnostics, graceful degradation, and fault injection.

   Covers the structured-diagnostic subsystem end to end: rendering and
   JSON, the result-typed compile driver, the simulator's watchdog and
   fault-injection hooks, the retile/CPU fallback chain, hardened tensor
   file I/O, and the pipeline retry policy.  A qcheck fuzzer asserts the
   driver's core invariant: no input string makes [compile_string_result]
   escape with anything but [Ok] or [Error diags]. *)

module Diag = Stardust_diag.Diag
module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Io = Stardust_tensor.Tensor_io
module P = Stardust_ir.Parser
module C = Stardust_core.Compile
module K = Stardust_core.Kernels
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module Fallback = Stardust_driver.Fallback
module Ref = Stardust_vonneumann.Reference
module D = Stardust_workloads.Datasets

let close a b = T.approx_equal a b

let spmv_expr = "y(i) = A(i,j) * x(j)"
let spmv_formats = [ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ]

let spmv_inputs ?(n = 16) () =
  [
    ("A",
     D.small_random ~seed:3 ~name:"A" ~format:(F.csr ()) ~dims:[ n; n ]
       ~density:0.2 ());
    ("x", D.dense_vector ~seed:4 ~name:"x" ~dim:n ());
  ]

let compile_spmv () =
  let st = List.hd K.spmv.K.stages in
  K.compile_stage K.spmv st ~inputs:(spmv_inputs ())

let spmv_expected inputs =
  Ref.eval (P.parse_assign spmv_expr) ~inputs ~result_format:(F.dv ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Rendering and collection                                            *)
(* ------------------------------------------------------------------ *)

let test_pp_and_json () =
  let d =
    Diag.error ~stage:Diag.Plan ~code:Diag.code_plan
      ~context:[ ("kernel", "spmv") ]
      "no co-iteration strategy for %s" "j"
  in
  let s = Diag.to_string d in
  Alcotest.(check bool) "one-line form" true
    (contains s "error[E0301][plan] no co-iteration strategy for j");
  Alcotest.(check bool) "context rendered" true (contains s "kernel=spmv");
  let j = Diag.to_json d in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Fmt.str "json has %s" frag) true (contains j frag))
    [ "\"severity\":\"error\""; "\"stage\":\"plan\""; "\"code\":\"E0301\"";
      "\"context\":{\"kernel\":\"spmv\"}" ];
  (* escaping: quotes and newlines must not break the JSON *)
  let tricky = Diag.error ~stage:Diag.Io ~code:Diag.code_io "bad \"line\"\n" in
  Alcotest.(check bool) "escaped quote" true
    (contains (Diag.to_json tricky) "bad \\\"line\\\"\\n");
  let l = Diag.list_to_json [ d; tricky ] in
  Alcotest.(check bool) "list is an array" true
    (l.[0] = '[' && l.[String.length l - 1] = ']')

let test_render_caret () =
  let src = "y(i) = A(i,j) * z(j)" in
  let d =
    Diag.error ~stage:Diag.Parse ~code:Diag.code_parse
      ~span:{ Diag.start = 16; stop = 20 } "unknown tensor z"
  in
  let s = Diag.render_string ~src d in
  Alcotest.(check bool) "source line shown" true (contains s src);
  Alcotest.(check bool) "caret drawn" true (contains s "^");
  (* the caret sits under the span start *)
  (match String.split_on_char '\n' s with
  | [ _; _; caret_line ] ->
      let col = String.index caret_line '^' in
      Alcotest.(check int) "caret column" 16 (col - String.length "  | ")
  | _ -> Alcotest.fail "expected three render lines");
  (* spans outside the source degrade to the one-line form *)
  let wild = { d with Diag.span = Some { Diag.start = 999; stop = 1000 } } in
  Alcotest.(check bool) "wild span degrades" true
    (not (contains (Diag.render_string ~src wild) "^"))

let test_collector () =
  let c = Diag.Collector.create () in
  Alcotest.(check bool) "empty" true (Diag.Collector.is_empty c);
  Diag.Collector.add c
    (Diag.warning ~stage:Diag.Driver ~code:Diag.code_cache_corrupt "w");
  Diag.Collector.add c (Diag.error ~stage:Diag.Plan ~code:Diag.code_plan "e");
  Diag.Collector.add_all c
    [ Diag.note ~stage:Diag.Driver ~code:Diag.code_fallback_cpu "n" ];
  Alcotest.(check int) "one error" 1 (Diag.Collector.error_count c);
  Alcotest.(check bool) "has errors" true (Diag.Collector.has_errors c);
  Alcotest.(check int) "emission order kept" 3
    (List.length (Diag.Collector.to_list c));
  match Diag.Collector.to_list c with
  | [ w; e; n ] ->
      Alcotest.(check string) "first" "w" w.Diag.message;
      Alcotest.(check string) "second" "e" e.Diag.message;
      Alcotest.(check string) "third" "n" n.Diag.message
  | _ -> Alcotest.fail "expected three diagnostics"

(* ------------------------------------------------------------------ *)
(* Result-typed compile driver                                         *)
(* ------------------------------------------------------------------ *)

let test_compile_result_parse_error () =
  match
    C.compile_string_result ~formats:spmv_formats ~inputs:(spmv_inputs ())
      "y(i = A(i,j"
  with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error ds ->
      let d = List.hd ds in
      Alcotest.(check string) "code" Diag.code_parse d.Diag.code;
      Alcotest.(check bool) "stage parse" true (d.Diag.stage = Diag.Parse);
      Alcotest.(check bool) "span points into the source" true
        (match d.Diag.span with Some _ -> true | None -> false)

let test_compile_result_plan_error () =
  (* an undefined tensor survives parsing and dies later with a
     stage-tagged diagnostic, not a raw exception *)
  match
    C.compile_string_result ~name:"bad" ~formats:spmv_formats
      ~inputs:(spmv_inputs ()) "y(i) = Q(i,j) * x(j)"
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error ds ->
      Alcotest.(check bool) "all are errors" true
        (List.for_all Diag.is_error ds);
      Alcotest.(check bool) "kernel context attached" true
        (List.for_all
           (fun d -> List.mem_assoc "kernel" d.Diag.context)
           ds)

let test_compile_result_ok () =
  match
    C.compile_string_result ~name:"spmv" ~formats:spmv_formats
      ~inputs:(spmv_inputs ()) spmv_expr
  with
  | Error ds -> Alcotest.failf "unexpected: %s" (Diag.list_to_json ds)
  | Ok c ->
      let results, _ = Sim.execute c in
      Alcotest.(check bool) "simulates correctly" true
        (close (List.assoc "y" results) (spmv_expected (spmv_inputs ())))

(* No input string may make the driver escape with a non-diagnostic
   exception: it returns Ok or Error, full stop. *)
let fuzz_compile_total =
  let base = spmv_expr in
  let gen =
    QCheck.Gen.(
      oneof
        [
          (* arbitrary printable garbage *)
          string_size ~gen:printable (int_range 0 40);
          (* single-character mutation of a valid kernel *)
          map2
            (fun pos c ->
              let b = Bytes.of_string base in
              Bytes.set b (pos mod Bytes.length b) c;
              Bytes.to_string b)
            (int_range 0 1000) printable;
          (* random splice into a valid kernel *)
          map2
            (fun i s ->
              let i = i mod (String.length base + 1) in
              String.sub base 0 i ^ s
              ^ String.sub base i (String.length base - i))
            (int_range 0 1000)
            (string_size ~gen:printable (int_range 0 8));
        ])
  in
  QCheck.Test.make ~name:"compile_string_result never raises" ~count:200
    (QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) gen)
    (fun s ->
      match
        C.compile_string_result ~formats:spmv_formats
          ~inputs:(spmv_inputs ()) s
      with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Simulator hardening: watchdog and fault injection                   *)
(* ------------------------------------------------------------------ *)

let test_watchdog () =
  let c = compile_spmv () in
  match Sim.execute ~watchdog:10.0 c with
  | _ -> Alcotest.fail "expected the watchdog to trip"
  | exception Sim.Sim_error { kind = Sim.Watchdog; message } ->
      Alcotest.(check bool) "message names the budget" true
        (contains message "watchdog")
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let test_fault_dram_stall () =
  let c = compile_spmv () in
  let results0, r0 = Sim.execute c in
  let results1, r1 =
    Sim.execute ~faults:[ Sim.Dram_stall_storm { factor = 64.0 } ] c
  in
  (* a stall storm slows the kernel but cannot change its answer *)
  Alcotest.(check bool) "slower under the storm" true
    (r1.Sim.cycles >= r0.Sim.cycles);
  Alcotest.(check bool) "strictly memory-degraded" true
    (r1.Sim.seconds > r0.Sim.seconds);
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool)
        (Fmt.str "result %s unchanged" name)
        true
        (close t (List.assoc name results1)))
    results0

let expect_sim_error ~what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Sim_error" what
  | exception Sim.Sim_error { kind; _ } ->
      Alcotest.(check bool)
        (Fmt.str "%s: recoverable kind, got %s" what (Sim.error_kind_name kind))
        true
        (match kind with
        | Sim.Capacity | Sim.Watchdog | Sim.Fault -> true
        | Sim.Runtime -> false)
  | exception e ->
      Alcotest.failf "%s: unstructured exception %s" what
        (Printexc.to_string e)

let test_fault_corrupt_pos () =
  let c = compile_spmv () in
  expect_sim_error ~what:"huge pos" (fun () ->
      Sim.execute ~watchdog:1e6
        ~faults:[ Sim.Corrupt_pos { tensor = "A"; level = 1; index = 1; value = 1e6 } ]
        c);
  expect_sim_error ~what:"negative pos" (fun () ->
      Sim.execute ~watchdog:1e6
        ~faults:
          [ Sim.Corrupt_pos { tensor = "A"; level = 1; index = 2; value = -5.0 } ]
        c)

let test_fault_corrupt_crd () =
  let c = compile_spmv () in
  expect_sim_error ~what:"out-of-range crd" (fun () ->
      Sim.execute ~watchdog:1e6
        ~faults:
          [ Sim.Corrupt_crd { tensor = "A"; level = 1; index = 0; value = 1e7 } ]
        c)

let test_fault_bad_spec () =
  let c = compile_spmv () in
  let check_fault what faults =
    match Sim.execute ~faults c with
    | _ -> Alcotest.failf "%s: expected Sim_error" what
    | exception Sim.Sim_error { kind = Sim.Fault; _ } -> ()
    | exception e ->
        Alcotest.failf "%s: wrong exception %s" what (Printexc.to_string e)
  in
  check_fault "unknown tensor"
    [ Sim.Corrupt_pos { tensor = "nope"; level = 0; index = 0; value = 0.0 } ];
  check_fault "index out of image"
    [ Sim.Corrupt_pos { tensor = "A"; level = 1; index = 999999; value = 0.0 } ]

(* ------------------------------------------------------------------ *)
(* Fallback chain                                                      *)
(* ------------------------------------------------------------------ *)

let tiny_chip n = { Sim.default_config with Sim.arch = { Arch.default with Arch.num_pmu = n } }

let test_fallback_none () =
  let c = compile_spmv () in
  match Fallback.run ~policy:Fallback.No_fallback ~config:(tiny_chip 1) c with
  | Ok _ -> Alcotest.fail "expected infeasibility"
  | Error ds ->
      let d = List.hd ds in
      Alcotest.(check string) "infeasible code" Diag.code_infeasible d.Diag.code;
      Alcotest.(check bool) "names the limiting resource" true
        (List.mem_assoc "limiting" d.Diag.context)

let test_fallback_retile () =
  let c = compile_spmv () in
  match Fallback.run ~policy:Fallback.Retile ~config:(tiny_chip 4) c with
  | Error ds -> Alcotest.failf "retile failed: %s" (Diag.list_to_json ds)
  | Ok o ->
      (match o.Fallback.backend with
      | Fallback.Capstan_retiled _ -> ()
      | b -> Alcotest.failf "wrong backend %s" (Fallback.backend_name b));
      Alcotest.(check bool) "retile warning emitted" true
        (List.exists
           (fun d -> d.Diag.code = Diag.code_fallback_retile)
           o.Fallback.diags);
      Alcotest.(check bool) "retiled results still correct" true
        (close
           (List.assoc "y" o.Fallback.results)
           (spmv_expected (spmv_inputs ())))

let test_fallback_cpu () =
  let c = compile_spmv () in
  (* one PMU: no retiled mapping can fit either, so only the CPU policy
     survives *)
  (match Fallback.run ~policy:Fallback.Retile ~config:(tiny_chip 1) c with
  | Ok _ -> Alcotest.fail "retile policy should stop short"
  | Error ds ->
      Alcotest.(check bool) "policy boundary reported" true
        (List.exists
           (fun d ->
             Diag.is_error d && d.Diag.code = Diag.code_infeasible)
           ds));
  match Fallback.run ~policy:Fallback.Cpu ~config:(tiny_chip 1) c with
  | Error ds -> Alcotest.failf "cpu fallback failed: %s" (Diag.list_to_json ds)
  | Ok o ->
      Alcotest.(check bool) "cpu backend" true
        (o.Fallback.backend = Fallback.Cpu_baseline);
      Alcotest.(check bool) "no simulator report on the cpu path" true
        (o.Fallback.report = None);
      Alcotest.(check bool) "cpu warning emitted" true
        (List.exists
           (fun d -> d.Diag.code = Diag.code_fallback_cpu)
           o.Fallback.diags);
      (* the abandoned Capstan attempts ride along as notes, not errors *)
      Alcotest.(check bool) "trail is non-fatal" true
        (List.for_all (fun d -> not (Diag.is_error d)) o.Fallback.diags);
      Alcotest.(check bool) "cpu results correct" true
        (close
           (List.assoc "y" o.Fallback.results)
           (spmv_expected (spmv_inputs ())))

(* ------------------------------------------------------------------ *)
(* Hardened tensor I/O                                                 *)
(* ------------------------------------------------------------------ *)

let with_tmp content f =
  let path = Filename.temp_file "stardust_io" ".txt" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let header = "%%MatrixMarket matrix coordinate real general\n"

let check_mtx_error what content substr =
  with_tmp content (fun path ->
      match Io.read_matrix_market ~format:(F.csr ()) path with
      | _ -> Alcotest.failf "%s: expected Io_error" what
      | exception Io.Io_error m ->
          Alcotest.(check bool)
            (Fmt.str "%s: %S mentions %S" what m substr)
            true (contains m substr)
      | exception e ->
          Alcotest.failf "%s: unstructured exception %s" what
            (Printexc.to_string e))

let test_io_mtx_errors () =
  check_mtx_error "empty file" "" "unexpected end of file";
  check_mtx_error "no header" "1 1 1\n1 1 2.0\n" "missing MatrixMarket header";
  check_mtx_error "bad size line" (header ^ "3 3\n") ":2: bad size line";
  check_mtx_error "non-numeric size" (header ^ "3 x 3\n") ":2:";
  check_mtx_error "truncated entries"
    (header ^ "2 2 2\n1 1 1.0\n")
    ":3: truncated file: 1 of 2 entries";
  check_mtx_error "coordinate out of range"
    (header ^ "2 2 2\n1 1 1.0\n5 1 2.0\n")
    ":4: coordinate 5 (mode 0) exceeds the declared dimension 2";
  check_mtx_error "zero coordinate"
    (header ^ "2 2 1\n0 1 1.0\n")
    ":3: coordinate 0 (mode 0) is not positive";
  check_mtx_error "missing value" (header ^ "2 2 1\n1 1\n") ":3: missing value";
  check_mtx_error "duplicate entry"
    (header ^ "2 2 2\n1 1 1.0\n1 1 2.0\n")
    ":4: duplicate entry (1, 1)";
  check_mtx_error "trailing garbage"
    (header ^ "1 1 1\n1 1 2.0\njunk\n")
    ":4: trailing garbage"

let check_tns_error what content substr =
  with_tmp content (fun path ->
      match Io.read_tns ~format:(F.csr ()) path with
      | _ -> Alcotest.failf "%s: expected Io_error" what
      | exception Io.Io_error m ->
          Alcotest.(check bool)
            (Fmt.str "%s: %S mentions %S" what m substr)
            true (contains m substr)
      | exception e ->
          Alcotest.failf "%s: unstructured exception %s" what
            (Printexc.to_string e))

let test_io_tns_errors () =
  check_tns_error "ragged" "1 1 2.0\n1 1 1 3.0\n" ":2: ragged entry";
  check_tns_error "bad value" "1 1 abc\n" ":1:";
  check_tns_error "duplicate" "1 2 1.0\n1 2 4.0\n" ":2: duplicate entry 1 2";
  check_tns_error "empty" "" "no entries";
  with_tmp "1 1 2.0\n" (fun path ->
      match Io.read_tns ~format:(F.csr ()) ~dims:[ 3; 3; 3 ] path with
      | _ -> Alcotest.fail "expected arity mismatch"
      | exception Io.Io_error m ->
          Alcotest.(check bool) "arity mismatch reported" true
            (contains m "2 modes but dims declares 3"))

let test_io_valid_roundtrip_still_works () =
  (* hardening must not reject well-formed files: comments, blank tail *)
  with_tmp
    (header ^ "% a comment\n2 2 2\n1 2 1.5\n2 1 2.5\n\n% trailing comment\n")
    (fun path ->
      let t = Io.read_matrix_market ~format:(F.csr ()) path in
      Alcotest.(check int) "nnz" 2 (T.nnz t))

let suite =
  [
    Alcotest.test_case "pp and json" `Quick test_pp_and_json;
    Alcotest.test_case "caret rendering" `Quick test_render_caret;
    Alcotest.test_case "collector" `Quick test_collector;
    Alcotest.test_case "compile_result parse error" `Quick
      test_compile_result_parse_error;
    Alcotest.test_case "compile_result late error" `Quick
      test_compile_result_plan_error;
    Alcotest.test_case "compile_result ok" `Quick test_compile_result_ok;
    Alcotest.test_case "watchdog trips" `Quick test_watchdog;
    Alcotest.test_case "fault: dram stall storm" `Quick test_fault_dram_stall;
    Alcotest.test_case "fault: corrupt pos" `Quick test_fault_corrupt_pos;
    Alcotest.test_case "fault: corrupt crd" `Quick test_fault_corrupt_crd;
    Alcotest.test_case "fault: bad injection spec" `Quick test_fault_bad_spec;
    Alcotest.test_case "fallback: none fails structurally" `Quick
      test_fallback_none;
    Alcotest.test_case "fallback: retile" `Quick test_fallback_retile;
    Alcotest.test_case "fallback: cpu" `Quick test_fallback_cpu;
    Alcotest.test_case "io: malformed mtx" `Quick test_io_mtx_errors;
    Alcotest.test_case "io: malformed tns" `Quick test_io_tns_errors;
    Alcotest.test_case "io: valid file still reads" `Quick
      test_io_valid_roundtrip_still_works;
    QCheck_alcotest.to_alcotest fuzz_compile_total;
  ]
