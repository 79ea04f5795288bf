(* Streaming dataset ingestion: the committed malformed-fixture corpus
   maps to stable E021x codes with line numbers, write->read round-trips
   preserve values, faults inject cleanly, budgets bite, and the
   out-of-core tiling rung reproduces the untiled reference. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Coo = Stardust_tensor.Coo
module Tio = Stardust_tensor.Tensor_io
module Stats_cache = Stardust_tensor.Stats_cache
module D = Stardust_workloads.Datasets
module C = Stardust_core.Compile
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module Resources = Stardust_capstan.Resources
module Imp = Stardust_vonneumann.Imp_interp
module Fallback = Stardust_driver.Fallback
module Diag = Stardust_diag.Diag
module Metrics = Stardust_obs.Metrics
module Ingest = Stardust_ingest.Ingest
module Tile = Stardust_ingest.Tile
module Ingest_fuzz = Stardust_ingest.Ingest_fuzz

let fx name = Filename.concat "fixtures/ingest" name

let context_line (d : Diag.t) =
  match List.assoc_opt "line" d.Diag.context with
  | Some l -> int_of_string l
  | None -> Alcotest.failf "diagnostic %s carries no line context" d.Diag.code

(* Read a fixture expecting a structured reject; returns the diagnostic. *)
let expect_reject ?dims ?budget ?faults ~format ~code ?line path =
  match Ingest.read_file_result ?dims ?budget ?faults ~format path with
  | Ok t ->
      Alcotest.failf "%s parsed (%d nnz) but should reject with %s" path
        (T.nnz t) code
  | Error [] -> Alcotest.failf "%s rejected with an empty diagnostic list" path
  | Error (d :: _) ->
      Alcotest.(check string) (path ^ " code") code d.Diag.code;
      Alcotest.(check string)
        (path ^ " stage") "ingest" (Diag.stage_name d.Diag.stage);
      (match line with
      | Some l -> Alcotest.(check int) (path ^ " line") l (context_line d)
      | None -> ());
      d

(* ------------------------------------------------------------------ *)
(* The malformed corpus                                                *)
(* ------------------------------------------------------------------ *)

let test_corpus_codes () =
  let mtx = F.csr () and tns = F.ucc () in
  ignore (expect_reject ~format:mtx ~code:"E0211" ~line:1 (fx "bad_header.mtx"));
  ignore (expect_reject ~format:mtx ~code:"E0215" ~line:4 (fx "truncated.mtx"));
  ignore
    (expect_reject ~format:mtx ~code:"E0212" ~line:4 (fx "out_of_range.mtx"));
  ignore (expect_reject ~format:mtx ~code:"E0213" ~line:5 (fx "duplicate.mtx"));
  ignore
    (expect_reject ~format:mtx ~code:"E0213" ~line:5 (fx "symmetric_dup.mtx"));
  ignore
    (expect_reject ~format:mtx ~code:"E0212" ~line:4 (fx "pattern_value.mtx"));
  ignore (expect_reject ~format:mtx ~code:"E0212" ~line:5 (fx "trailing.mtx"));
  ignore (expect_reject ~format:mtx ~code:"E0212" ~line:4 (fx "bad_value.mtx"));
  ignore (expect_reject ~format:(F.csf 2) ~code:"E0212" ~line:2 (fx "ragged.tns"));
  ignore (expect_reject ~format:(F.csf 2) ~code:"E0213" (fx "dup.tns"));
  ignore (expect_reject ~format:tns ~code:"E0215" (fx "empty.tns"));
  ignore
    (expect_reject ~format:mtx ~code:"E0210" (fx "does_not_exist.mtx"));
  ignore (expect_reject ~format:mtx ~code:"E0210" (fx "good.tnsx"))

let test_corpus_messages () =
  let d =
    expect_reject ~format:(F.csr ()) ~code:"E0215" (fx "truncated.mtx")
  in
  Alcotest.(check string)
    "truncation names the deficit" "truncated file: 2 of 5 entries"
    d.Diag.message;
  let d = expect_reject ~format:(F.csr ()) ~code:"E0213" (fx "duplicate.mtx") in
  Alcotest.(check string)
    "duplicate names the coordinate" "duplicate entry (1, 1)" d.Diag.message

(* every reject carries a file context and a char-offset span pointing at
   the offending line *)
let test_spans () =
  match
    Ingest.read_file_result ~format:(F.csr ()) (fx "out_of_range.mtx")
  with
  | Ok _ -> Alcotest.fail "out_of_range parsed"
  | Error [] -> Alcotest.fail "empty diagnostics"
  | Error (d :: _) ->
      Alcotest.(check bool)
        "file context present" true
        (List.mem_assoc "file" d.Diag.context);
      (match d.Diag.span with
      | None -> Alcotest.fail "no span"
      | Some s ->
          Alcotest.(check bool) "span is ordered" true (s.Diag.stop > s.Diag.start);
          (* line 4 is "9 1 2.0": starts after header+size+first entry *)
          Alcotest.(check bool) "span is inside the file" true (s.Diag.start > 0))

(* ------------------------------------------------------------------ *)
(* Healthy files: equivalence with the legacy readers, determinism      *)
(* ------------------------------------------------------------------ *)

let test_good_mtx () =
  match Ingest.read_file_result ~format:(F.csr ()) (fx "good.mtx") with
  | Error _ -> Alcotest.fail "good.mtx rejected"
  | Ok t ->
      Alcotest.(check int) "nnz" 5 (T.nnz t);
      let legacy = Tio.read_matrix_market ~format:(F.csr ()) (fx "good.mtx") in
      Alcotest.(check bool)
        "streaming reader agrees with the legacy reader" true
        (T.approx_equal t legacy)

let test_good_tns () =
  match Ingest.read_file_result ~format:(F.ucc ()) (fx "good.tns") with
  | Error _ -> Alcotest.fail "good.tns rejected"
  | Ok t ->
      Alcotest.(check int) "nnz" 4 (T.nnz t);
      Alcotest.(check (array int)) "inferred dims" [| 3; 2; 3 |] (T.dims t);
      let legacy = Tio.read_tns ~format:(F.ucc ()) (fx "good.tns") in
      Alcotest.(check bool)
        "streaming reader agrees with the legacy reader" true
        (T.approx_equal t legacy)

(* the same bytes always produce the same tensor, hence the same
   plan-cache fingerprint — ingestion is deterministic *)
let test_fingerprint_stable () =
  let read () =
    match Ingest.read_file_result ~format:(F.csr ()) (fx "good.mtx") with
    | Ok t -> Stats_cache.fingerprint t
    | Error _ -> Alcotest.fail "good.mtx rejected"
  in
  Alcotest.(check string) "fingerprints agree" (read ()) (read ())

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let test_budgets () =
  let format = F.csr () in
  ignore
    (expect_reject ~format
       ~budget:(Ingest.budget ~max_nnz:2 ())
       ~code:"E0214" (fx "good.mtx"));
  ignore
    (expect_reject ~format
       ~budget:(Ingest.budget ~max_bytes:40 ())
       ~code:"E0214" (fx "good.mtx"));
  (* generous budgets admit the file *)
  match
    Ingest.read_file_result ~format
      ~budget:(Ingest.budget ~max_nnz:1000 ~max_bytes:100_000 ())
      (fx "good.mtx")
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "good.mtx rejected under generous budgets"

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_faults () =
  let format = F.csr () in
  ignore
    (expect_reject ~format ~faults:[ Ingest.Deny_open ] ~code:"E0210"
       (fx "good.mtx"));
  (* cutting the file at an entry boundary (byte 86 ends "1 1 2.0") is
     a truncation; cutting mid-entry leaves a malformed partial line *)
  ignore
    (expect_reject ~format
       ~faults:[ Ingest.Truncate_at 86 ]
       ~code:"E0215" (fx "good.mtx"));
  ignore
    (expect_reject ~format
       ~faults:[ Ingest.Truncate_at 80 ]
       ~code:"E0212" (fx "good.mtx"));
  (* corrupting a value digit (byte 82 is the '2' of "2.0") into garbage
     is an entry error *)
  let d =
    expect_reject ~format
      ~faults:[ Ingest.Corrupt_byte { at = 82; value = 'z' } ]
      ~code:"E0212" (fx "good.mtx")
  in
  Alcotest.(check bool)
    "corruption is a parse reject, not a crash" true
    (String.length d.Diag.message > 0)

(* after every path — success, reject, injected fault — no fd is held *)
let test_fd_balance () =
  let format = F.csr () in
  ignore (Ingest.read_file_result ~format (fx "good.mtx"));
  ignore (Ingest.read_file_result ~format (fx "truncated.mtx"));
  ignore (Ingest.read_file_result ~format (fx "does_not_exist.mtx"));
  ignore
    (Ingest.read_file_result ~format ~faults:[ Ingest.Deny_open ]
       (fx "good.mtx"));
  Alcotest.(check int) "no fds held" 0 (Ingest.open_fds ())

(* a short burst of the byte-mutation fuzzer runs clean in-tree *)
let test_fuzz_burst () =
  let stats = Ingest_fuzz.run ~cases:60 ~seed:2026 () in
  Alcotest.(check (list string)) "no envelope escapes" [] stats.Ingest_fuzz.failures;
  Alcotest.(check int) "all cases ran" 60 stats.Ingest_fuzz.cases

(* The outcome of every case of a long fuzz run — each reject's code,
   message, line and span, each parse's fingerprint — pinned by digest.
   Captured from the hash-table reader the sort-based one replaced. *)
let test_fuzz_digest () =
  let stats = Ingest_fuzz.run ~cases:2000 ~seed:42 () in
  Alcotest.(check (list string)) "no envelope escapes" [] stats.Ingest_fuzz.failures;
  Alcotest.(check (triple int int int))
    "cases, parsed, rejected" (2000, 357, 1643)
    (stats.Ingest_fuzz.cases, stats.Ingest_fuzz.ok, stats.Ingest_fuzz.rejected);
  Alcotest.(check string)
    "outcome digest" "c29d1f03eb79fc9bfd1629502d685fb9" stats.Ingest_fuzz.digest

let outcome ~format name =
  let path = fx name in
  Ingest_fuzz.outcome_line ~path (Ingest.read_file_result ~format path)

(* Outcomes pinned from the hash-table reader: a duplicate outranks a
   malformed later line; a symmetric mirror collides at the explicit
   entry's line; [int_of_string] syntax still parses and a 25-digit
   coordinate still rejects with the same message. *)
let test_pinned_outcomes () =
  let csr = F.csr () in
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) name want (outcome ~format:csr name))
    [
      ("dup_then_malformed.mtx",
       "E0213 \"duplicate entry (1, 1)\" line=5 span=68-76");
      ("symmetric_mirror.mtx",
       "E0213 \"duplicate entry (2, 1)\" line=5 span=70-78");
      ("symmetric_dup.mtx",
       "E0213 \"duplicate entry (1, 2)\" line=5 span=70-78");
      ("duplicate.mtx", "E0213 \"duplicate entry (1, 1)\" line=5 span=68-76");
      ("odd_ints.mtx", "ok mtx|12x12|csr:01|4|f4cb6d6a0b2de1bf");
      ("long_int.mtx",
       "E0212 \"coordinate (mode 0) is not an integer: \\\"1000000000000000000000001\\\"\" \
        line=3 span=52-84");
    ];
  Alcotest.(check string)
    "dup.tns" "E0213 \"duplicate entry 1 1\" line=3 span=-"
    (outcome ~format:(F.csf 2) "dup.tns");
  match Ingest.read_file_result ~format:csr (fx "odd_ints.mtx") with
  | Error _ -> Alcotest.fail "odd_ints.mtx rejected"
  | Ok t ->
      Alcotest.(check (list (pair (array int) (float 0.0))))
        "+2 0x2, 1_0, 0x0b 007, 19-digit zero-padded"
        [ ([| 1; 1 |], 1.0); ([| 9; 2 |], 2.0); ([| 10; 6 |], 3.0);
          ([| 11; 0 |], 4.0) ]
        (T.to_entries t)

(* A 10^12 x 10^12 header with one entry, all-compressed: the sort's
   buckets stay small whatever the dimensions, so the read allocates
   next to nothing. *)
let test_huge_dims () =
  let format = F.make [ F.Compressed; F.Compressed ] in
  let before = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  let got = outcome ~format "huge_dims.mtx" in
  let words = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check string)
    "parses" "ok mtx|1000000000000x1000000000000|csf2:01|1|d10e4b1d781ec3ed" got;
  if words > 100_000.0 then
    Alcotest.failf "reading one entry allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Write -> read round-trips (QCheck)                                  *)
(* ------------------------------------------------------------------ *)

let with_tmp ext f =
  let path = Filename.temp_file "stardust-ingest-test" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let random_tensor ~seed ~order =
  let dims = List.init order (fun i -> 3 + ((seed + i) mod 5)) in
  let density = 0.2 +. (float_of_int (seed mod 5) /. 10.0) in
  let format = if order = 2 then F.csr () else F.csf order in
  D.small_random ~seed ~name:"t" ~format ~dims ~density ()

let prop_mtx_roundtrip =
  QCheck.Test.make ~name:"mtx write -> streaming read round-trips" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let t = random_tensor ~seed ~order:2 in
      QCheck.assume (T.nnz t > 0);
      with_tmp ".mtx" (fun path ->
          Tio.write_matrix_market t path;
          match
            Ingest.read_matrix_market_result ~format:(F.csr ()) path
          with
          | Error _ -> false
          | Ok back ->
              (* writer drops trailing empty rows/cols from nothing — dims
                 come from the size line, which the writer preserves *)
              T.approx_equal t back))

let prop_tns_roundtrip =
  QCheck.Test.make ~name:"tns write -> streaming read round-trips" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 1 3))
    (fun (seed, order) ->
      let t = random_tensor ~seed ~order in
      QCheck.assume (T.nnz t > 0);
      with_tmp ".tns" (fun path ->
          Tio.write_tns t path;
          match
            Ingest.read_tns_result
              ~dims:(Array.to_list (T.dims t))
              ~format:(T.format t) path
          with
          | Error _ -> false
          | Ok back -> T.approx_equal t back))

(* ------------------------------------------------------------------ *)
(* Out-of-core tiling                                                  *)
(* ------------------------------------------------------------------ *)

let spmv_expr = "y(i) = A(i,j) * x(j)"
let spmv_formats = [ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ]

let spmv_compiled ?(n = 1024) ?(density = 0.02) () =
  let a =
    D.small_random ~seed:7 ~name:"A" ~format:(F.csr ()) ~dims:[ n; n ]
      ~density ()
  in
  let x = D.dense_vector ~seed:8 ~name:"x" ~dim:n () in
  C.compile_string ~formats:spmv_formats
    ~inputs:[ ("A", a); ("x", x) ]
    spmv_expr

(* a chip whose total SRAM (12 PMUs of 4 x 64 words = 3072 words) is far
   under the ~40k-word spmv operand footprint: the dense result and the
   on-chip x gather alone exceed the PMU count untiled, while a
   coordinate slice of the rows fits *)
let cramped_config =
  {
    Sim.default_config with
    Sim.arch =
      {
        Arch.default with
        Arch.num_pmu = 12;
        pmu_banks = 4;
        pmu_words_per_bank = 64;
      };
  }

let test_tile_restrict () =
  let coo = Coo.create [| 4; 3 |] in
  Coo.add coo [| 0; 0 |] 1.0;
  Coo.add coo [| 1; 2 |] 2.0;
  Coo.add coo [| 2; 1 |] 3.0;
  Coo.add coo [| 3; 0 |] 4.0;
  let t = T.of_coo ~name:"t" ~format:(F.csr ()) coo in
  let s = Tile.restrict t ~modes:[ 0 ] ~lo:1 ~hi:3 in
  Alcotest.(check (array int)) "sliced dims" [| 2; 3 |] (T.dims s);
  Alcotest.(check int) "sliced nnz" 2 (T.nnz s)

let test_tile_plan_structural () =
  (* on the default chip the operands fit: tiling must refuse, so the
     fallback ladder keeps its pinned retile/cpu behavior *)
  let c = spmv_compiled ~n:16 ~density:0.3 () in
  match Tile.plan Arch.default c with
  | Error reason ->
      Alcotest.(check bool)
        "refusal says structural" true
        (String.length reason > 0)
  | Ok _ -> Alcotest.fail "tiling planned although the data fits on chip"

let test_tile_plan_capacity () =
  let c = spmv_compiled () in
  match Tile.plan cramped_config.Sim.arch c with
  | Error reason -> Alcotest.failf "no plan on the cramped chip: %s" reason
  | Ok (shard, ranges) ->
      Alcotest.(check string) "shards the row variable" "i" shard.Tile.var;
      Alcotest.(check bool) "at least two tiles" true (List.length ranges >= 2);
      (* ranges partition [0, extent) *)
      let covered =
        List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges
      in
      Alcotest.(check int) "ranges cover the extent" shard.Tile.extent covered

let test_tile_failure_keeps_code () =
  (* a fault naming no tensor makes every tile's simulation fail with
     E0604; that code, not "tile execution died", must reach the caller *)
  let faults =
    [ Sim.Corrupt_pos { tensor = "nope"; level = 0; index = 0; value = 0.0 } ]
  in
  match Tile.attempt ~config:cramped_config ~faults (spmv_compiled ()) with
  | Ok _ -> Alcotest.fail "tiles ran although every one was faulted"
  | Error ds ->
      Alcotest.(check bool) "some tile failed" true (ds <> []);
      List.iter
        (fun (d : Diag.t) ->
          Alcotest.(check string) "simulator's own code" Diag.code_sim_fault
            d.Diag.code)
        ds

let test_tiled_fallback_end_to_end () =
  Metrics.reset ();
  let c = spmv_compiled () in
  (* the untiled kernel must really not fit this chip *)
  let u = Resources.count cramped_config.Sim.arch c in
  Alcotest.(check bool) "untiled spmv is infeasible" false u.Resources.feasible;
  match Fallback.run ~policy:Fallback.Tiled ~config:cramped_config c with
  | Error ds ->
      Alcotest.failf "tiled fallback failed: %a"
        Fmt.(list ~sep:(any "; ") Diag.pp)
        ds
  | Ok o ->
      (match o.Fallback.backend with
      | Fallback.Capstan_tiled _ -> ()
      | b -> Alcotest.failf "expected capstan-tiled, got %s" (Fallback.backend_name b));
      Alcotest.(check bool)
        "W0105 warning in the trail" true
        (List.exists
           (fun (d : Diag.t) -> d.Diag.code = Diag.code_fallback_tiled)
           o.Fallback.diags);
      (* the reduced result equals the untiled CPU reference *)
      let expected, _, _ = Imp.run c.C.plan ~inputs:c.C.inputs in
      let y = List.assoc "y" o.Fallback.results in
      Alcotest.(check bool)
        "tiled result matches the untiled reference" true
        (T.approx_equal y (List.assoc "y" expected));
      Alcotest.(check bool)
        "tiling metrics recorded" true
        (Metrics.value (Metrics.counter "tiling_success_total") >= 1.0)

let test_tiled_policy_gating () =
  let c = spmv_compiled () in
  (* Retile policy must not take the tiled rung *)
  match Fallback.run ~policy:Fallback.Retile ~config:cramped_config c with
  | Ok o -> (
      match o.Fallback.backend with
      | Fallback.Capstan_tiled _ ->
          Alcotest.fail "retile policy took the tiled rung"
      | _ -> ())
  | Error _ -> (* failing outright is fine; tiling was off the table *) ()

let suite =
  [
    Alcotest.test_case "corpus: stable E021x codes and lines" `Quick
      test_corpus_codes;
    Alcotest.test_case "corpus: pinned messages" `Quick test_corpus_messages;
    Alcotest.test_case "rejects carry spans and file context" `Quick test_spans;
    Alcotest.test_case "good.mtx: agrees with legacy reader" `Quick
      test_good_mtx;
    Alcotest.test_case "good.tns: agrees with legacy reader" `Quick
      test_good_tns;
    Alcotest.test_case "ingestion is fingerprint-deterministic" `Quick
      test_fingerprint_stable;
    Alcotest.test_case "budgets reject with E0214" `Quick test_budgets;
    Alcotest.test_case "fault injection stays in the envelope" `Quick
      test_faults;
    Alcotest.test_case "fd gauge returns to zero" `Quick test_fd_balance;
    Alcotest.test_case "mutation fuzz burst: no escapes" `Quick
      test_fuzz_burst;
    Alcotest.test_case "fuzz outcome digest is pinned" `Quick test_fuzz_digest;
    Alcotest.test_case "pinned fixture outcomes" `Quick test_pinned_outcomes;
    Alcotest.test_case "10^12 dims parse in bounded memory" `Quick
      test_huge_dims;
    QCheck_alcotest.to_alcotest prop_mtx_roundtrip;
    QCheck_alcotest.to_alcotest prop_tns_roundtrip;
    Alcotest.test_case "tile: restrict slices and remaps" `Quick
      test_tile_restrict;
    Alcotest.test_case "tile: plan refuses structural misfits" `Quick
      test_tile_plan_structural;
    Alcotest.test_case "tile: plan shards on capacity misfits" `Quick
      test_tile_plan_capacity;
    Alcotest.test_case "tile: a failing tile keeps its own code" `Quick
      test_tile_failure_keeps_code;
    Alcotest.test_case "tiled fallback matches untiled reference" `Quick
      test_tiled_fallback_end_to_end;
    Alcotest.test_case "retile policy skips the tiled rung" `Quick
      test_tiled_policy_gating;
  ]
