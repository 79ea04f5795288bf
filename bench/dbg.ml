(* dbg — developer inspection tool for compiled kernels.

     dune exec bench/dbg.exe [KERNEL]         # loop/transfer structure

   Prints the compiled loop tree with trip annotations and DRAM transfers
   on the kernel's first benchmark dataset (default: TTV).  For the
   estimate's per-transfer bytes and cycles, run
   [stardustc profile KERNEL]: it attributes every [load]/[store] node. *)

module K = Stardust_core.Kernels
module Sim = Stardust_capstan.Sim
open Stardust_spatial.Spatial_ir

let rec walk pre body =
  List.iter
    (fun s ->
      match s with
      | Load_burst { dst; src; _ } -> Fmt.pr "%sLOAD %s <- %s@." pre dst src
      | Store_burst { dst; src; _ } -> Fmt.pr "%sSTORE %s -> %s@." pre src dst
      | Foreach { bind; body; trip; par; _ } ->
          Fmt.pr "%sFOREACH %s par %d [%a]@." pre bind par pp_trip trip;
          walk (pre ^ "  ") body
      | Reduce { bind; body; trip; par; _ } ->
          Fmt.pr "%sREDUCE %s par %d [%a]@." pre bind par pp_trip trip;
          walk (pre ^ "  ") body
      | Foreach_scan { body; trip; scan; _ } ->
          Fmt.pr "%sSCAN %s [%a]@." pre
            (match scan.op with
            | Scan_single -> "single" | Scan_and -> "and" | Scan_or -> "or")
            pp_trip trip;
          walk (pre ^ "  ") body
      | Reduce_scan { body; trip; scan; _ } ->
          Fmt.pr "%sRSCAN %s [%a]@." pre
            (match scan.op with
            | Scan_single -> "single" | Scan_and -> "and" | Scan_or -> "or")
            pp_trip trip;
          walk (pre ^ "  ") body
      | _ -> ())
    body

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "TTV" in
  match K.find name with
  | None -> Fmt.epr "unknown kernel %s@." name
  | Some spec ->
      let inst = List.hd (Suite.instances spec) in
      let st = List.hd spec.K.stages in
      let inputs = Stardust_core.Pipeline.stage_inputs st inst.Suite.inputs in
      let compiled = K.compile_stage spec st ~inputs in
      Fmt.pr "=== %s on %s: loop/transfer structure ===@." spec.K.kname
        inst.Suite.dname;
      walk "" compiled.Stardust_core.Compile.program.accel;
      let r = Sim.estimate compiled in
      Fmt.pr "@.estimate: cycles=%.3e compute=%.3e dram=%.3e bytes=%.3e iters=%.3e@."
        r.Sim.cycles r.Sim.compute_cycles r.Sim.dram_cycles r.Sim.streamed_bytes
        r.Sim.iterations
