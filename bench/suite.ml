(** Benchmark suite: the paper's kernels bound to the Table 4 datasets,
    with runners that evaluate every platform model.

    Datasets are generated deterministically (see
    {!Stardust_workloads.Datasets}) and memoised across experiments —
    several kernels share the same matrices.  Each kernel instance is
    compiled once and then costed on: Capstan with ideal network+memory,
    HBM2E, and DDR4 (via {!Stardust_capstan.Sim.estimate}); the 128-thread
    CPU model; and the V100 GPU model. *)

module T = Stardust_tensor.Tensor
module F = Stardust_tensor.Format
module K = Stardust_core.Kernels
module C = Stardust_core.Compile
module Plan = Stardust_core.Plan
module Pipeline = Stardust_core.Pipeline
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module Dram = Stardust_capstan.Dram
module Resources = Stardust_capstan.Resources
module Profile = Stardust_vonneumann.Profile
module Cpu_model = Stardust_vonneumann.Cpu_model
module Gpu_model = Stardust_vonneumann.Gpu_model
module D = Stardust_workloads.Datasets
module Coo = Stardust_tensor.Coo

(* -------------------------------------------------------------------- *)
(* Dataset registry (memoised)                                           *)
(* -------------------------------------------------------------------- *)

let cache : (string, T.t) Hashtbl.t = Hashtbl.create 32

let memo key f =
  match Hashtbl.find_opt cache key with
  | Some t -> t
  | None ->
      let t = f () in
      Hashtbl.add cache key t;
      t

(** Dense factor rank used for SDDMM/TTM/MTTKRP side matrices (the paper
    leaves it unstated; 32-64 is the usual factorisation rank). *)
let sddmm_rank = 64
let factor_rank = 32

let bcsstk30 fmt_tag fmt =
  memo ("bcsstk30/" ^ fmt_tag) (fun () -> D.bcsstk30_like ~format:fmt ())

let ckt11752 fmt_tag fmt =
  memo ("ckt11752/" ^ fmt_tag) (fun () -> D.ckt11752_like ~format:fmt ())

let trefethen fmt_tag fmt =
  memo ("trefethen/" ^ fmt_tag) (fun () -> D.trefethen_like ~format:fmt ())

let suitesparse fmt_tag fmt =
  [
    ("bcsstk30", fun () -> bcsstk30 fmt_tag fmt);
    ("ckt11752_dc_1", fun () -> ckt11752 fmt_tag fmt);
    ("Trefethen_20000", fun () -> trefethen fmt_tag fmt);
  ]

let facebook () = memo "facebook" (fun () -> D.facebook_like ~format:(F.csf 3) ())

let plus_matrix d =
  memo (Printf.sprintf "plusmat/%g" d) (fun () ->
      D.random_matrix ~name:"B" ~format:(F.csr ()) ~rows:800 ~cols:800
        ~density:d ())

let rand3 d =
  memo (Printf.sprintf "rand3/%g" d) (fun () ->
      D.random_tensor3 ~name:"B" ~format:(F.ucc ()) ~dims:[ 200; 200; 200 ]
        ~density:d ())

let densities = [ 0.01; 0.10; 0.50 ]

(** One benchmark instance: a named dataset binding for a kernel's inputs
    (stage-1 inputs; later stages consume earlier results). *)
type instance = { dname : string; inputs : (string * T.t) list }

let instances (spec : K.spec) : instance list =
  match spec.K.kname with
  | "SpMV" ->
      List.map
        (fun (dn, m) ->
          let a = m () in
          { dname = dn;
            inputs =
              [ ("A", T.rename "A" a);
                ("x", D.dense_vector ~name:"x" ~dim:(T.dim a 1) ()) ] })
        (suitesparse "csr" (F.csr ()))
  | "SDDMM" ->
      List.map
        (fun (dn, m) ->
          let b = m () in
          { dname = dn;
            inputs =
              [ ("B", T.rename "B" b);
                ("C",
                 D.dense_matrix ~name:"C" ~format:(F.rm ()) ~rows:(T.dim b 0)
                   ~cols:sddmm_rank ());
                ("D",
                 D.dense_matrix ~seed:5 ~name:"D" ~format:(F.rm ())
                   ~rows:(T.dim b 1) ~cols:sddmm_rank ()) ] })
        (suitesparse "csr" (F.csr ()))
  | "MatTransMul" ->
      List.map
        (fun (dn, m) ->
          let a = m () in
          { dname = dn;
            inputs =
              [ ("A", T.rename "A" a);
                ("x", D.dense_vector ~name:"x" ~dim:(T.dim a 0) ());
                ("z", D.dense_vector ~seed:6 ~name:"z" ~dim:(T.dim a 1) ()) ] })
        (suitesparse "csc" (F.csc ()))
  | "Residual" ->
      List.map
        (fun (dn, m) ->
          let a = m () in
          { dname = dn;
            inputs =
              [ ("A", T.rename "A" a);
                ("x", D.dense_vector ~name:"x" ~dim:(T.dim a 1) ());
                ("b", D.dense_vector ~seed:8 ~name:"b" ~dim:(T.dim a 0) ()) ] })
        (suitesparse "csr" (F.csr ()))
  | "Plus3" ->
      List.map
        (fun d ->
          let b = plus_matrix d in
          { dname = Printf.sprintf "random-%g%%" (100. *. d);
            inputs =
              [ ("B", T.rename "B" b);
                ("C", D.rotate_cols ~by:1 ~name:"C" b);
                ("D", D.rotate_cols ~by:2 ~name:"D" b) ] })
        densities
  | "TTV" ->
      let b = facebook () in
      [ { dname = "facebook";
          inputs =
            [ ("B", T.rename "B" b);
              ("c", D.dense_vector ~name:"c" ~dim:(T.dim b 2) ()) ] } ]
  | "TTM" ->
      let b = facebook () in
      [ { dname = "facebook";
          inputs =
            [ ("B", T.rename "B" b);
              ("C",
               D.dense_matrix ~name:"C" ~format:(F.cm ()) ~rows:factor_rank
                 ~cols:(T.dim b 2) ()) ] } ]
  | "MTTKRP" ->
      let b = facebook () in
      [ { dname = "facebook";
          inputs =
            [ ("B", T.rename "B" b);
              ("C",
               D.dense_matrix ~name:"C" ~format:(F.rm ()) ~rows:(T.dim b 1)
                 ~cols:factor_rank ());
              ("D",
               D.dense_matrix ~seed:9 ~name:"D" ~format:(F.rm ())
                 ~rows:(T.dim b 2) ~cols:factor_rank ()) ] } ]
  | "InnerProd" | "Plus2" ->
      List.map
        (fun d ->
          let b = rand3 d in
          { dname = Printf.sprintf "random-%g%%" (100. *. d);
            inputs =
              [ ("B", T.rename "B" b); ("C", D.rotate_even_last ~name:"C" b) ]
          })
        densities
  | k -> failwith ("no datasets for kernel " ^ k)

(* -------------------------------------------------------------------- *)
(* Stage composition                                                     *)
(* -------------------------------------------------------------------- *)

(** Sparse element-wise sum — used to materialise multi-stage
    intermediates (Plus3's [T = B + C]) without running a backend. *)
let sparse_add ~name ~format a b =
  let coo = Coo.create (T.dims a) in
  T.iter_nonzeros (fun c v -> Coo.add coo c v) a;
  T.iter_nonzeros (fun c v -> Coo.add coo c v) b;
  T.of_coo ~name ~format coo

(* -------------------------------------------------------------------- *)
(* Platforms                                                             *)
(* -------------------------------------------------------------------- *)

type platform =
  | Capstan_ideal
  | Capstan_hbm2e
  | Capstan_ddr4
  | Cpu128
  | Gpu_v100

let all_platforms = [ Capstan_ideal; Capstan_hbm2e; Capstan_ddr4; Cpu128; Gpu_v100 ]

let platform_name = function
  | Capstan_ideal -> "Capstan (Ideal Net & Mem)"
  | Capstan_hbm2e -> "Capstan (HBM2E)"
  | Capstan_ddr4 -> "Capstan (DDR4)"
  | Cpu128 -> "128-Thread CPU"
  | Gpu_v100 -> "V100 GPU"

let capstan_config = function
  | Capstan_ideal -> Sim.ideal_config
  | Capstan_hbm2e -> Sim.default_config
  | Capstan_ddr4 -> { Sim.arch = Arch.default; dram = Dram.ddr4 }
  | _ -> invalid_arg "not a Capstan platform"

(** The TACO baselines compile the {e default} schedule (canonical
    concretization, no accelerator commands), so the CPU/GPU models profile
    a default-schedule plan rather than the Capstan-scheduled one. *)
let default_profile (st : K.stage) ~inputs =
  let a = Stardust_ir.Parser.parse_assign st.K.expr in
  let sched = Stardust_schedule.Schedule.of_assign ~formats:st.K.formats a in
  let sched =
    match st.K.baseline_reorder with
    | Some order -> Stardust_schedule.Schedule.reorder sched order
    | None -> sched
  in
  let plan = Plan.build sched ~inputs in
  Profile.of_plan plan ~inputs

(** Seconds on one platform for one compiled stage. *)
let stage_seconds ?baseline_profile platform (compiled : C.compiled) =
  let profile () =
    match baseline_profile with
    | Some p -> p
    | None -> Profile.of_plan compiled.C.plan ~inputs:compiled.C.inputs
  in
  match platform with
  | Capstan_ideal | Capstan_hbm2e | Capstan_ddr4 ->
      (Sim.estimate ~config:(capstan_config platform) compiled).Sim.seconds
  | Cpu128 -> (Cpu_model.run (profile ())).Cpu_model.seconds
  | Gpu_v100 -> (Gpu_model.run (profile ())).Gpu_model.seconds

(** Results of one kernel on one dataset instance. *)
type run = {
  spec : K.spec;
  instance : string;
  seconds : (platform * float) list;  (** summed over stages *)
  compiled : C.compiled list;  (** per stage, on this instance *)
}

let run_instance (spec : K.spec) (inst : instance) : run =
  let compiled_stages =
    Pipeline.run spec ~inputs:inst.inputs (fun st ~inputs ->
        let compiled = K.compile_stage spec st ~inputs in
        let baseline = default_profile st ~inputs in
        (* Materialise a multi-stage kernel's intermediate (Plus3's
           [T = B + C]) for the stages after it. *)
        let outputs =
          if List.length spec.K.stages = 1 then []
          else
            let parsed = Stardust_ir.Parser.parse_assign st.K.expr in
            match Stardust_ir.Ast.tensors_of_expr parsed.Stardust_ir.Ast.rhs with
            | [ a; b ] when List.mem_assoc a inputs && List.mem_assoc b inputs
              ->
                [ ( st.K.result,
                    sparse_add ~name:st.K.result ~format:st.K.result_format
                      (List.assoc a inputs) (List.assoc b inputs) ) ]
            | _ -> []
        in
        ((compiled, baseline), outputs))
  in
  let seconds =
    List.map
      (fun p ->
        ( p,
          List.fold_left
            (fun acc (c, baseline) ->
              acc +. stage_seconds ~baseline_profile:baseline p c)
            0.0 compiled_stages ))
      all_platforms
  in
  {
    spec;
    instance = inst.dname;
    seconds;
    compiled = List.map fst compiled_stages;
  }

let run_kernel spec = List.map (run_instance spec) (instances spec)

(** Geometric mean. *)
let gmean = function
  | [] -> nan
  | l ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

(** Per-kernel geomean seconds per platform. *)
let kernel_gmeans (runs : run list) platform =
  gmean (List.map (fun r -> List.assoc platform r.seconds) runs)
