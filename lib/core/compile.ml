(** The Stardust compiler driver — the public entry point.

    [compile] takes the three Stardust inputs — a tensor-algebra expression
    (already scheduled: a {!Stardust_schedule.Schedule.t}) and the concrete
    input tensors — and produces a {!Stardust_spatial.Spatial_ir.program}
    together with the compilation plan that sized it.  Convenience helpers
    parse expressions from strings and build default schedules.

    Two API surfaces:

    - {!compile_result} / {!compile_string_result} return
      [(compiled, Diag.t list) result]: every stage exception
      ([Parse_error], [Schedule_error], [Plan_error], [Lower_error],
      Spatial validation) is converted into located, stage-tagged
      {!Stardust_diag.Diag.t} diagnostics, and even unexpected exceptions
      are captured rather than escaping.
    - {!compile} / {!compile_string} are thin raising shims kept for
      existing callers: they raise {!Compile_error} with the rendered
      diagnostic text.

    Underneath both, compilation is two steps: {!structure_result}
    compiles a schedule with its parallelization factors left as
    markers, and {!bind} stamps real factors into that structure.
    {!compile_result} is the two in sequence; a search runs the first
    once per structure and the second once per point. *)

module Tensor = Stardust_tensor.Tensor
module Format = Stardust_tensor.Format
module Ast = Stardust_ir.Ast
module Parser = Stardust_ir.Parser
module Cin = Stardust_ir.Cin
module Schedule = Stardust_schedule.Schedule
module Diag = Stardust_diag.Diag
module Trace = Stardust_obs.Trace
module Metrics = Stardust_obs.Metrics
module Spatial_ir = Stardust_spatial.Spatial_ir

(* Span categories follow the [Diag.stage] enum, so trace viewers and
   diagnostics speak the same stage vocabulary. *)
let span_cat stage = Diag.stage_name stage

(* Handles are looked up per event rather than cached: registration is a
   mutex-guarded hashtable hit, and re-resolving keeps the counters live
   across a [Metrics.reset] (the test suite resets between cases). *)
let count name help = Metrics.inc (Metrics.counter ~help name)

type compiled = {
  name : string;
  schedule : Schedule.t;
  plan : Plan.t;
  program : Spatial_ir.program;
  inputs : (string * Tensor.t) list;
}

exception Compile_error of string

(* ------------------------------------------------------------------ *)
(* Diagnostic-producing driver                                         *)
(* ------------------------------------------------------------------ *)

(** Convert one caught stage exception into its diagnostic.  [name] tags
    every diagnostic with the kernel being compiled. *)
let diag_of_exn ~name (e : exn) : Diag.t =
  let ctx = [ ("kernel", name) ] in
  match e with
  | Parser.Parse_error (m, off) ->
      Diag.error ~stage:Diag.Parse ~code:Diag.code_parse
        ~span:{ Diag.start = off; stop = off + 1 }
        ~context:ctx "%s" m
  | Schedule.Schedule_error m ->
      Diag.error ~stage:Diag.Schedule ~code:Diag.code_schedule ~context:ctx
        "%s" m
  | Plan.Plan_error m ->
      Diag.error ~stage:Diag.Plan ~code:Diag.code_plan ~context:ctx "%s" m
  | Coiter.Lower_error m ->
      Diag.error ~stage:Diag.Lower ~code:Diag.code_lower ~context:ctx "%s" m
  | Compile_error m ->
      Diag.error ~stage:Diag.Driver ~code:Diag.code_unexpected ~context:ctx
        "%s" m
  | e ->
      Diag.error ~stage:Diag.Driver ~code:Diag.code_unexpected
        ~context:(("exception", Printexc.to_string e) :: ctx)
        "unexpected exception during compilation"

(* Structure vs binding.  The plan and the lowered program depend on the
   parallelization factors only through values stamped last: the plan's
   [inner_par]/[outer_par], the schedule's [innerPar]/[outerPar]
   environment, and the program's [par]/[scan_par] fields and [env].  So
   a kernel is compiled once as a par-free structure, carrying the
   {!Spatial_ir.par_inner}/{!Spatial_ir.par_outer} markers in all of
   those places, and {!bind} stamps the real factors.  A search compiles
   each structure once and binds it for every factor pair it visits. *)

let with_pars ~inner ~outer sched =
  Schedule.rebind_environment
    (Schedule.rebind_environment sched "innerPar" inner)
    "outerPar" outer

(* Plan, lower and validate [sched] with its factors left as markers. *)
let structure ~name ?sram_budget sched ~inputs =
  let sched =
    with_pars ~inner:Spatial_ir.par_inner ~outer:Spatial_ir.par_outer sched
  in
  match
    let plan =
      Trace.with_span ~cat:(span_cat Diag.Plan)
        ~args:[ ("kernel", name) ]
        ("plan " ^ name)
        (fun () -> Plan.build ?sram_budget sched ~inputs)
    in
    let plan =
      { plan with
        Plan.inner_par = Spatial_ir.par_inner;
        outer_par = Spatial_ir.par_outer }
    in
    let program =
      Trace.with_span ~cat:(span_cat Diag.Lower)
        ~args:[ ("kernel", name) ]
        ("lower " ^ name)
        (fun () -> Lower.lower ~name plan)
    in
    (plan, program)
  with
  | exception Diag.Fail ds -> Error ds
  | exception e -> Error [ diag_of_exn ~name e ]
  | plan, program -> (
      match
        Trace.with_span ~cat:(span_cat Diag.Codegen)
          ~args:[ ("kernel", name) ]
          ("validate " ^ name)
          (fun () -> Spatial_ir.validate program)
      with
      | [] -> Ok { name; schedule = sched; plan; program; inputs }
      | errs ->
          (* validation reports every structural defect, not just the
             first: one diagnostic each *)
          Error
            (List.map
               (fun m ->
                 Diag.error ~stage:Diag.Codegen ~code:Diag.code_codegen
                   ~context:[ ("kernel", name) ]
                   "generated Spatial program is invalid: %s" m)
               errs))

(** Stamp real factors into a structure: the result is the compilation
    of the structure's schedule at [innerPar = inner] and
    [outerPar = outer].
    @raise Invalid_argument when [c] is not a structure or a factor is
    negative. *)
let bind ~inner ~outer (c : compiled) =
  if
    c.plan.Plan.inner_par <> Spatial_ir.par_inner
    || c.plan.Plan.outer_par <> Spatial_ir.par_outer
  then invalid_arg "Compile.bind: not a par-free structure";
  let schedule = with_pars ~inner ~outer c.schedule in
  {
    c with
    schedule;
    plan = { c.plan with Plan.sched = schedule; inner_par = inner; outer_par = outer };
    program = Spatial_ir.bind_par ~inner ~outer c.program;
  }

let counted result =
  count "compile_total" "kernels entering the compile driver";
  (match result () with
  | Error _ as e ->
      count "compile_errors_total"
        "compilations that produced error diagnostics";
      e
  | Ok _ as ok -> ok)

(** [structure_result ~name sched ~inputs] compiles the par-free
    structure of [sched] (see {!bind}); [sched]'s own factors are
    ignored. *)
let structure_result ?(name = "kernel") ?sram_budget (sched : Schedule.t)
    ~(inputs : (string * Tensor.t) list) : (compiled, Diag.t list) result =
  counted (fun () -> structure ~name ?sram_budget sched ~inputs)

(** [compile_result ~name sched ~inputs] runs planning (co-iteration
    analysis and memory binding) and lowering of [sched]'s structure,
    then binds [sched]'s factors, returning either the compiled kernel or
    the accumulated diagnostics.  No stage exception escapes. *)
let compile_result ?(name = "kernel") ?sram_budget (sched : Schedule.t)
    ~(inputs : (string * Tensor.t) list) : (compiled, Diag.t list) result =
  let inner, outer = Plan.pars sched in
  counted (fun () ->
      Result.bind (structure ~name ?sram_budget sched ~inputs) (fun s ->
          match bind ~inner ~outer s with
          | c -> Ok c
          | exception e -> Error [ diag_of_exn ~name e ]))

(** Parse an index-notation string into its canonical schedule, reporting
    parse and scheduling failures as located diagnostics. *)
let schedule_of_string_result ~formats s : (Schedule.t, Diag.t list) result =
  match
    Trace.with_span ~cat:(span_cat Diag.Parse) "parse" (fun () ->
        Parser.parse_assign s)
  with
  | a -> (
      match
        Trace.with_span ~cat:(span_cat Diag.Schedule) "schedule" (fun () ->
            Schedule.of_assign ~formats a)
      with
      | sched -> Ok sched
      | exception e -> Error [ diag_of_exn ~name:"kernel" e ])
  | exception e -> Error [ diag_of_exn ~name:"kernel" e ]

(** One-call convenience: parse, schedule canonically, and compile, with
    all failures as diagnostics.  The parse span refers to [s]. *)
let compile_string_result ?name ?sram_budget ~formats ~inputs s :
    (compiled, Diag.t list) result =
  match schedule_of_string_result ~formats s with
  | Error ds -> Error ds
  | Ok sched -> compile_result ?name ?sram_budget sched ~inputs

(* ------------------------------------------------------------------ *)
(* Raising shims (legacy API)                                          *)
(* ------------------------------------------------------------------ *)

let render_diags ds =
  String.concat "; " (List.map Diag.to_string ds)

(** Raising shim over {!compile_result}.
    @raise Compile_error when planning, lowering, or validation fails. *)
let compile ?name ?sram_budget (sched : Schedule.t)
    ~(inputs : (string * Tensor.t) list) : compiled =
  match compile_result ?name ?sram_budget sched ~inputs with
  | Ok c -> c
  | Error ds -> raise (Compile_error (render_diags ds))

(** Parse an index-notation string and build its canonical schedule.
    [formats] must cover every tensor named in the expression. *)
let schedule_of_string ~formats s =
  match schedule_of_string_result ~formats s with
  | Ok sched -> sched
  | Error ds -> raise (Compile_error (render_diags ds))

(** One-call convenience: parse, schedule canonically, and compile. *)
let compile_string ?name ?sram_budget ~formats ~inputs s =
  match compile_string_result ?name ?sram_budget ~formats ~inputs s with
  | Ok c -> c
  | Error ds -> raise (Compile_error (render_diags ds))

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** The generated Spatial source text. *)
let spatial_code c = Stardust_spatial.Codegen.to_string c.program

(** Generated lines of code (Table 3's "Spatial" column). *)
let spatial_loc c = Stardust_spatial.Codegen.lines_of_code c.program

(** Input lines of code (Table 3's "Input" column): format declarations +
    algorithm + scheduling commands + one output statement, matching the
    paper's accounting in section 8.3. *)
let input_loc c =
  let formats =
    List.length c.schedule.Stardust_schedule.Schedule.formats
    - List.length c.schedule.Stardust_schedule.Schedule.temporaries
  in
  let commands = List.length (Schedule.trace c.schedule) in
  (* trace includes the algorithm line; +1 for compile/output *)
  formats + commands + 1
