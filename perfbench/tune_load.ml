(** The [tune] workload: a closed loop of autotune searches.

    One caller; the library-default {!Pool} (one worker per spare core).
    Each op is one {!Explore.run} over {!Space.efficiency_axes} with a
    fresh evaluation cache.  A pass visits every kernel of
    {!Kernels.all} at each scale with each strategy, on inputs drawn
    from seeds derived from the run seed and the pass number, so no two
    passes share data. *)

module K = Stardust_core.Kernels
module Auto = Stardust_core.Autoschedule
module Plan = Stardust_core.Plan
module Lower = Stardust_core.Lower
module Compile = Stardust_core.Compile
module Spatial_ir = Stardust_spatial.Spatial_ir
module Schedule = Stardust_schedule.Schedule
module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module D = Stardust_workloads.Datasets
module Prng = Stardust_workloads.Prng
module Arch = Stardust_capstan.Arch
module Sim = Stardust_capstan.Sim
module Explore = Stardust_explore.Explore
module Eval = Stardust_explore.Eval
module Space = Stardust_explore.Space
module Pool = Stardust_explore.Pool
module Point = Stardust_explore.Point
module Prune = Stardust_explore.Prune
module Cin_interp = Stardust_vonneumann.Cin_interp
module Differ = Stardust_oracle.Differ

let scales = [ 64; 256 ]
let check_scale = 64
let strategies = [ ("exhaustive", Explore.Exhaustive); ("halving", Explore.Halving) ]

(* Sparse densities by order: a 256^3 tensor at the 2-order density
   would hold 800k entries, so 3-order tensors are sparser. *)
let density = function 1 -> 0.1 | 2 -> 0.05 | _ -> 0.002

let random_input ~seed (name, fmt) n =
  let order = F.order fmt in
  let dims = List.init order (fun _ -> n) in
  if order = 0 then
    T.scalar ~name (Prng.range (Prng.create seed) 0.25 1.75)
  else if F.is_fully_dense fmt then
    match order with
    | 1 -> D.dense_vector ~seed ~name ~dim:n ()
    | 2 -> D.dense_matrix ~seed ~name ~format:fmt ~rows:n ~cols:n ()
    | _ -> D.small_random ~seed ~name ~format:fmt ~dims ~density:1.0 ()
  else
    match order with
    | 2 ->
        D.random_matrix ~seed ~name ~format:fmt ~rows:n ~cols:n
          ~density:(density 2) ()
    | 3 -> D.random_tensor3 ~seed ~name ~format:fmt ~dims ~density:(density 3) ()
    | o -> D.small_random ~seed ~name ~format:fmt ~dims ~density:(density o) ()

type op = {
  kernel : int;  (** index in {!K.all} *)
  scale : int;
  strategy : string * Explore.strategy;
  problem : Eval.problem;
  axes : Space.axes;
}

let label o =
  Printf.sprintf "%s n=%d %s"
    (List.nth K.all o.kernel).K.kname o.scale (fst o.strategy)

(* The first stage of each kernel, as the search-efficiency bench does. *)
let stage k = List.hd (List.nth K.all k).K.stages

let pass_ops ~seed pass =
  List.concat_map
    (fun scale ->
      List.concat
        (List.mapi
           (fun k (spec : K.spec) ->
             let st = List.hd spec.K.stages in
             let inputs =
               List.filter_map
                 (fun (i, (tname, fmt)) ->
                   if tname = st.K.result || tname.[0] = '_' then None
                   else
                     let seed = Common.derive seed [ pass; k; scale; i ] in
                     Some (tname, random_input ~seed (tname, fmt) scale))
                 (List.mapi (fun i b -> (i, b)) st.K.formats)
             in
             let problem =
               Eval.problem_of_string
                 ~name:(String.lowercase_ascii spec.K.kname)
                 ~formats:st.K.formats ~inputs st.K.expr
             in
             let axes =
               Space.efficiency_axes ~formats:problem.Eval.formats
                 problem.Eval.expr
             in
             List.map
               (fun strategy -> { kernel = k; scale; strategy; problem; axes })
               strategies)
           K.all))
    scales

type st = {
  seed : int;
  pool : Pool.t;
  first : op list;  (** pass 0, generated at set-up *)
  bests : (int * string, Point.t) Hashtbl.t;
      (** pass-0 best points at {!check_scale}, by kernel and strategy *)
}

let setup ~seed ~dir:_ =
  let pool = Pool.create () in
  let first = pass_ops ~seed 0 in
  (* warm-up: one small search, so lazy initialisation is not timed *)
  let warm = List.hd first in
  ignore (Explore.run ~pool ~strategy:Explore.Halving ~axes:warm.axes warm.problem);
  { seed; pool; first; bests = Hashtbl.create 32 }

let teardown st = Pool.shutdown st.pool

(* One op: a search with a fresh evaluation cache. *)
let search st o =
  Explore.run ~pool:st.pool ~strategy:(snd o.strategy) ~axes:o.axes
    ~cache:(Pool.Cache.create ()) o.problem

let run_op ?pacer st ~pass o =
  let r, dt, norm =
    Common.timed_op pacer (fun () -> try Ok (search st o) with e -> Error e)
  in
  match r with
  | Error e ->
      ( None,
        { Common.label = label o ^ ": " ^ Printexc.to_string e; seconds = dt; norm;
          ok = false; cycles = None; bytes = 0 } )
  | Ok r ->
      let best = Option.bind r.Explore.best Eval.cycles in
      (match r.Explore.best with
      | Some b when pass = 0 && o.scale = check_scale ->
          Hashtbl.replace st.bests (o.kernel, fst o.strategy) b.Eval.point
      | _ -> ());
      (* A search that finds no feasible point has still answered: it is
         counted apart (see [infeasible]), not as a failed op. *)
      ( Some r,
        { Common.label = label o; seconds = dt; norm; ok = true; cycles = best; bytes = 0 } )

let run_pass ?pacer st ~pass ops =
  List.fold_left
    (fun (acc, cands) o ->
      let r, s = run_op ?pacer st ~pass o in
      let c = match r with Some r -> List.length r.Explore.evaluated | None -> 0 in
      (s :: acc, cands + c))
    ([], 0) ops

(* Whole passes until [seconds] of normalised op time have run; inputs
   for the next pass are generated between passes, off the clock. *)
let measure st ~seconds =
  let pacer = Common.pacer () in
  let rec go pass ops acc cands busy =
    let samples, c = run_pass ~pacer st ~pass ops in
    let busy = busy +. Common.norm_total samples in
    let acc = samples @ acc and cands = cands + c in
    if busy >= seconds then
      Common.phase ~candidates:cands (Common.renormalise pacer (List.rev acc))
    else begin
      let next = pass_ops ~seed:st.seed (pass + 1) in
      Common.reprobe pacer;
      go (pass + 1) next acc cands busy
    end
  in
  go 0 st.first [] 0 0.0

let first_pass st =
  let samples, cands = run_pass st ~pass:0 st.first in
  Common.phase ~candidates:cands (List.rev samples)

(* ------------------------------------------------------------------ *)
(* Output check: best point through Sim.execute vs Cin_interp          *)
(* ------------------------------------------------------------------ *)

(* The schedule and compilation {!Eval.compute} builds for a point. *)
let point_schedule (p : Eval.problem) (pt : Point.t) =
  let d =
    { Auto.order = pt.Point.order; inner_par = pt.Point.inner_par;
      outer_par = pt.Point.outer_par }
  in
  let sched = Auto.schedule_point ~formats:p.Eval.formats p.Eval.expr d in
  match pt.Point.split with
  | None -> sched
  | Some (v, c) -> Schedule.split_up sched v (v ^ "_o") (v ^ "_i") c

let sram_budget (p : Eval.problem) (pt : Point.t) =
  let arch = p.Eval.config.Sim.arch in
  match pt.Point.gather with
  | Point.Auto -> None
  | Point.On_chip -> Some (arch.Arch.num_pmu * Arch.pmu_words arch)
  | Point.Off_chip -> Some 0

(* The reference interpreter walks every coordinate of every index
   variable, so a 4-index kernel at n=64 costs minutes: the best points
   found at {!check_scale} are checked on inputs of [reference_scale],
   drawn the same way from their own derived seeds. *)
let reference_scale = 16

let check st _phase =
  let exec_s = ref 0.0 and ref_s = ref 0.0 and checked = ref 0 in
  let failures = ref [] in
  List.iteri
    (fun k (spec : K.spec) ->
      let stg = stage k in
      let points =
        List.sort_uniq compare
          (List.filter_map
             (fun (sname, _) -> Hashtbl.find_opt st.bests (k, sname))
             strategies)
      in
      let inputs =
        List.filter_map
          (fun (i, (tname, fmt)) ->
            if tname = stg.K.result || tname.[0] = '_' then None
            else
              let seed = Common.derive st.seed [ -1; k; i ] in
              Some (tname, random_input ~seed (tname, fmt) reference_scale))
          (List.mapi (fun i b -> (i, b)) stg.K.formats)
      in
      let p =
        Eval.problem_of_string ~name:(String.lowercase_ascii spec.K.kname)
          ~formats:stg.K.formats ~inputs stg.K.expr
      in
      let expected, dt, _ =
        Common.timed (fun () ->
            try
              Ok
                (Cin_interp.run
                   (Schedule.of_assign ~formats:p.Eval.formats p.Eval.expr)
                   ~inputs ~result:stg.K.result ~result_format:stg.K.result_format)
            with e -> Error e)
      in
      ref_s := !ref_s +. dt;
      List.iter
        (fun pt ->
          incr checked;
          let what =
            Printf.sprintf "%s n=%d best %s" spec.K.kname reference_scale
              (Point.to_string pt)
          in
          let fail msg = failures := (what ^ ": " ^ msg) :: !failures in
          match expected with
          | Error e -> fail ("reference: " ^ Printexc.to_string e)
          | Ok expected -> (
              match
                let c =
                  Compile.compile ?sram_budget:(sram_budget p pt)
                    ~name:p.Eval.name (point_schedule p pt) ~inputs
                in
                let (results, _), dt, _ = Common.timed (fun () -> Sim.execute c) in
                exec_s := !exec_s +. dt;
                Differ.compare_result ~expected (List.assoc stg.K.result results)
              with
              | Differ.Pass -> ()
              | v -> fail (Differ.verdict_to_string v)
              | exception e -> fail (Printexc.to_string e)))
        points)
    K.all;
  { Common.checked = !checked;
    failures = List.rev !failures;
    check_layers =
      [ ("check.execute_s", !exec_s); ("check.reference_s", !ref_s);
        ("check.mismatches", float_of_int (List.length !failures)) ] }

(* ------------------------------------------------------------------ *)
(* Traced pass: each search's work re-issued layer by layer            *)
(* ------------------------------------------------------------------ *)

(* Re-issue one point's compile and estimate through the layers' own
   entry points, as {!Eval.compute} chains them.  Returns the cycles, or
   [None] where the point was rejected. *)
let replay_point sp ~op ~parent (p : Eval.problem) pt =
  let call name f = Spans.call sp ~name ~op ~parent f in
  match call "schedule" (fun () -> point_schedule p pt) with
  | exception _ -> None
  | sched -> (
      let sram_budget = sram_budget p pt in
      match call "plan" (fun () -> Plan.build ?sram_budget sched ~inputs:p.Eval.inputs) with
      | exception _ -> None
      | plan -> (
          match call "lower" (fun () -> Lower.lower ~name:p.Eval.name plan) with
          | exception _ -> None
          | program -> (
              Spans.add sp "lower.ir_nodes" (float_of_int (Common.ir_nodes program));
              let errs = call "validate" (fun () -> Spatial_ir.validate program) in
              Spans.add sp "validate.errors" (float_of_int (List.length errs));
              if errs <> [] then None
              else
                let c =
                  { Compile.name = p.Eval.name; schedule = sched; plan; program;
                    inputs = p.Eval.inputs }
                in
                match call "prune" (fun () -> Prune.check ~arch:p.Eval.config.Sim.arch c) with
                | Prune.Reject _ ->
                    Spans.add sp "prune.rejected" 1.0;
                    None
                | Prune.Pass _ -> (
                    match call "estimate" (fun () -> Sim.estimate ~config:p.Eval.config c) with
                    | r -> Some r.Sim.cycles
                    | exception Sim.Sim_error _ -> None))))

let traced_pass st sp =
  let t0 = Common.now () in
  let samples, cands =
    List.fold_left
      (fun (acc, cands) o ->
        let op = List.length acc + 1 in
        let id = Spans.fresh_id sp in
        let r, s =
          Spans.call sp ~id ~name:"op" ~op ~parent:0 (fun () -> run_op st ~pass:0 o)
        in
        match r with
        | None -> (s :: acc, cands)
        | Some r ->
            let p = o.problem in
            let pre = Spans.call sp ~name:"stats" ~op ~parent:id (fun () -> Eval.prepare p) in
            if r.Explore.bound_evals > 0 then
              List.iteri
                (fun i pt ->
                  if i < r.Explore.bound_evals then
                    ignore
                      (Spans.call sp ~name:"bound" ~op ~parent:id (fun () ->
                           Eval.lower_bound pre pt)))
                (Space.points ~formats:p.Eval.formats p.Eval.expr o.axes);
            List.iter
              (fun (e : Eval.eval) ->
                if replay_point sp ~op ~parent:id p e.Eval.point <> Eval.cycles e then
                  Spans.add sp "replay.mismatches" 1.0)
              r.Explore.evaluated;
            Spans.add sp "search.full_evals" (float_of_int (List.length r.Explore.evaluated));
            Spans.add sp "search.estimates" (float_of_int (Explore.estimate_count r));
            Spans.add sp "search.bound_evals" (float_of_int r.Explore.bound_evals);
            Spans.add sp "search.frontier_points" (float_of_int (List.length r.Explore.frontier));
            (s :: acc, cands + List.length r.Explore.evaluated))
      ([], 0) st.first
  in
  Common.phase ~wall:(Common.now () -. t0) ~candidates:cands (List.rev samples)
