(** The fuzzing loop: generate, run, shrink, persist.

    Per-case seeds are drawn from one master {!Stardust_workloads.Prng}
    seeded by the run seed, so [--cases N --seed S] is bit-for-bit
    reproducible regardless of worker count.  Cases run on the
    {!Stardust_explore.Pool} with per-case wall-clock deadlines and
    per-item failure isolation: a backend that crashes yields a verdict,
    a backend that spins past the deadline costs exactly that one case
    (reported as hung), never the run.

    Failing cases are minimized by {!Shrink.minimize} — each candidate
    re-executed under the same deadline — and persisted to the corpus
    with their verdicts and diagnostic trail. *)

module Diag = Stardust_diag.Diag
module Pool = Stardust_explore.Pool
module Prng = Stardust_workloads.Prng
module Trace = Stardust_obs.Trace
module Metrics = Stardust_obs.Metrics

(* Verdict counters are bumped in the post-join [Array.iteri] over the
   slot array — deterministic input order — never inside the racing
   workers. *)
let count ?(by = 1.0) name help = Metrics.inc ~by (Metrics.counter ~help name)

type config = {
  cases : int;
  seed : int;
  corpus_dir : string option;  (** [None] disables persistence *)
  workers : int option;  (** [None]: the pool default *)
  case_timeout : float option;  (** per-case wall-clock deadline, seconds *)
  watchdog : float;  (** simulator step budget per backend run *)
  rtol : float;
  atol : float;
  shrink_budget : int;  (** max shrink-candidate evaluations per failure *)
  mk_backends : (unit -> Runner.backend list) option;
      (** test hook: substitute backends (fresh per case); [None] uses
          {!Runner.default_backends} *)
  log : string -> unit;  (** progress sink (e.g. [print_endline]) *)
}

let default_config =
  {
    cases = 100;
    seed = 42;
    corpus_dir = Some Corpus.default_dir;
    workers = None;
    case_timeout = Some 10.0;
    watchdog = Runner.default_watchdog;
    rtol = Differ.default_rtol;
    atol = Differ.default_atol;
    shrink_budget = 200;
    mk_backends = None;
    log = ignore;
  }

(** One minimized failure, ready to report. *)
type failure = {
  f_seed : int;
  original : Case.t;
  minimized : Case.t;
  outcome : Runner.outcome;  (** verdicts of the {e minimized} case *)
  path : string option;  (** corpus file, when persistence is on *)
}

type stats = {
  total : int;
  passed : int;
  failed : int;  (** disagreements and crashes (after minimization) *)
  hung : int;  (** cases that blew the per-case deadline *)
  skips : int;  (** structured backend refusals across all cases *)
  failures : failure list;
  diags : Diag.t list;  (** one [E08xx] diagnostic per failing backend *)
}

let run_one cfg (case : Case.t) : Runner.outcome =
  let backends = Option.map (fun mk -> mk ()) cfg.mk_backends in
  Runner.run_case ?backends ~watchdog:cfg.watchdog ~rtol:cfg.rtol
    ~atol:cfg.atol case

(** Re-run one candidate under the per-case deadline (a single-item pool
    map, so a hung candidate is abandoned, not inherited). *)
let timed_fails cfg (c : Case.t) : bool =
  match
    Pool.map_result ~workers:1 ?timeout:cfg.case_timeout (run_one cfg) [| c |]
  with
  | [| Ok o |] -> o.Runner.failing
  | _ -> false

let count_skips (o : Runner.outcome) =
  List.length
    (List.filter
       (fun (r : Runner.report) ->
         match r.Runner.verdict with Differ.Skip _ -> true | _ -> false)
       o.Runner.reports)

let persist cfg ~diags (o : Runner.outcome) : string option =
  match cfg.corpus_dir with
  | None -> None
  | Some dir ->
      Some (Corpus.save ~dir ~diags ~reports:o.Runner.reports o.Runner.case)

(** Minimize a failing outcome and persist the result. *)
let handle_failure cfg seed (o : Runner.outcome) : failure * Diag.t list =
  cfg.log
    (Fmt.str "case %d (seed %d) failed; shrinking (size %d)..."
       o.Runner.case.Case.seed seed
       (Case.size o.Runner.case));
  let minimized =
    Shrink.minimize ~budget:cfg.shrink_budget ~fails:(timed_fails cfg)
      o.Runner.case
  in
  let final = run_one cfg minimized in
  (* If the deadline-free rerun no longer fails (flaky timing), report the
     original outcome instead — never lose the evidence. *)
  let final = if final.Runner.failing then final else o in
  let diags = Runner.diags_of_outcome final in
  let path = persist cfg ~diags final in
  cfg.log
    (Fmt.str "  shrunk to size %d%s"
       (Case.size final.Runner.case)
       (match path with Some p -> ", saved " ^ p | None -> ""));
  let diags =
    match path with
    | Some p -> Runner.diags_of_outcome ~file:p final
    | None -> diags
  in
  ({ f_seed = seed; original = o.Runner.case; minimized = final.Runner.case;
     outcome = final; path },
   diags)

let hang_diag seed seconds =
  Diag.error ~stage:Diag.Oracle ~code:Diag.code_oracle_hang
    ~context:[ ("seed", string_of_int seed) ]
    "fuzz case for seed %d exceeded its %gs deadline and was abandoned" seed
    seconds

let crash_diag seed exn =
  Diag.error ~stage:Diag.Oracle ~code:Diag.code_oracle_crash
    ~context:[ ("seed", string_of_int seed) ]
    "fuzz harness crashed on seed %d: %s" seed (Printexc.to_string exn)

(** Persist a case that hung the whole pipeline (no verdicts to record
    beyond the deadline itself); generation is re-run in the calling
    domain — it is bounded and cheap, unlike execution. *)
let persist_hang cfg seed seconds : string option =
  match cfg.corpus_dir with
  | None -> None
  | Some dir -> (
      match Gen.gen ~seed with
      | case ->
          let reports =
            [
              {
                Runner.backend = "pool";
                verdict =
                  Differ.Hang (Fmt.str "exceeded %gs case deadline" seconds);
              };
            ]
          in
          Some (Corpus.save ~dir ~reports case)
      | exception _ -> None)

(** Run the loop.  Returns aggregate statistics; [stats.failures] holds
    every minimized repro in seed order. *)
let run (cfg : config) : stats =
  Trace.with_span ~cat:(Diag.stage_name Diag.Oracle)
    ~args:
      [ ("cases", string_of_int cfg.cases); ("seed", string_of_int cfg.seed) ]
    "fuzz run"
  @@ fun () ->
  let t_start = Unix.gettimeofday () in
  let seeds = Array.make (max 0 cfg.cases) 0 in
  let master = Prng.create cfg.seed in
  for i = 0 to Array.length seeds - 1 do
    seeds.(i) <- Prng.int master 0x3FFFFFFF
  done;
  cfg.log
    (Fmt.str "fuzzing %d cases (seed %d, %s)" cfg.cases cfg.seed
       (match cfg.case_timeout with
       | Some s -> Fmt.str "%gs case deadline" s
       | None -> "no case deadline"));
  let results =
    Pool.map_result ?timeout:cfg.case_timeout ?workers:cfg.workers
      (fun seed -> run_one cfg (Gen.gen ~seed))
      seeds
  in
  let passed = ref 0 and hung = ref 0 and crashed = ref 0 and skips = ref 0 in
  let failures = ref [] and diags = ref [] in
  Array.iteri
    (fun i result ->
      let seed = seeds.(i) in
      match result with
      | Ok o when not o.Runner.failing ->
          incr passed;
          skips := !skips + count_skips o
      | Ok o ->
          skips := !skips + count_skips o;
          let f, ds = handle_failure cfg seed o in
          failures := f :: !failures;
          diags := !diags @ ds
      | Error (Pool.Failure_timed_out { seconds }) ->
          incr hung;
          let path = persist_hang cfg seed seconds in
          let d = hang_diag seed seconds in
          let d =
            match path with
            | Some p -> { d with Diag.context = d.Diag.context @ [ ("file", p) ] }
            | None -> d
          in
          cfg.log (Fmt.str "case for seed %d hung; abandoned" seed);
          diags := !diags @ [ d ]
      | Error (Pool.Failure_raised { exn; _ }) ->
          (* harness-level crash (e.g. the generator itself): no outcome to
             minimize, report the exception as-is *)
          incr crashed;
          diags := !diags @ [ crash_diag seed exn ];
          cfg.log (Fmt.str "harness crashed on seed %d" seed))
    results;
  let failures = List.rev !failures in
  count ~by:(float_of_int cfg.cases) "fuzz_cases_total" "fuzz cases generated";
  count ~by:(float_of_int !passed) "fuzz_passed_total" "fuzz cases that agreed";
  count
    ~by:(float_of_int (List.length failures + !crashed))
    "fuzz_failed_total" "fuzz cases with disagreements or crashes";
  count ~by:(float_of_int !crashed) "fuzz_crashed_total"
    "fuzz cases where the harness itself crashed";
  count ~by:(float_of_int !hung) "fuzz_hung_total"
    "fuzz cases abandoned past the case deadline";
  count ~by:(float_of_int !skips) "fuzz_skips_total"
    "structured backend refusals across all cases";
  (let elapsed = Unix.gettimeofday () -. t_start in
   if elapsed > 0.0 then
     Metrics.set
       (Metrics.gauge ~volatile:true
          ~help:"fuzz throughput of the last run (wall clock)"
          "fuzz_cases_per_second")
       (float_of_int cfg.cases /. elapsed));
  {
    total = cfg.cases;
    passed = !passed;
    failed = List.length failures + !crashed;
    hung = !hung;
    skips = !skips;
    failures;
    diags = !diags;
  }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "@[<v>%d cases: %d passed, %d failed, %d hung (%d backend skips)%a@]"
    s.total s.passed s.failed s.hung s.skips
    Fmt.(
      list ~sep:Fmt.nop (fun ppf (f : failure) ->
          Fmt.pf ppf "@,@,%a%a" Runner.pp_outcome f.outcome
            (option (fun ppf p -> Fmt.pf ppf "@,  saved: %s" p))
            f.path))
    s.failures
