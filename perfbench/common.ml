(** Clocks, counters and summary statistics shared by the workloads. *)

let now = Unix.gettimeofday

(** Words allocated by the calling domain so far: minor allocations plus
    direct major allocations (promotions are not new allocations).  For
    single-domain code on fixed input this is deterministic. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(** [timed f] is [(f (), seconds, allocated words)]. *)
let timed f =
  let a0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, alloc_words () -. a0)

(** Peak resident set of this process in MiB ([VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB"
                (fun kb -> kb /. 1024.0)
            else scan ()
      in
      scan ())

(** Statements in a generated Spatial program's accelerator body. *)
let ir_nodes (prog : Stardust_spatial.Spatial_ir.program) =
  Stardust_spatial.Spatial_ir.fold_stmts (fun n _ -> n + 1) 0
    prog.Stardust_spatial.Spatial_ir.accel

(* ------------------------------------------------------------------ *)
(* Normalised time                                                     *)
(* ------------------------------------------------------------------ *)

(* The machine this runs on alternates, every few seconds, between
   phases up to 1.9x apart in speed (other tenants share its cores), so
   raw wall times spread 20-40% from run to run.  Each measured op is
   therefore timed twice: raw, and normalised to a fixed machine speed
   by the run time of a fixed reference computation measured right
   before and right after it.  The reference -- sorting 20 000 pairs --
   allocates and compares like the workloads but touches no library
   code, and it slows down by about as much as they do. *)
let probe_work () =
  let l = List.init 20_000 (fun i -> ((i * 7919) mod 20_011, float_of_int i)) in
  List.length (List.sort compare l)

(** Seconds the reference computation takes now. *)
let probe () =
  let t0 = now () in
  ignore (Sys.opaque_identity (probe_work ()));
  now () -. t0

(** The reference computation's time at the nominal machine speed the
    normalised times are expressed in. *)
let nominal_probe = 0.008

(** Scale factor from raw to normalised seconds, given the reference
    times measured before and after. *)
let scale p0 p1 = nominal_probe /. ((p0 +. p1) /. 2.0)

(** The reference times and ops of a single caller's phase, in order:
    [Some t] a reference time, [None] an op.  Each op costs one
    reference, taken right after it. *)
type pacer = { mutable events : float option list;  (** latest first *) mutable last : float }

let pacer () =
  let p = probe () in
  { events = [ Some p ]; last = p }

(** Take a fresh reference, after work that is not timed. *)
let reprobe pc =
  let p = probe () in
  pc.events <- Some p :: pc.events;
  pc.last <- p

(** [timed_op pacer f] is [(f (), raw seconds, normalised seconds)],
    normalised by the references right before and after [f].  See
    {!renormalise} for the figures reported. *)
let timed_op pacer f =
  let r, dt, _ = timed f in
  match pacer with
  | None -> (r, dt, dt)
  | Some pc ->
      let p = probe () in
      let k = scale pc.last p in
      pc.events <- Some p :: None :: pc.events;
      pc.last <- p;
      (r, dt, dt *. k)

(** A derived seed: a pure function of the run seed and a path of small
    integers naming what it seeds. *)
let derive seed path = Hashtbl.hash (seed :: path)

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

(** One completed op of a measured phase. *)
type sample = {
  label : string;  (** what the op was, for failure reports *)
  seconds : float;  (** raw wall time *)
  norm : float;  (** normalised time (see {!timed_op}) *)
  ok : bool;
  cycles : float option;  (** simulated cycles of the op's answer *)
  bytes : int;  (** input bytes the op consumed, where that is defined *)
}

(** What a measured phase hands back: its ops; the raw and normalised
    times of its rounds, in each of which [callers] ops ran side by side;
    the phase's raw wall time; and, for a search workload, the full
    candidate evaluations done. *)
type phase = {
  samples : sample list;
  rounds : (float * float) list;
  callers : int;
  wall : float;
  candidates : int;
}

(** A single caller's phase: each op is its own round. *)
let phase ?(wall = nan) ?(candidates = 0) samples =
  let busy = List.fold_left (fun a s -> a +. s.seconds) 0.0 samples in
  {
    samples;
    rounds = List.map (fun s -> (s.seconds, s.norm)) samples;
    callers = 1;
    wall = (if Float.is_nan wall then busy else wall);
    candidates;
  }

(** Normalised seconds of a list of samples. *)
let norm_total samples = List.fold_left (fun a s -> a +. s.norm) 0.0 samples

(** Output checks run after a phase, outside its clock: how many were
    made, what failed (one line each, naming the input), and any
    per-layer figures they measured. *)
type check = {
  checked : int;
  failures : string list;
  check_layers : (string * float) list;
}

(* References on each side of an op that its normalisation averages:
   the machine's phases last seconds, a single reference is noisy. *)
let window = 3

(** Normalise the ops of [samples] (given in the order they ran) by the
    mean of the [window] references before and after each. *)
let renormalise pc samples =
  let ev = Array.of_list (List.rev pc.events) in
  let n = Array.length ev in
  let around i =
    let rec collect j step left acc =
      if left = 0 || j < 0 || j >= n then acc
      else
        match ev.(j) with
        | Some p -> collect (j + step) step (left - 1) (p :: acc)
        | None -> collect (j + step) step left acc
    in
    collect (i - 1) (-1) window [] @ collect (i + 1) 1 window []
  in
  let ops = List.filter (fun i -> ev.(i) = None) (List.init n Fun.id) in
  List.map2
    (fun s i ->
      let ps = around i in
      let mean = List.fold_left ( +. ) 0.0 ps /. float_of_int (List.length ps) in
      { s with norm = s.seconds *. nominal_probe /. mean })
    samples ops

(* ------------------------------------------------------------------ *)
(* Summary statistics                                                  *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** The tail: the highest order statistic with at least ten samples
    beyond it, with the percentile it stands at.  With fewer than eleven
    samples it is the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs
