(** The Capstan simulator.

    Two modes share one cost model:

    - {!execute} runs a compiled Spatial program {e functionally} — every
      pattern iteration is interpreted, FIFOs enforce enqueue/dequeue
      discipline, scans walk real bit-vectors — and tallies work as it
      goes.  Results are read back from the DRAM images so they can be
      checked against the reference evaluator.
    - {!estimate} computes the same tallies analytically from the loop trip
      annotations and dataset statistics, without touching data.  On any
      input both modes produce identical work tallies by construction
      (tested); [estimate] is what the benchmarks use at paper scale, where
      interpreting 10^10 scalar iterations is impossible.

    Time is a pipelined-dataflow model: every pattern charges its iteration
    count divided by the parallelism covering it (own factor x enclosing
    factors) plus a startup, de-rated by the on-chip network overhead; DRAM
    traffic is accumulated and converted to cycles by the {!Dram} envelope;
    the kernel takes the max of the compute and memory components (the
    decoupled access-execute roofline the paper's Figure 12 explores). *)

module Tensor = Stardust_tensor.Tensor
module Stats = Stardust_tensor.Stats
module Stats_cache = Stardust_tensor.Stats_cache
module Format = Stardust_tensor.Format
module Memory = Stardust_core.Memory
module Plan = Stardust_core.Plan
module Compile = Stardust_core.Compile
module Coiter = Stardust_core.Coiter
module Trace = Stardust_obs.Trace
module Metrics = Stardust_obs.Metrics
module Obs_profile = Stardust_obs.Profile
open Stardust_spatial.Spatial_ir

(** What went wrong, structurally: callers (the fallback driver, the
    autotuner) route on the kind without parsing messages.

    - [Runtime] — malformed program or estimator query: a compiler bug.
    - [Capacity] — a hard capacity limit was exceeded at execution time
      (on-chip overflow, FIFO under/overflow, out-of-bounds stream):
      recoverable by re-scheduling or falling back to the CPU baseline.
    - [Watchdog] — the cycle budget expired, the symptom of
      non-terminating (or corrupt-data-driven runaway) co-iteration.
    - [Fault] — an injected fault was mis-applied (bad injection spec). *)
type error_kind = Runtime | Capacity | Watchdog | Fault

let error_kind_name = function
  | Runtime -> "runtime"
  | Capacity -> "capacity"
  | Watchdog -> "watchdog"
  | Fault -> "fault"

exception Sim_error of { kind : error_kind; message : string }

let kind_name = function
  | Runtime -> "runtime"
  | Capacity -> "capacity"
  | Watchdog -> "watchdog"
  | Fault -> "fault"

let () =
  Printexc.register_printer (function
    | Sim_error { kind; message } ->
        Some (Printf.sprintf "Sim_error(%s): %s" (kind_name kind) message)
    | _ -> None)

let err_k kind fmt =
  Fmt.kstr
    (fun s ->
      (* cheap: only on the raise path, never in the interpreter hot loop *)
      Metrics.inc
        (Metrics.counter ~help:"structured simulator errors by kind"
           ~labels:[ ("kind", error_kind_name kind) ]
           "sim_errors_total");
      raise (Sim_error { kind; message = s }))
    fmt
let err fmt = err_k Runtime fmt
let cap fmt = err_k Capacity fmt

(** Deterministic fault injection: hand one of these to {!execute} to
    prove the stack degrades or reports instead of crashing.

    - [Dram_stall_storm] multiplies the memory-system component of the
      timing model by [factor] (a storm of row-buffer conflicts and
      refresh stalls) — the run still completes, slower.
    - [Corrupt_pos]/[Corrupt_crd] overwrite one word of a tensor's
      position/coordinate DRAM image after initialisation, the way a
      flaky DRAM channel would; downstream capacity guards must catch
      the damage and raise a structured error. *)
type fault =
  | Dram_stall_storm of { factor : float }
  | Corrupt_pos of { tensor : string; level : int; index : int; value : float }
  | Corrupt_crd of { tensor : string; level : int; index : int; value : float }

type config = { arch : Arch.t; dram : Dram.t }

let default_config = { arch = Arch.default; dram = Dram.hbm2e }
let ideal_config = { arch = Arch.ideal_network Arch.default; dram = Dram.ideal }

(** Full textual fingerprint of a machine configuration: every field of
    the architecture and memory models, floats in lossless hex.  Two
    configs fingerprint equally iff every modelled parameter is equal —
    unlike [Hashtbl.hash], which truncates and can collide. *)
let config_fingerprint (c : config) =
  let a = c.arch and d = c.dram in
  Printf.sprintf
    "pcu%d,pmu%d,mc%d,sh%d,ln%d,sl%d,st%d,bk%d,wb%d,hz%h,no%h,ii%h,lx%h,bv%h|%s,bw%h,lat%h,line%d,rp%h"
    a.Arch.num_pcu a.Arch.num_pmu a.Arch.num_mc a.Arch.num_shuffle
    a.Arch.lanes a.Arch.sparse_lanes a.Arch.pcu_stages a.Arch.pmu_banks
    a.Arch.pmu_words_per_bank a.Arch.clock_hz a.Arch.net_overhead
    a.Arch.launch_ii a.Arch.latency_exposure a.Arch.bv_words_per_cycle
    (Dram.show_kind d.Dram.kind)
    d.Dram.bandwidth_bytes_per_s d.Dram.latency_cycles d.Dram.line_bytes
    d.Dram.random_penalty

type report = {
  cycles : float;  (** total kernel cycles: max(compute, memory) *)
  compute_cycles : float;
  dram_cycles : float;
  streamed_bytes : float;
  random_accesses : float;
  iterations : float;  (** scalar pattern iterations across all loops *)
  scan_bits : float;  (** bit-vector positions scanned *)
  seconds : float;
}

type tally = {
  mutable compute : float;
  mutable bytes : float;
  mutable rand : float;
  mutable iters : float;
  mutable bits : float;
  mutable bursts : float;  (** DRAM burst issues (weighted by 1/parallelism) *)
}

let fresh_tally () =
  { compute = 0.; bytes = 0.; rand = 0.; iters = 0.; bits = 0.; bursts = 0. }

let finish ?(dram_stall = 1.0) cfg (t : tally) =
  let compute = t.compute *. cfg.arch.Arch.net_overhead in
  let dram =
    (Dram.transfer_cycles cfg.dram ~clock_hz:cfg.arch.Arch.clock_hz
       ~streamed_bytes:t.bytes ~random_accesses:t.rand
     +. cfg.dram.Dram.latency_cycles
     (* short bursts expose a fraction of the first-word latency that the
        decoupled access-execute prefetcher cannot hide *)
     +. (t.bursts *. cfg.dram.Dram.latency_cycles
         *. cfg.arch.Arch.latency_exposure))
    *. dram_stall
  in
  let cycles = Float.max compute dram in
  {
    cycles;
    compute_cycles = compute;
    dram_cycles = dram;
    streamed_bytes = t.bytes;
    random_accesses = t.rand;
    iterations = t.iters;
    scan_bits = t.bits;
    seconds = Arch.seconds_of_cycles cfg.arch cycles;
  }

(* ==================================================================== *)
(* Functional execution                                                  *)
(* ==================================================================== *)

type memv =
  | MArr of float array
  | MQueue of float Queue.t
  | MReg of float ref
  | MBits of bool array

type machine = {
  cfg : config;
  heap : (string, memv) Hashtbl.t;
  dram_sparse : (string, unit) Hashtbl.t;  (** names with random access *)
  tally : tally;
  watchdog : float;  (** scalar-step budget; infinity disables *)
  mutable steps : float;  (** scalar steps executed so far *)
}

(** Charge [n] scalar steps against the watchdog budget.  Interpreted
    loops are always finite, but corrupted position arrays or adversarial
    schedules can inflate trip counts by orders of magnitude — the
    watchdog turns that runaway into a structured diagnostic instead of an
    apparent hang. *)
let watchdog_tick m n =
  m.steps <- m.steps +. n;
  if m.steps > m.watchdog then
    err_k Watchdog
      "watchdog budget of %.3g scalar steps exhausted — non-terminating or \
       runaway co-iteration (corrupt position data can cause this)"
      m.watchdog

let word_bytes = 4.0

let find_mem m name =
  match Hashtbl.find_opt m.heap name with
  | Some v -> v
  | None -> err "memory %s not allocated" name

let as_arr m name =
  match find_mem m name with
  | MArr a -> a
  | _ -> err "%s is not an array memory" name

let as_queue m name =
  match find_mem m name with
  | MQueue q -> q
  | _ -> err "%s is not a FIFO" name

let as_reg m name =
  match find_mem m name with
  | MReg r -> r
  | _ -> err "%s is not a register" name

let as_bits m name =
  match find_mem m name with
  | MBits b -> b
  | _ -> err "%s is not a bit-vector" name

let iof f = int_of_float f

let rec eval m env e =
  match e with
  | Int n -> float_of_int n
  | Flt f -> f
  | Var v -> (
      match List.assoc_opt v env with
      | Some x -> x
      | None -> err "variable %s unbound at runtime" v)
  | Read (name, []) -> !(as_reg m name)
  | Read (name, [ ix ]) -> (
      let i = iof (eval m env ix) in
      if i < 0 then 0.0  (* predicated absent lane *)
      else
        match find_mem m name with
        | MArr a ->
            if i >= Array.length a then
              cap "%s: read out of bounds (%d >= %d)" name i (Array.length a)
            else begin
              if Hashtbl.mem m.dram_sparse name then m.tally.rand <- m.tally.rand +. 1.0;
              a.(i)
            end
        | _ -> err "%s: indexed read of non-array" name)
  | Read (name, _) -> err "%s: multi-index reads are not supported" name
  | Bin (op, a, b) -> (
      let x = eval m env a and y = eval m env b in
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Min -> Float.min x y
      | Max -> Float.max x y)
  | Neg e -> -.eval m env e
  | Mux (p, a, b) -> if eval m env p >= 0.0 then eval m env a else eval m env b

let alloc m (a : alloc) size_val =
  let v =
    match a.kind with
    | Dram_dense | Dram_sparse | Sram_dense | Sram_sparse ->
        MArr (Array.make (max 1 size_val) 0.0)
    | Fifo _ -> MQueue (Queue.create ())
    | Reg -> MReg (ref 0.0)
    | Bit_vector -> MBits (Array.make (max 1 size_val) false)
  in
  Hashtbl.replace m.heap a.mem v;
  if a.kind = Dram_sparse then Hashtbl.replace m.dram_sparse a.mem ()

(** Ranks of set bits: [pos.(c)] is the ordinal of bit [c] among set bits,
    or [-1] when unset. *)
let bit_ranks bits =
  let n = Array.length bits in
  let ranks = Array.make n (-1) in
  let r = ref 0 in
  for c = 0 to n - 1 do
    if bits.(c) then begin
      ranks.(c) <- !r;
      incr r
    end
  done;
  ranks

let lanes_f (m : machine) = float_of_int m.cfg.arch.Arch.lanes

let is_sparse_trip = function
  | Trip_fiber _ | Trip_coiter _ -> true
  | Trip_const _ | Trip_dim _ | Trip_exp -> false

(** Effective parallelism of a pattern: sparse iteration is limited to the
    architecture's sparse vector width (1 on Plasticine). *)
let pattern_par (arch : Arch.t) ~sparse par =
  if sparse then min par arch.Arch.sparse_lanes else par

(** Pipeline occupancy of one pattern launch over [n] iterations at vector
    width [par]: a fiber shorter than the vector width still occupies one
    issue slot per lane group (short fibers underutilise the lanes — the
    mechanism behind Capstan's preference for >5% densities). *)
let launch_cost ~par n =
  if n <= 0.0 then 0.0 else Float.max n (float_of_int par) /. float_of_int par

let charge_pattern m ~iters ~par ~sparse ~ctx =
  let par = pattern_par m.cfg.arch ~sparse par in
  m.tally.iters <- m.tally.iters +. iters;
  m.tally.compute <-
    m.tally.compute
    +. (launch_cost ~par iters /. ctx)
    +. (m.cfg.arch.Arch.launch_ii /. ctx)

let charge_burst m ~elems ~ctx ~write:_ =
  m.tally.bytes <- m.tally.bytes +. (elems *. word_bytes);
  m.tally.bursts <- m.tally.bursts +. (1.0 /. ctx);
  m.tally.compute <- m.tally.compute +. (elems /. (lanes_f m *. ctx))

let rec exec m env ~ctx (s : stmt) : (string * float) list =
  match s with
  | Comment _ -> env
  | Alloc a ->
      alloc m a (iof (eval m env a.size));
      env
  | Let (x, e) -> (x, eval m env e) :: env
  | Deq (x, f) -> (
      let q = as_queue m f in
      match Queue.take_opt q with
      | Some v -> (x, v) :: env
      | None -> cap "FIFO %s underflow" f)
  | Load_burst { dst; src; lo; hi; _ } ->
      let a = as_arr m src in
      let lo = iof (eval m env lo) and hi = iof (eval m env hi) in
      if lo < 0 || hi > Array.length a then
        cap "load from %s out of bounds [%d, %d)" src lo hi;
      let n = max 0 (hi - lo) in
      (match find_mem m dst with
      | MArr d ->
          if n > Array.length d then
            cap "load into %s overflows its capacity (%d > %d)" dst n
              (Array.length d);
          Array.blit a lo d 0 n
      | MQueue q ->
          for k = lo to hi - 1 do
            Queue.add a.(k) q
          done
      | _ -> err "load into non-array %s" dst);
      charge_burst m ~elems:(float_of_int n) ~ctx ~write:false;
      env
  | Store_burst { dst; src; lo; len; _ } ->
      let d = as_arr m dst in
      let lo = iof (eval m env lo) and n = iof (eval m env len) in
      if lo < 0 || lo + n > Array.length d then
        cap "store to %s out of bounds [%d, %d)" dst lo (lo + n);
      (match find_mem m src with
      | MArr s ->
          if n > Array.length s then
            cap "store from %s reads past capacity" src;
          Array.blit s 0 d lo n
      | MQueue q ->
          for k = 0 to n - 1 do
            match Queue.take_opt q with
            | Some v -> d.(lo + k) <- v
            | None -> cap "FIFO %s underflow during store" src
          done
      | MReg r ->
          if n <> 1 then err "register store must have length 1";
          d.(lo) <- !r
      | MBits _ -> err "cannot store a bit-vector");
      charge_burst m ~elems:(float_of_int n) ~ctx ~write:true;
      env
  | Foreach { len; par; bind; body; trip; _ } ->
      let n = iof (eval m env len) in
      let sparse = is_sparse_trip trip in
      let par_eff = pattern_par m.cfg.arch ~sparse par in
      for k = 0 to n - 1 do
        watchdog_tick m 1.0;
        ignore (exec_body m ((bind, float_of_int k) :: env) ~ctx:(ctx *. float_of_int par_eff) body)
      done;
      charge_pattern m ~iters:(float_of_int n) ~par ~sparse ~ctx;
      env
  | Reduce { target; init; len; par; bind; body; expr; trip; _ } ->
      let n = iof (eval m env len) in
      let sparse = is_sparse_trip trip in
      let par_eff = pattern_par m.cfg.arch ~sparse par in
      let acc = ref (eval m env init) in
      for k = 0 to n - 1 do
        watchdog_tick m 1.0;
        let env' =
          exec_body m ((bind, float_of_int k) :: env)
            ~ctx:(ctx *. float_of_int par_eff) body
        in
        acc := !acc +. eval m env' expr
      done;
      let r = as_reg m target in
      r := !r +. !acc;
      charge_pattern m ~iters:(float_of_int n) ~par ~sparse ~ctx;
      env
  | Foreach_scan { scan; body; _ } ->
      scan_loop m env ~ctx scan (fun env' -> ignore (exec_body m env' ~ctx:(ctx *. float_of_int scan.scan_par) body));
      env
  | Reduce_scan { target; init; scan; body; expr; _ } ->
      let acc = ref (eval m env init) in
      scan_loop m env ~ctx scan (fun env' ->
          let env'' = exec_body m env' ~ctx:(ctx *. float_of_int scan.scan_par) body in
          acc := !acc +. eval m env'' expr);
      let r = as_reg m target in
      r := !r +. !acc;
      env
  | Write { mem; idx = None; value; accum } ->
      let r = as_reg m mem in
      let v = eval m env value in
      r := if accum then !r +. v else v;
      env
  | Write { mem; idx = Some ix; value; accum } ->
      let a = as_arr m mem in
      let i = iof (eval m env ix) in
      if i < 0 || i >= Array.length a then
        cap "%s: write out of bounds (%d)" mem i;
      let v = eval m env value in
      a.(i) <- (if accum then a.(i) +. v else v);
      env
  | Enq (f, e) ->
      Queue.add (eval m env e) (as_queue m f);
      env
  | Gen_bitvector { bv; crd_mem; count; _ } ->
      let bits = as_bits m bv in
      Array.fill bits 0 (Array.length bits) false;
      let n = iof (eval m env count) in
      let set c =
        let i = iof c in
        if i < 0 || i >= Array.length bits then
          cap
            "coordinate %d outside bit-vector %s (length %d) — corrupted \
             crd stream"
            i bv (Array.length bits)
        else bits.(i) <- true
      in
      (match find_mem m crd_mem with
      | MQueue q ->
          for _ = 1 to n do
            match Queue.take_opt q with
            | Some c -> set c
            | None -> cap "FIFO %s underflow feeding bit-vector %s" crd_mem bv
          done
      | MArr a ->
          if n < 0 || n > Array.length a then
            cap "bit-vector %s: %d coordinates from %s (length %d)" bv n
              crd_mem (Array.length a);
          for k = 0 to n - 1 do
            set a.(k)
          done
      | _ -> err "bit-vector source %s has no coordinates" crd_mem);
      m.tally.compute <- m.tally.compute +. (float_of_int n /. (lanes_f m *. ctx));
      env

and exec_body m env ~ctx body = List.fold_left (fun env s -> exec m env ~ctx s) env body

and scan_loop m env ~ctx (s : scan) f =
  let bvs = List.map (as_bits m) s.bvs in
  let len = iof (eval m env s.scan_len) in
  (match bvs with
  | [ b ] ->
      if Array.length b < len then cap "bit-vector shorter than scan length"
  | [ a; b ] ->
      if Array.length a < len || Array.length b < len then
        cap "bit-vector shorter than scan length"
  | _ -> err "scan over %d bit-vectors" (List.length bvs));
  let ranks = List.map bit_ranks bvs in
  let combined c =
    match (s.op, bvs) with
    | Scan_single, [ b ] -> b.(c)
    | Scan_and, [ a; b ] -> a.(c) && b.(c)
    | Scan_or, [ a; b ] -> a.(c) || b.(c)
    | _ -> err "malformed scan"
  in
  let out = ref 0 in
  for c = 0 to len - 1 do
    watchdog_tick m 1.0;
    if combined c then begin
      let pos_binds =
        List.map2 (fun name rk -> (name, float_of_int rk.(c))) s.bind_pos ranks
      in
      let out_bind =
        match s.bind_out with
        | Some o -> [ (o, float_of_int !out) ]
        | None -> []
      in
      let env' =
        ((s.bind_coord, float_of_int c) :: pos_binds) @ out_bind @ env
      in
      f env';
      incr out
    end
  done;
  m.tally.bits <- m.tally.bits +. float_of_int len;
  m.tally.compute <-
    m.tally.compute
    +. (float_of_int len
       /. (32.0 *. m.cfg.arch.Arch.bv_words_per_cycle *. ctx));
  charge_pattern m ~iters:(float_of_int !out) ~par:s.scan_par ~sparse:true ~ctx

(* -------------------------------------------------------------------- *)
(* DRAM initialisation and result extraction                             *)
(* -------------------------------------------------------------------- *)

let float_array_of_ints a = Array.map float_of_int a

let init_dram m (c : Compile.compiled) =
  (* Allocate every declared DRAM array zeroed, then overwrite the input
     tensors' images. *)
  List.iter (fun (a : alloc) ->
      let size = match a.size with Int n -> n | _ -> err "non-constant DRAM size" in
      alloc m a size)
    c.Compile.program.dram;
  List.iter
    (fun (name, x) ->
      let fmt = Tensor.format x in
      let n = Tensor.order x in
      let blit dst_name src =
        match Hashtbl.find_opt m.heap dst_name with
        | Some (MArr d) ->
            if Array.length src > Array.length d then
              cap "input %s larger than its DRAM declaration" dst_name;
            Array.blit src 0 d 0 (Array.length src)
        | Some _ -> err "DRAM %s has wrong kind" dst_name
        | None -> ()  (* sub-array not used by the kernel *)
      in
      for l = 0 to n - 1 do
        if Format.level_kind fmt l = Format.Compressed then begin
          blit (Memory.dram_name name (Memory.Pos l))
            (float_array_of_ints (Tensor.pos_array x l));
          blit (Memory.dram_name name (Memory.Crd l))
            (float_array_of_ints (Tensor.crd_array x l))
        end
      done;
      blit (Memory.dram_name name Memory.Vals) (Tensor.vals_array x))
    c.Compile.inputs

(** Read a result tensor back from the DRAM images.  Every count read from
    a position image is validated before it sizes an array: corrupted
    metadata becomes a structured capacity error, not an
    [Invalid_argument] crash. *)
let read_result m (c : Compile.compiled) name =
  let meta = Plan.meta c.Compile.plan name in
  let fmt = { meta.Plan.fmt with Format.region = Format.Off_chip } in
  let dims = Array.to_list meta.Plan.dims in
  let n = List.length dims in
  let arr aname =
    match Hashtbl.find_opt m.heap aname with
    | Some (MArr a) -> a
    | _ -> err "result array %s missing" aname
  in
  let parent = ref 1 in
  let levels =
    Array.init n (fun l ->
        let d = meta.Plan.dims.(Format.dim_of_level fmt l) in
        match Format.level_kind fmt l with
        | Format.Dense ->
            parent := !parent * d;
            Tensor.Dense_level { dim = d }
        | Format.Compressed ->
            let pos_img = arr (Memory.dram_name name (Memory.Pos l)) in
            if !parent + 1 > Array.length pos_img then
              cap "result %s level %d: position image too short (%d > %d)"
                name l (!parent + 1) (Array.length pos_img);
            let pos = Array.init (!parent + 1) (fun i -> iof pos_img.(i)) in
            let count = pos.(!parent) in
            let crd_img = arr (Memory.dram_name name (Memory.Crd l)) in
            if count < 0 || count > Array.length crd_img then
              cap
                "result %s level %d: corrupt position count %d (coordinate \
                 image holds %d)"
                name l count (Array.length crd_img);
            let crd = Array.init count (fun i -> iof crd_img.(i)) in
            parent := count;
            Tensor.Compressed_level { pos; crd })
  in
  let vals_img = arr (Memory.dram_name name Memory.Vals) in
  if !parent < 0 || !parent > Array.length vals_img then
    cap "result %s: corrupt value count %d (image holds %d)" name !parent
      (Array.length vals_img);
  let vals = Array.sub vals_img 0 !parent in
  match Tensor.of_arrays ~name ~format:fmt ~dims ~levels ~vals with
  | t -> t
  | exception Invalid_argument msg ->
      cap "result %s readback rejected: %s" name msg

(** Apply the deterministic fault list to the initialised DRAM images and
    return the DRAM stall factor the storm faults accumulate to. *)
let apply_faults m (faults : fault list) =
  let corrupt aname index value =
    match Hashtbl.find_opt m.heap aname with
    | Some (MArr a) ->
        if index < 0 || index >= Array.length a then
          err_k Fault "fault injection: %s has no word %d (length %d)" aname
            index (Array.length a)
        else a.(index) <- value
    | _ -> err_k Fault "fault injection: no DRAM image %s" aname
  in
  List.fold_left
    (fun stall f ->
      match f with
      | Dram_stall_storm { factor } -> stall *. Float.max 1.0 factor
      | Corrupt_pos { tensor; level; index; value } ->
          corrupt (Memory.dram_name tensor (Memory.Pos level)) index value;
          stall
      | Corrupt_crd { tensor; level; index; value } ->
          corrupt (Memory.dram_name tensor (Memory.Crd level)) index value;
          stall)
    1.0 faults

(** Default watchdog: generous for any kernel worth interpreting, small
    enough that runaway co-iteration surfaces in seconds. *)
let default_watchdog = 1e9

(** Functionally execute a compiled kernel; returns the result tensors and
    the timing report.

    [watchdog] bounds the scalar steps interpreted (default
    {!default_watchdog}); exceeding it raises [Sim_error] with kind
    [Watchdog].  [faults] deterministically injects DRAM stall storms and
    pos/crd corruption (see {!fault}); corrupted metadata surfaces as
    [Sim_error] with kind [Capacity], never as an unstructured crash. *)
let execute ?(config = default_config) ?(watchdog = default_watchdog)
    ?(faults = []) (c : Compile.compiled) =
  Trace.with_span ~cat:"simulate"
    ~args:[ ("kernel", c.Compile.name) ]
    ("execute " ^ c.Compile.name)
  @@ fun () ->
  Metrics.inc
    (Metrics.counter ~help:"functional simulator runs" "sim_executes_total");
  let m =
    {
      cfg = config;
      heap = Hashtbl.create 64;
      dram_sparse = Hashtbl.create 4;
      tally = fresh_tally ();
      watchdog;
      steps = 0.0;
    }
  in
  init_dram m c;
  let dram_stall = apply_faults m faults in
  let env =
    List.map (fun (k, v) -> (k, float_of_int v)) c.Compile.program.env
  in
  ignore (exec_body m env ~ctx:1.0 c.Compile.program.accel);
  let results =
    List.filter_map
      (fun r ->
        if List.mem r c.Compile.plan.Plan.results
           && Plan.meta c.Compile.plan r |> fun mt ->
              not (Format.is_on_chip mt.Plan.fmt)
        then Some (r, read_result m c r)
        else None)
      c.Compile.plan.Plan.results
  in
  (results, finish ~dram_stall config m.tally)

(** Run a raw Spatial program without a compilation plan: DRAM images are
    supplied directly and the final DRAM contents returned.  Used by tests
    to pin down the IR's execution semantics (predication, scans, FIFO
    discipline) independently of the compiler. *)
let execute_program ?(config = default_config)
    ?(watchdog = default_watchdog) (prog : program)
    ~(dram_init : (string * float array) list) =
  let m =
    {
      cfg = config;
      heap = Hashtbl.create 64;
      dram_sparse = Hashtbl.create 4;
      tally = fresh_tally ();
      watchdog;
      steps = 0.0;
    }
  in
  List.iter
    (fun (a : alloc) ->
      let size = match a.size with Int n -> n | _ -> err "non-constant DRAM size" in
      alloc m a size)
    prog.dram;
  List.iter
    (fun (name, src) ->
      match Hashtbl.find_opt m.heap name with
      | Some (MArr d) -> Array.blit src 0 d 0 (min (Array.length src) (Array.length d))
      | _ -> err "no DRAM array %s" name)
    dram_init;
  let env = List.map (fun (k, v) -> (k, float_of_int v)) prog.env in
  ignore (exec_body m env ~ctx:1.0 prog.accel);
  let dump =
    List.filter_map
      (fun (a : alloc) ->
        match Hashtbl.find_opt m.heap a.mem with
        | Some (MArr arr) -> Some (a.mem, Array.copy arr)
        | _ -> None)
      prog.dram
  in
  (dump, finish config m.tally)

(* ==================================================================== *)
(* Analytic estimation                                                   *)
(* ==================================================================== *)

(** Dataset statistics provider: co-iteration cardinalities are computed
    from the actual input tensors (exact counts).  The per-estimate [memo]
    maps cheap name-based keys to values so one estimate never fingerprints
    a tensor twice; the computations behind a memo miss go through the
    process-wide {!Stats_cache}, shared across every point a search
    evaluates. *)
type statsrc = {
  tensors : (string * Tensor.t) list;
  memo : (string, float) Hashtbl.t;
}

(** Number of distinct coordinate prefixes of length [depth+1] present in
    both ([union = false]) or either ([union = true]) tensor. *)
let prefix_coiter_count src ~union a b ~depth =
  let key = Printf.sprintf "%s|%s|%d|%b" a b depth union in
  match Hashtbl.find_opt src.memo key with
  | Some v -> v
  | None ->
      let tensor name =
        match List.assoc_opt name src.tensors with
        | None -> err "estimate: %s is not an input tensor" name
        | Some t -> t
      in
      let v =
        float_of_int
          (Stats_cache.prefix_coiter_count ~union (tensor a) (tensor b)
             ~depth)
      in
      Hashtbl.add src.memo key v;
      v

type est = {
  e_cfg : config;
  e_plan : Plan.t;
  e_src : statsrc;
  e_tally : tally;
  (* memory name -> (tensor, sub-array) for sizing transfers *)
  e_mems : (string, string * Memory.sub_array) Hashtbl.t;
}

let level_count e tensor level =
  (* For result levels driven by scans, the exact count is the co-iteration
     cardinality rather than the conservative bound. *)
  let meta = Plan.meta e.e_plan tensor in
  if meta.Plan.is_input then float_of_int meta.Plan.level_counts.(level)
  else
    let v = Plan.level_var e.e_plan tensor level in
    match List.assoc_opt v e.e_plan.Plan.loops with
    | Some { Plan.plan = Coiter.Scan_plan { op; a; b; _ }; _ } ->
        (* depth of the co-iterated input level *)
        prefix_coiter_count e.e_src ~union:(op = `Or) a.Coiter.tensor
          b.Coiter.tensor ~depth:a.Coiter.level
    | Some { Plan.plan = Coiter.Pos_plan { lead; _ }; _ } ->
        float_of_int
          (Plan.meta e.e_plan lead.Coiter.tensor).Plan.level_counts.(lead.Coiter.level)
    | _ -> float_of_int meta.Plan.level_counts.(level)

let trip_total e ~execs = function
  | Trip_const n -> execs *. float_of_int n
  | Trip_fiber { tensor; level } -> level_count e tensor level
  | Trip_coiter { union; tensors = [ (a, la); (b, _) ] } ->
      prefix_coiter_count e.e_src ~union a b ~depth:la
  | Trip_coiter _ -> err "estimate: malformed co-iteration trip"
  | Trip_dim { tensor; dim } ->
      execs *. float_of_int (Plan.meta e.e_plan tensor).Plan.dims.(dim)
  | Trip_exp -> err "estimate: loop without trip information"

(** Total pipeline-occupancy cycles of all launches of a loop (the exact
    sum the functional executor accumulates through {!launch_cost}). *)
let launch_total e ~execs ~par trip =
  let input name =
    match List.assoc_opt name e.e_src.tensors with
    | Some t -> t
    | None -> err "estimate: %s is not an input tensor" name
  in
  match trip with
  | Trip_const n -> execs *. launch_cost ~par (float_of_int n)
  | Trip_dim { tensor; dim } ->
      execs
      *. launch_cost ~par
           (float_of_int (Plan.meta e.e_plan tensor).Plan.dims.(dim))
  | Trip_fiber { tensor; level } ->
      let key = Printf.sprintf "flt|%s|%d|%d" tensor level par in
      (match Hashtbl.find_opt e.e_src.memo key with
      | Some v -> v
      | None ->
          let v =
            Stats_cache.fiber_launch_total ~lanes:e.e_cfg.arch.Arch.lanes ~par
              (input tensor) level
          in
          Hashtbl.add e.e_src.memo key v;
          v)
  | Trip_coiter { union; tensors = [ (a, la); (b, _) ] } ->
      let key = Printf.sprintf "clt|%s|%s|%d|%b|%d" a b la union par in
      (match Hashtbl.find_opt e.e_src.memo key with
      | Some v -> v
      | None ->
          let v =
            Stats_cache.coiter_launch_total ~lanes:e.e_cfg.arch.Arch.lanes
              ~union ~par (input a) (input b) ~depth:la
          in
          Hashtbl.add e.e_src.memo key v;
          v)
  | Trip_coiter _ -> err "estimate: malformed co-iteration trip"
  | Trip_exp -> err "estimate: loop without trip information"

(** Total elements a transfer of [mem] moves across the whole run, given it
    is issued [execs] times. *)
let transfer_total e mem ~execs =
  match Hashtbl.find_opt e.e_mems mem with
  | None -> err "estimate: unknown staged memory %s" mem
  | Some (tensor, arr) -> (
      let meta = Plan.meta e.e_plan tensor in
      let b = Plan.binding e.e_plan tensor arr in
      match (arr, b.Memory.transfer) with
      | _, Memory.Whole_array ->
          execs
          *. float_of_int
               (match arr with
               | Memory.Pos l ->
                   (if l = 0 then 1 else meta.Plan.level_counts.(l - 1)) + 1
               | Memory.Crd l -> meta.Plan.level_counts.(l)
               | Memory.Vals -> meta.Plan.num_vals)
      | Memory.Pos l, _ ->
          (* one slice per parent fiber: positions(l-1) entries + execs *)
          (if l = 0 then 1.0 else level_count e tensor (l - 1)) +. execs
      | Memory.Crd l, _ -> level_count e tensor l
      | Memory.Vals, _ when Format.order meta.Plan.fmt = 0 -> execs
      | Memory.Vals, _ ->
          let fmt = meta.Plan.fmt in
          let last = Format.order fmt - 1 in
          if Format.level_kind fmt last = Format.Compressed then
            level_count e tensor last
          else
            (* dense row per issue *)
            execs
            *. float_of_int meta.Plan.dims.(Format.dim_of_level fmt last))

let rec exp_dram_reads e acc = function
  | Int _ | Flt _ | Var _ -> acc
  | Read (mem, idx) ->
      let acc = List.fold_left (exp_dram_reads e) acc idx in
      if
        String.length mem > 5
        && String.sub mem (String.length mem - 5) 5 = "_dram"
        && idx <> []
      then acc +. 1.0
      else acc
  | Bin (_, a, b) -> exp_dram_reads e (exp_dram_reads e acc a) b
  | Neg x -> exp_dram_reads e acc x
  | Mux (p, a, b) ->
      exp_dram_reads e (exp_dram_reads e (exp_dram_reads e acc p) a) b

let stmt_exps = function
  | Let (_, x) -> [ x ]
  | Write { idx; value; _ } -> value :: Option.to_list idx
  | Enq (_, x) -> [ x ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Per-loop attribution                                                 *)
(* ------------------------------------------------------------------ *)

(** Raw per-statement charges, kept attached to the program structure
    instead of collapsed into the run {!tally}.  Mirrors the tally fields
    that enter the timing model; {!profile_of} converts the raw charges to
    attributed cycles after the roofline is known. *)
type prof = {
  p_label : string;
  p_kind : string;
  mutable p_iters : float;
  mutable p_compute : float;  (** occupancy charged here (pre net-overhead) *)
  mutable p_bytes : float;
  mutable p_rand : float;
  mutable p_bursts : float;
  mutable p_rev_children : prof list;  (** newest first *)
}

let fresh_prof label kind =
  {
    p_label = label;
    p_kind = kind;
    p_iters = 0.;
    p_compute = 0.;
    p_bytes = 0.;
    p_rand = 0.;
    p_bursts = 0.;
    p_rev_children = [];
  }

let prof_child parent label kind =
  (* re-entering the same statement (a loop body estimated once per
     enclosing trip class) reuses its node, so the tree mirrors the
     program, not the walk *)
  match
    List.find_opt
      (fun c -> c.p_label = label && c.p_kind = kind)
      parent.p_rev_children
  with
  | Some c -> c
  | None ->
      let c = fresh_prof label kind in
      parent.p_rev_children <- c :: parent.p_rev_children;
      c

let trip_kind = function
  | Trip_const _ -> "const"
  | Trip_dim _ -> "dense"
  | Trip_fiber _ -> "fiber"
  | Trip_coiter { union; _ } -> if union then "union" else "intersect"
  | Trip_exp -> "exp"

(** Human label detail for a loop's iteration source. *)
let trip_descr = function
  | Trip_const n -> string_of_int n
  | Trip_dim { tensor; dim } -> Printf.sprintf "%s:d%d" tensor dim
  | Trip_fiber { tensor; level } -> Printf.sprintf "%s.%d" tensor level
  | Trip_coiter { union; tensors } ->
      String.concat
        (if union then " | " else " & ")
        (List.map (fun (t, l) -> Printf.sprintf "%s.%d" t l) tensors)
  | Trip_exp -> "?"

let rec est_stmt e ~execs ~ctx ~prof (s : stmt) =
  (* random DRAM reads embedded in expressions *)
  let rand =
    List.fold_left (exp_dram_reads e) 0.0 (stmt_exps s) *. execs
  in
  if rand > 0.0 then begin
    e.e_tally.rand <- e.e_tally.rand +. rand;
    prof.p_rand <- prof.p_rand +. rand
  end;
  let lanes = float_of_int e.e_cfg.arch.Arch.lanes in
  let launch_ii = e.e_cfg.arch.Arch.launch_ii in
  match s with
  | Comment _ | Alloc _ | Let _ | Deq _ | Write _ | Enq _ -> ()
  | Load_burst { dst; _ } ->
      let elems = transfer_total e dst ~execs in
      let p = prof_child prof ("load " ^ dst) "burst" in
      e.e_tally.bytes <- e.e_tally.bytes +. (elems *. word_bytes);
      e.e_tally.bursts <- e.e_tally.bursts +. (execs /. ctx);
      e.e_tally.compute <- e.e_tally.compute +. (elems /. (lanes *. ctx));
      p.p_bytes <- p.p_bytes +. (elems *. word_bytes);
      p.p_bursts <- p.p_bursts +. (execs /. ctx);
      p.p_compute <- p.p_compute +. (elems /. (lanes *. ctx))
  | Store_burst { src; _ } ->
      let elems = transfer_total e src ~execs in
      let p = prof_child prof ("store " ^ src) "burst" in
      e.e_tally.bytes <- e.e_tally.bytes +. (elems *. word_bytes);
      e.e_tally.bursts <- e.e_tally.bursts +. (execs /. ctx);
      e.e_tally.compute <- e.e_tally.compute +. (elems /. (lanes *. ctx));
      p.p_bytes <- p.p_bytes +. (elems *. word_bytes);
      p.p_bursts <- p.p_bursts +. (execs /. ctx);
      p.p_compute <- p.p_compute +. (elems /. (lanes *. ctx))
  | Gen_bitvector { bv; trip; _ } ->
      let n = trip_total e ~execs trip in
      let p = prof_child prof ("bitvector " ^ bv) "bitvector" in
      e.e_tally.compute <- e.e_tally.compute +. (n /. (lanes *. ctx));
      p.p_compute <- p.p_compute +. (n /. (lanes *. ctx))
  | Foreach { par; body; trip; bind; _ } | Reduce { par; body; trip; bind; _ }
    ->
      let iters = trip_total e ~execs trip in
      let par = pattern_par e.e_cfg.arch ~sparse:(is_sparse_trip trip) par in
      let kind_base =
        match s with Reduce _ -> "reduce" | _ -> "foreach"
      in
      let p =
        prof_child prof
          (Printf.sprintf "%s (%s)" bind (trip_descr trip))
          (kind_base ^ "/" ^ trip_kind trip)
      in
      let occ =
        (launch_total e ~execs ~par trip /. ctx)
        +. (launch_ii *. execs /. ctx)
      in
      e.e_tally.iters <- e.e_tally.iters +. iters;
      e.e_tally.compute <- e.e_tally.compute +. occ;
      p.p_iters <- p.p_iters +. iters;
      p.p_compute <- p.p_compute +. occ;
      (match s with
      | Reduce { expr; _ } ->
          let r = exp_dram_reads e 0.0 expr *. iters in
          e.e_tally.rand <- e.e_tally.rand +. r;
          p.p_rand <- p.p_rand +. r
      | _ -> ());
      List.iter
        (est_stmt e ~execs:iters ~ctx:(ctx *. float_of_int par) ~prof:p)
        body
  | Foreach_scan { scan; body; trip; _ } | Reduce_scan { scan; body; trip; _ }
    ->
      let iters = trip_total e ~execs trip in
      let par = pattern_par e.e_cfg.arch ~sparse:true scan.scan_par in
      let scan_len =
        match scan.scan_len with
        | Int n -> float_of_int n
        | _ -> err "estimate: non-constant scan length"
      in
      let kind_base =
        match s with Reduce_scan _ -> "reduce_scan" | _ -> "foreach_scan"
      in
      let p =
        prof_child prof
          (Printf.sprintf "%s (%s)" scan.bind_coord (trip_descr trip))
          (kind_base ^ "/" ^ trip_kind trip)
      in
      let occ =
        (launch_total e ~execs ~par trip /. ctx)
        +. (scan_len *. execs
           /. (32.0 *. e.e_cfg.arch.Arch.bv_words_per_cycle *. ctx))
        +. (launch_ii *. execs /. ctx)
      in
      e.e_tally.iters <- e.e_tally.iters +. iters;
      e.e_tally.bits <- e.e_tally.bits +. (scan_len *. execs);
      e.e_tally.compute <- e.e_tally.compute +. occ;
      p.p_iters <- p.p_iters +. iters;
      p.p_compute <- p.p_compute +. occ;
      (match s with
      | Reduce_scan { expr; _ } ->
          let r = exp_dram_reads e 0.0 expr *. iters in
          e.e_tally.rand <- e.e_tally.rand +. r;
          p.p_rand <- p.p_rand +. r
      | _ -> ());
      List.iter
        (est_stmt e ~execs:iters ~ctx:(ctx *. float_of_int par) ~prof:p)
        body

(** Convert the raw per-statement charges to an attributed cycle tree.

    Both cost components decompose exactly over the tree:
    compute cycles are linear in each node's occupancy
    ([p_compute x net_overhead]); DRAM cycles are linear in each node's
    streamed bytes, random accesses, and burst issues
    ([Dram.transfer_cycles] is linear in its two traffic arguments, and
    the burst term is [bursts x latency x exposure]).  The one constant
    term — the single exposed first-word latency — is attributed to the
    root.  A node's {e attributed} cycles take the component on the
    kernel's critical path (compute-bound vs memory-bound, decided by the
    finished report), so attributed self-cycles over the whole tree sum
    to [report.cycles] exactly. *)
let profile_of cfg (r : report) root =
  let compute_bound = r.compute_cycles >= r.dram_cycles in
  let rec conv ~is_root p =
    let compute = p.p_compute *. cfg.arch.Arch.net_overhead in
    let dram =
      Dram.transfer_cycles cfg.dram ~clock_hz:cfg.arch.Arch.clock_hz
        ~streamed_bytes:p.p_bytes ~random_accesses:p.p_rand
      +. (p.p_bursts *. cfg.dram.Dram.latency_cycles
         *. cfg.arch.Arch.latency_exposure)
      +. (if is_root then cfg.dram.Dram.latency_cycles else 0.0)
    in
    Obs_profile.make ~label:p.p_label ~kind:p.p_kind
      ~self_cycles:(if compute_bound then compute else dram)
      ~self_compute_cycles:compute ~self_dram_cycles:dram
      ~iterations:p.p_iters
      ~children:(List.rev_map (conv ~is_root:false) p.p_rev_children)
      ()
  in
  conv ~is_root:true root

type profiled = {
  preport : report;
  ptree : Obs_profile.node;
      (** attributed cycle tree; [Obs_profile.total ptree = preport.cycles] *)
}

(** {!estimate}, additionally keeping every per-statement charge attached
    to the loop nest as an attributed cycle tree. *)
let estimate_profiled ?(config = default_config) (c : Compile.compiled) =
  Trace.with_span ~cat:"simulate"
    ~args:[ ("kernel", c.Compile.name) ]
    ("estimate " ^ c.Compile.name)
    (fun () ->
      Metrics.inc
        (Metrics.counter ~help:"analytic cost estimates run"
           "sim_estimates_total");
      let mems = Hashtbl.create 32 in
      List.iter
        (fun (tensor, bs) ->
          List.iter
            (fun (b : Memory.binding) ->
              Hashtbl.replace mems
                (Memory.onchip_name tensor b.Memory.array)
                (tensor, b.Memory.array))
            bs)
        c.Compile.plan.Plan.bindings;
      let e =
        {
          e_cfg = config;
          e_plan = c.Compile.plan;
          e_src = { tensors = c.Compile.inputs; memo = Hashtbl.create 16 };
          e_tally = fresh_tally ();
          e_mems = mems;
        }
      in
      let root = fresh_prof c.Compile.name "kernel" in
      List.iter
        (est_stmt e ~execs:1.0 ~ctx:1.0 ~prof:root)
        c.Compile.program.accel;
      let preport = finish config e.e_tally in
      { preport; ptree = profile_of config preport root })

(** Analytically estimate a compiled kernel's report from its trip
    annotations and the input tensors' statistics. *)
let estimate ?config (c : Compile.compiled) =
  (estimate_profiled ?config c).preport

(** Admissible lower bound on {!estimate}'s [cycles], from dataset
    statistics alone — no compilation, no estimator walk.  Budgeted
    search strategies use it to rank candidates before spending a full
    evaluation ({!Stardust_explore.Eval.lower_bound} extracts the two
    statistics from the problem's tensors).

    The bound is the roofline under the model's own cost accounting:

    - {b compute}: every mandatory element (each stored entry of a
      compressed input streamed in full by [Load_burst]) costs at least
      [1 / (lanes * outer_par * inner_par)] cycles — the rate when every
      requested lane is busy, which the estimator's context accounting
      ([ctx <= outer_par * inner_par], effective pattern parallelism
      capped at the request) can only worsen.  Independently, the
      deepest fiber iteration must launch its fibers:
      [fiber_launch_total ~par:inner_par / outer_par] cycles, again with
      the uncapped requested parallelism (the simulator's effective
      launch total is >= this).  Both terms carry the network-overhead
      derate applied by [finish].
    - {b memory}: the mandatory elements' bytes must cross DRAM at least
      once as perfectly-streamed bursts (random gathers only cost more
      per byte), plus one first-word latency.

    [cycles = max(compute, memory)] in [finish], so the max of the two
    underestimates is a true lower bound.  Admissibility
    ([estimate_bound <= estimate]) is checked at every feasible point of
    the paper kernels' search spaces and by an oracle-backed QCheck
    property.

    [streamed_elems] is the mandatory stored-entry count; [occupancy] is
    the largest last-level [fiber_launch_total ~par:inner_par] among the
    mandatory inputs (0 when a multiplicative co-iteration may shrink
    the walk below any single tensor's fiber total). *)
let estimate_bound ?(config = default_config) ~streamed_elems ~occupancy
    ~outer_par ~inner_par () =
  let arch = config.arch and dram = config.dram in
  let op = float_of_int (max 1 outer_par)
  and ip = float_of_int (max 1 inner_par) in
  let lanes = float_of_int arch.Arch.lanes in
  let compute =
    arch.Arch.net_overhead
    *. Float.max (streamed_elems /. (lanes *. op *. ip)) (occupancy /. op)
  in
  let memory =
    Dram.transfer_cycles dram ~clock_hz:arch.Arch.clock_hz
      ~streamed_bytes:(streamed_elems *. word_bytes) ~random_accesses:0.0
    +. dram.Dram.latency_cycles
  in
  Float.max compute memory
