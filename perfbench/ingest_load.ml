(** The [ingest] workload: a closed loop of dataset ingestions.

    One caller.  Set-up writes three seeded files: a MatrixMarket matrix
    in SuiteSparse order (sorted by column, then row), the same entries
    shuffled, and a FROSTT [.tns] 3-tensor in lexicographic order.  Each
    op reads one file through {!Ingest.read_file} under a budget,
    compiles it (spmv for the matrices, ttv for the 3-tensor), estimates
    its cycles and plans its tiles on a small chip.  A pass reads each
    file once. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Coo = Stardust_tensor.Coo
module Prng = Stardust_workloads.Prng
module D = Stardust_workloads.Datasets
module Compile = Stardust_core.Compile
module Plan = Stardust_core.Plan
module Lower = Stardust_core.Lower
module Spatial_ir = Stardust_spatial.Spatial_ir
module Arch = Stardust_capstan.Arch
module Sim = Stardust_capstan.Sim
module Ingest = Stardust_ingest.Ingest
module Tile = Stardust_ingest.Tile

let mtx_dim = 4096
let tns_dim = 256
let nnz = 40_000

(* The small chip of the ingest-throughput bench: 64 PMUs of 16 x 64
   words, 65536 words of SRAM, which every file here overflows. *)
let small_arch =
  { Arch.default with Arch.num_pmu = 64; pmu_banks = 16; pmu_words_per_bank = 64 }

let budget = Ingest.budget ~max_nnz:(2 * nnz) ~max_bytes:(64 * 1024 * 1024) ()

type kernel = {
  expr : string;
  formats : (string * F.t) list;
  data : string;  (** the name the file's tensor binds to *)
  vec : string;  (** the dense vector operand *)
}

let spmv =
  { expr = "y(i) = A(i,j) * x(j)";
    formats = [ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ];
    data = "A"; vec = "x" }

let ttv =
  { expr = "A(i,j) = B(i,j,k) * c(k)";
    formats = [ ("A", F.rm ()); ("B", F.csf 3); ("c", F.dv ()) ];
    data = "B"; vec = "c" }

type file = {
  path : string;
  kernel : kernel;
  entries : int;  (** entries the generator wrote *)
  bytes : int;
  vector : T.t;
  ref_cycles : float;  (** cycles of the same entries packed in memory *)
}

type st = { files : file list }

(* [n] distinct coordinates in [dims], values in quarter steps. *)
let entries ~seed dims n =
  let rng = Prng.create seed in
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] in
  while Hashtbl.length seen < n do
    let c = Array.map (fun d -> Prng.int rng d) dims in
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      out := (c, 0.25 *. float_of_int (1 + Prng.int rng 16)) :: !out
    end
  done;
  Array.of_list !out

let shuffle ~seed a =
  let rng = Prng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let write path header es =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc header;
      Array.iter
        (fun (c, v) ->
          Array.iter (fun x -> Printf.fprintf oc "%d " (x + 1)) c;
          Printf.fprintf oc "%g\n" v)
        es)

let compile (k : kernel) inputs =
  Compile.compile_string ~name:"ingest" ~formats:k.formats ~inputs k.expr

let inputs_of file t = [ (file.kernel.data, t); (file.kernel.vec, file.vector) ]

let make_file ~dir ~seed name kernel dims es header =
  let path = Filename.concat dir name in
  write path header es;
  let vector =
    D.dense_vector ~seed:(Common.derive seed [ 1 ]) ~name:kernel.vec
      ~dim:dims.(Array.length dims - 1) ()
  in
  let coo = Coo.create dims in
  Array.iter (fun (c, v) -> Coo.add coo c v) es;
  let packed =
    T.of_coo ~name:kernel.data ~format:(List.assoc kernel.data kernel.formats) coo
  in
  let file =
    { path; kernel; entries = Array.length es; bytes = (Unix.stat path).Unix.st_size;
      vector; ref_cycles = 0.0 }
  in
  { file with ref_cycles = (Sim.estimate (compile kernel (inputs_of file packed))).Sim.cycles }

let setup ~seed ~dir =
  let mdims = [| mtx_dim; mtx_dim |] and tdims = [| tns_dim; tns_dim; tns_dim |] in
  let mtx = entries ~seed:(Common.derive seed [ 1 ]) mdims nnz in
  let by_column a b = compare (a.(1), a.(0)) (b.(1), b.(0)) in
  Array.sort (fun (a, _) (b, _) -> by_column a b) mtx;
  let mm_header =
    Printf.sprintf "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n"
      mtx_dim mtx_dim nnz
  in
  let sorted = make_file ~dir ~seed "sorted.mtx" spmv mdims mtx mm_header in
  let shuffled_es = Array.copy mtx in
  shuffle ~seed:(Common.derive seed [ 2 ]) shuffled_es;
  let shuffled = make_file ~dir ~seed "shuffled.mtx" spmv mdims shuffled_es mm_header in
  let tns = entries ~seed:(Common.derive seed [ 3 ]) tdims nnz in
  Array.sort compare tns;
  let frostt = make_file ~dir ~seed "tensor.tns" ttv tdims tns "" in
  { files = [ sorted; shuffled; frostt ] }

let teardown _ = ()

let label f = Filename.basename f.path

(* One op.  Under [trace] each layer call runs in a span below the op's
   root span, and compile is issued as its schedule, plan, lower and
   validate calls. *)
let op_body ?trace file =
  let layer name f =
    match trace with
    | None -> f ()
    | Some (sp, op, parent) -> Spans.call sp ~name ~op ~parent f
  in
  let add key v = Option.iter (fun (sp, _, _) -> Spans.add sp key v) trace in
  let k = file.kernel in
  let t =
    match
      layer "ingest" (fun () ->
          Ingest.read_file ~name:k.data ~budget
            ~format:(List.assoc k.data k.formats) file.path)
    with
    | t ->
        add "ingest.entries" (float_of_int (T.num_vals t));
        add "ingest.bytes" (float_of_int file.bytes);
        t
    | exception e ->
        add "ingest.rejected" 1.0;
        raise e
  in
  let inputs = inputs_of file t in
  let c =
    match trace with
    | None -> compile k inputs
    | Some _ ->
        let sched =
          layer "schedule" (fun () -> Compile.schedule_of_string ~formats:k.formats k.expr)
        in
        let plan = layer "plan" (fun () -> Plan.build sched ~inputs) in
        let program = layer "lower" (fun () -> Lower.lower ~name:"ingest" plan) in
        add "lower.ir_nodes" (float_of_int (Common.ir_nodes program));
        let errs = layer "validate" (fun () -> Spatial_ir.validate program) in
        add "validate.errors" (float_of_int (List.length errs));
        if errs <> [] then failwith (String.concat "; " errs);
        { Compile.name = "ingest"; schedule = sched; plan; program; inputs }
  in
  let r = layer "estimate" (fun () -> Sim.estimate c) in
  let tiles =
    layer "tile" (fun () ->
        match Tile.plan small_arch c with Ok (_, rs) -> List.length rs | Error _ -> 0)
  in
  add "tile.tiles" (float_of_int tiles);
  (t, r.Sim.cycles)

(* The op's verdict: its entry count and cycles against the generator's,
   compared after the op's clock has stopped. *)
let sample file ~seconds ~norm outcome =
  let fail msg =
    { Common.label = label file ^ ": " ^ msg; seconds; norm; ok = false; cycles = None;
      bytes = file.bytes }
  in
  match outcome with
  | Error e -> fail (Printexc.to_string e)
  | Ok (t, cycles) ->
      if T.num_vals t <> file.entries then
        fail (Printf.sprintf "%d entries read, %d written" (T.num_vals t) file.entries)
      else if cycles <> file.ref_cycles then
        fail
          (Printf.sprintf "%.17g cycles, %.17g from the packed entries" cycles
             file.ref_cycles)
      else
        { Common.label = label file; seconds; norm; ok = true; cycles = Some cycles;
          bytes = file.bytes }

let run_op ?pacer ?trace file =
  let outcome, dt, norm =
    Common.timed_op pacer (fun () -> try Ok (op_body ?trace file) with e -> Error e)
  in
  sample file ~seconds:dt ~norm outcome

(* Whole passes until [seconds] of normalised op time have run. *)
let measure st ~seconds =
  let pacer = Common.pacer () in
  let rec go acc busy =
    let pass = List.map (fun f -> run_op ~pacer f) st.files in
    let busy = busy +. Common.norm_total pass in
    let acc = List.rev_append pass acc in
    if busy >= seconds then Common.phase (Common.renormalise pacer (List.rev acc))
    else go acc busy
  in
  go [] 0.0

let first_pass st = Common.phase (List.map (fun f -> run_op f) st.files)

(* Each op checks its own output (see [sample]); nothing is left to do. *)
let check _st _phase = { Common.checked = 0; failures = []; check_layers = [] }

let traced_pass st sp =
  let t0 = Common.now () in
  let samples =
    List.mapi
      (fun i file ->
        let op = i + 1 in
        let id = Spans.fresh_id sp in
        Spans.call sp ~id ~name:"op" ~op ~parent:0 (fun () ->
            run_op ~trace:(sp, op, id) file))
      st.files
  in
  Common.phase ~wall:(Common.now () -. t0) samples
