(** Ingestion throughput benchmark: how fast does the streaming Matrix
    Market reader move real-dataset bytes, and what does the out-of-core
    tiling planner decide for a matrix that outgrows a chip?

    Each dataset is generated deterministically (a fixed odd stride
    walking a power-of-two cell grid visits every cell exactly once, so
    the first [nnz] steps are distinct coordinates), written to a temp
    file, streamed back through {!Stardust_ingest.Ingest} under an
    explicit byte budget, compiled into spmv, and handed to
    {!Stardust_ingest.Tile.plan} against a deliberately small chip.  The
    entry/byte/tile counts and the tile-0 cycle estimate are
    deterministic and diffed by CI's ingest-smoke job; the wall-clock
    fields are not. *)

module Compile = Stardust_core.Compile
module Sim = Stardust_capstan.Sim
module Arch = Stardust_capstan.Arch
module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module D = Stardust_workloads.Datasets
module Ingest = Stardust_ingest.Ingest
module Tile = Stardust_ingest.Tile

let rows = 2048
let cols = 2048
let cells = rows * cols

(* Odd stride on a power-of-two cell count: the walk is a permutation of
   the grid, so the first [nnz] cells are distinct without any dedup
   bookkeeping on the generator side. *)
let stride = 1_000_003

let write_mtx path ~nnz =
  let oc = open_out path in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "%%MatrixMarket matrix coordinate real general\n";
  Buffer.add_string buf (Printf.sprintf "%d %d %d\n" rows cols nnz);
  for k = 0 to nnz - 1 do
    let p = k * stride land (cells - 1) in
    Buffer.add_string buf
      (Printf.sprintf "%d %d %d.0\n" ((p / cols) + 1) ((p mod cols) + 1)
         (1 + (k mod 9)));
    if Buffer.length buf > 1 lsl 16 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  done;
  Buffer.output_buffer oc buf;
  close_out oc

(* The CI smoke ingests ~1M entries; the budget leaves headroom over the
   actual file size but still proves the budgeted code path. *)
let budget = Ingest.budget ~max_nnz:2_000_000 ~max_bytes:64_000_000 ()

(* A quarter-ish chip — 64 PMUs of 16 x 64 words, 65536 words of SRAM —
   small enough that both datasets overflow it and the planner's tile
   counts separate them. *)
let small_arch =
  { Arch.default with Arch.num_pmu = 64; pmu_banks = 16; pmu_words_per_bank = 64 }

let datasets = [ ("mtx-100k", 100_000); ("mtx-1m", 1_000_000) ]

type row = {
  dataset : string;
  target_nnz : int;  (** generator request; the diff key (deterministic) *)
  entries : int;  (** entries the reader ingested (deterministic) *)
  bytes : int;  (** file bytes consumed (deterministic) *)
  tiles : int;  (** coordinate tiles planned on [small_arch] (deterministic) *)
  tile0_cycles : float;  (** analytic cycles of the first tile (deterministic) *)
  ingest_seconds : float;
}

let mb_per_sec r =
  if r.ingest_seconds > 0.0 then
    float_of_int r.bytes /. (1024.0 *. 1024.0) /. r.ingest_seconds
  else infinity

let measure () =
  List.map
    (fun (dataset, nnz) ->
      let path = Filename.temp_file "stardust-ingest-bench" ".mtx" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      @@ fun () ->
      write_mtx path ~nnz;
      let bytes = (Unix.stat path).Unix.st_size in
      let t0 = Unix.gettimeofday () in
      let a = Ingest.read_file ~name:"A" ~budget ~format:(F.csr ()) path in
      let ingest_seconds = Unix.gettimeofday () -. t0 in
      let formats = [ ("y", F.dv ()); ("A", F.csr ()); ("x", F.dv ()) ] in
      let expr = "y(i) = A(i,j) * x(j)" in
      let inputs =
        [ ("A", a); ("x", D.dense_vector ~seed:4 ~name:"x" ~dim:cols ()) ]
      in
      let c = Compile.compile_string ~formats ~inputs expr in
      match Tile.plan small_arch c with
      | Error reason ->
          Fmt.failwith "ingest bench: %s does not tile: %s" dataset reason
      | Ok (shard, ranges) ->
          let lo, hi = List.hd ranges in
          let c0 =
            Compile.compile_string ~formats
              ~inputs:(Tile.tile_inputs shard c ~lo ~hi)
              expr
          in
          let r0 = Sim.estimate ~config:Sim.default_config c0 in
          {
            dataset;
            target_nnz = nnz;
            entries = T.num_vals a;
            bytes;
            tiles = List.length ranges;
            tile0_cycles = r0.Sim.cycles;
            ingest_seconds;
          })
    datasets

(** JSON fragment for the suite document: one object per dataset.
    [target_nnz]/[entries]/[bytes]/[tiles]/[tile0_cycles] are the
    deterministic fields; the wall-clock fields are ignored by
    perf-diff. *)
let rows_json rs =
  let num = Stardust_json.Json.number_to_string in
  String.concat ","
    (List.map
       (fun r ->
         Printf.sprintf
           "{\"dataset\":\"%s\",\"target_nnz\":%d,\"entries\":%d,\"bytes\":%d,\"tiles\":%d,\"tile0_cycles\":%s,\"wall_ingest_seconds\":%s,\"wall_mb_per_sec\":%s}"
           r.dataset r.target_nnz r.entries r.bytes r.tiles
           (num r.tile0_cycles) (num r.ingest_seconds) (num (mb_per_sec r)))
       rs)

(** Standalone [bench ingest-throughput]: human-readable table. *)
let run () =
  let rs = measure () in
  Fmt.pr "@.== Ingestion throughput (streaming .mtx reader, %dx%d grid) ==@."
    rows cols;
  Fmt.pr "%-10s %10s %10s %10s %8s %6s %14s@." "dataset" "entries" "MB"
    "MB/s" "Mnnz/s" "tiles" "tile0 cycles";
  List.iter
    (fun r ->
      let mb = float_of_int r.bytes /. (1024.0 *. 1024.0) in
      Fmt.pr "%-10s %10d %10.1f %10.1f %8.2f %6d %14.0f@." r.dataset r.entries
        mb (mb_per_sec r)
        (if r.ingest_seconds > 0.0 then
           float_of_int r.entries /. 1.0e6 /. r.ingest_seconds
         else infinity)
        r.tiles r.tile0_cycles)
    rs;
  Fmt.pr
    "tiles planned for a %d-PMU chip (%d words of SRAM); cycles from the \
     HBM2E analytic model@."
    small_arch.Arch.num_pmu
    (Tile.budget_words small_arch)
