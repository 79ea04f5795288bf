(** Pruning layer: reject candidate points before paying for simulation.

    Two checks run on the compiled program, in increasing cost order:

    1. {b memory footprint} — the plain sum of on-chip allocation words
       (ignoring replication, so a lower bound on true demand) must fit
       the chip's total PMU capacity.  A kernel that fails this cannot be
       placed under any replication factor.
    2. {b resource capacity} — {!Stardust_capstan.Resources.count} with
       full replica accounting; the point is rejected when any of
       PCU/PMU/MC/shuffle demand exceeds its budget.

    The first reads no parallelization factor, so the evaluator runs it
    ({!footprint}) once per compiled structure and the second
    ({!capacity}) once per factor-bound point; {!check} runs both.
    Points that pass return their {!Stardust_capstan.Resources.usage} so
    the evaluator does not count twice.  (A third, implicit prune happens
    upstream: candidates that fail to compile — e.g. split loops, which
    the backends cannot lower yet — never reach this layer.) *)

module Arch = Stardust_capstan.Arch
module Resources = Stardust_capstan.Resources
module Compile = Stardust_core.Compile
open Stardust_spatial.Spatial_ir

type verdict = Pass of Resources.usage | Reject of string

(** Words of on-chip memory the program allocates, ignoring replication:
    SRAM words plus FIFO depths plus bit-vector bits (one word per bit in
    the PMU banking model). *)
let onchip_words (c : Compile.compiled) =
  let words = ref 0 in
  let alloc (a : alloc) =
    match a.kind with
    | Sram_dense | Sram_sparse | Bit_vector ->
        (match a.size with Int n -> words := !words + max 1 n | _ -> ())
    | Fifo depth -> words := !words + depth
    | Reg | Dram_dense | Dram_sparse -> ()
  in
  let rec go (s : stmt) =
    match s with
    | Alloc a -> alloc a
    | Foreach { body; _ }
    | Reduce { body; _ }
    | Foreach_scan { body; _ }
    | Reduce_scan { body; _ } ->
        List.iter go body
    | Comment _ | Let _ | Deq _ | Load_burst _ | Store_burst _ | Write _
    | Enq _ | Gen_bitvector _ ->
        ()
  in
  List.iter go c.Compile.program.accel;
  !words

(** The footprint check alone: [Some reason] when the program cannot be
    placed under any replication.  It reads no parallelization factor, so
    a search runs it once per compiled structure. *)
let footprint ?(arch = Arch.default) (c : Compile.compiled) =
  let capacity = arch.Arch.num_pmu * Arch.pmu_words arch in
  let words = onchip_words c in
  if words > capacity then
    Some
      (Fmt.str "on-chip footprint %d words exceeds chip capacity %d" words
         capacity)
  else None

(** The resource-capacity check alone, on a factor-bound program. *)
let capacity ?(arch = Arch.default) (c : Compile.compiled) =
  let u = Resources.count arch c in
  if not u.Resources.feasible then
    Reject (Fmt.str "over budget: %a" Resources.pp u)
  else Pass u

let check ?arch (c : Compile.compiled) =
  match footprint ?arch c with
  | Some reason -> Reject reason
  | None -> capacity ?arch c
