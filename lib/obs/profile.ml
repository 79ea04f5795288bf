(** Attributed cycle trees: where a kernel's simulated cycles go,
    loop by loop.

    The Capstan analytic simulator walks the generated Spatial program
    charging pipeline occupancy and DRAM traffic per statement; profiling
    keeps those charges attached to the loop nest instead of collapsing
    them into run totals.  The result is a {!node} tree mirroring the
    program structure where every node carries its {e self} costs —
    exactly the cycles charged at that node, excluding children — so the
    self costs over the whole tree sum to the run totals (the invariant
    the test suite checks against [Sim.report]).

    A node's {e attributed} cycles ({!field-self_cycles}) are the
    component on the kernel's critical path: the builder picks the
    compute or the memory decomposition wholesale depending on which
    bound the roofline, so percentages printed against the kernel total
    are meaningful.  Both components are always carried
    ({!field-self_compute_cycles}, {!field-self_dram_cycles}) for the
    compute-vs-DRAM breakdown. *)

module Json = Stardust_json.Json

type node = {
  label : string;  (** loop binder, transfer target, or kernel name *)
  kind : string;
      (** ["kernel"], ["foreach"], ["reduce"], ["scan"], ["burst"],
          ["bitvector"], with the iteration class suffixed for loops
          (e.g. ["foreach/coiter"]) *)
  self_cycles : float;  (** attributed cycles charged at this node *)
  self_compute_cycles : float;
  self_dram_cycles : float;
  iterations : float;  (** scalar iterations this node launched *)
  children : node list;
}

let make ?(children = []) ?(iterations = 0.0) ~label ~kind ~self_cycles
    ~self_compute_cycles ~self_dram_cycles () =
  {
    label;
    kind;
    self_cycles;
    self_compute_cycles;
    self_dram_cycles;
    iterations;
    children;
  }

let rec fold f acc n = List.fold_left (fold f) (f acc n) n.children

(** Total attributed cycles of the subtree (self + descendants). *)
let total n = fold (fun acc n -> acc +. n.self_cycles) 0.0 n
let total_compute n = fold (fun acc n -> acc +. n.self_compute_cycles) 0.0 n
let total_dram n = fold (fun acc n -> acc +. n.self_dram_cycles) 0.0 n
let node_count n = fold (fun acc _ -> acc + 1) 0 n

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let si f =
  let a = Float.abs f in
  if a >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
  else if a >= 1e4 then Printf.sprintf "%.1fk" (f /. 1e3)
  else Printf.sprintf "%.0f" f

(** Render the tree with per-node subtree cycles, share of the kernel
    total, and the compute/DRAM split.  [grand] defaults to the root's
    subtree total. *)
let render ?grand ppf root =
  let grand =
    match grand with Some g -> g | None -> Float.max (total root) 1e-9
  in
  let pct c = 100.0 *. c /. grand in
  let rec go prefix is_last n =
    let sub = total n in
    let branch, cont =
      if prefix = "" && n.kind = "kernel" then ("", "")
      else if is_last then (prefix ^ "`- ", prefix ^ "   ")
      else (prefix ^ "|- ", prefix ^ "|  ")
    in
    Fmt.pf ppf "%s%s [%s]  %s cycles (%.1f%%)  compute %s  dram %s%s@,"
      branch n.label n.kind (si sub) (pct sub) (si (total_compute n))
      (si (total_dram n))
      (if n.iterations > 0.0 then Printf.sprintf "  %s iters" (si n.iterations)
       else "");
    let rec children = function
      | [] -> ()
      | [ c ] -> go cont true c
      | c :: rest ->
          go cont false c;
          children rest
    in
    children n.children
  in
  Fmt.pf ppf "@[<v>";
  go "" true root;
  Fmt.pf ppf "@]"

let to_string root = Fmt.str "%a" (render ?grand:None) root

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let number = Json.number_to_string

let rec to_json n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"label\":\"%s\",\"kind\":\"%s\",\"self_cycles\":%s,\"self_compute_cycles\":%s,\"self_dram_cycles\":%s,\"iterations\":%s,\"total_cycles\":%s"
       (Json.escape n.label)
       (Json.escape n.kind)
       (number n.self_cycles)
       (number n.self_compute_cycles)
       (number n.self_dram_cycles)
       (number n.iterations) (number (total n)));
  (match n.children with
  | [] -> ()
  | cs ->
      Buffer.add_string buf ",\"children\":[";
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (to_json c))
        cs;
      Buffer.add_char buf ']');
  Buffer.add_char buf '}';
  Buffer.contents buf
