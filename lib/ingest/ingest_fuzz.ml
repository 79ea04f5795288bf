(** Byte-wise mutation fuzzing of the streaming dataset readers.

    The robustness contract of {!Ingest} is an {e envelope}: for any
    input bytes whatsoever, [read_file_result] either returns a tensor or
    a structured [E021x] diagnostic — never a raw [Scanf] failure, a
    [Stack_overflow], an uncaught [Failure], or a leaked file
    descriptor.  This fuzzer hammers that contract: it generates
    well-formed [.mtx]/[.tns] files, applies random byte-level mutations
    (overwrites, insertions, deletions, truncations, line duplications),
    sometimes layers injected faults on top, and audits every outcome
    against the envelope.

    Runs are bit-for-bit reproducible from the seed: the generator is a
    private {!Random.State} and case files are rewritten in place. *)

module Diag = Stardust_diag.Diag
module Stats_cache = Stardust_tensor.Stats_cache

(** Everything a run learned.  [failures] holds one human-readable line
    per envelope escape; the run is green iff it is empty.  [digest]
    hashes every case's outcome — the code, message, line and span of a
    reject, the fingerprint of a parse — so a reader rewrite can prove it
    changed no diagnostic and no tensor over a whole run. *)
type stats = {
  cases : int;
  ok : int;  (** mutants that still parsed *)
  rejected : int;  (** mutants rejected with a structured E021x *)
  failures : string list;
  digest : string;  (** hex MD5 of the per-case outcome lines *)
}

let pp_stats ppf s =
  Fmt.pf ppf
    "ingest fuzz: %d cases, %d parsed, %d rejected, %d escapes, digest %s"
    s.cases s.ok s.rejected (List.length s.failures) s.digest

(* ------------------------------------------------------------------ *)
(* Well-formed file generation                                         *)
(* ------------------------------------------------------------------ *)

let gen_mtx rng =
  let rows = 1 + Random.State.int rng 8
  and cols = 1 + Random.State.int rng 8 in
  let symmetric = rows = cols && Random.State.bool rng in
  let pattern = Random.State.bool rng in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%%%%MatrixMarket matrix coordinate %s %s\n"
       (if pattern then "pattern" else "real")
       (if symmetric then "symmetric" else "general"));
  if Random.State.bool rng then Buffer.add_string buf "% a comment line\n";
  (* distinct coordinates, lower-triangular when symmetric *)
  let seen = Hashtbl.create 16 in
  let entries = ref [] in
  let want = 1 + Random.State.int rng 12 in
  for _ = 1 to want do
    let i = 1 + Random.State.int rng rows in
    let j = 1 + Random.State.int rng cols in
    let i, j = if symmetric && j > i then (j, i) else (i, j) in
    if not (Hashtbl.mem seen (i, j)) then begin
      Hashtbl.add seen (i, j) ();
      entries := (i, j) :: !entries
    end
  done;
  let entries = List.rev !entries in
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d\n" rows cols (List.length entries));
  List.iter
    (fun (i, j) ->
      if pattern then Buffer.add_string buf (Printf.sprintf "%d %d\n" i j)
      else
        Buffer.add_string buf
          (Printf.sprintf "%d %d %.3f\n" i j
             (Random.State.float rng 10.0 -. 5.0)))
    entries;
  Buffer.contents buf

let gen_tns rng =
  let order = 1 + Random.State.int rng 3 in
  let dims = Array.init order (fun _ -> 1 + Random.State.int rng 6) in
  let buf = Buffer.create 256 in
  if Random.State.bool rng then Buffer.add_string buf "# a comment line\n";
  let seen = Hashtbl.create 16 in
  let want = 1 + Random.State.int rng 12 in
  for _ = 1 to want do
    let c = Array.map (fun d -> 1 + Random.State.int rng d) dims in
    let key = String.concat "," (Array.to_list (Array.map string_of_int c)) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Array.iter (fun x -> Buffer.add_string buf (string_of_int x ^ " ")) c;
      Buffer.add_string buf
        (Printf.sprintf "%.3f\n" (Random.State.float rng 10.0 -. 5.0))
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Byte-level mutation                                                 *)
(* ------------------------------------------------------------------ *)

let mutate rng s =
  let n = String.length s in
  if n = 0 then s
  else
    match Random.State.int rng 5 with
    | 0 ->
        (* overwrite one byte with anything, printable or not *)
        let b = Bytes.of_string s in
        Bytes.set b (Random.State.int rng n)
          (Char.chr (Random.State.int rng 256));
        Bytes.to_string b
    | 1 ->
        (* insert a byte *)
        let at = Random.State.int rng (n + 1) in
        String.sub s 0 at
        ^ String.make 1 (Char.chr (Random.State.int rng 256))
        ^ String.sub s at (n - at)
    | 2 ->
        (* delete a byte *)
        let at = Random.State.int rng n in
        String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
    | 3 ->
        (* truncate *)
        String.sub s 0 (Random.State.int rng n)
    | _ -> (
        (* duplicate a whole line somewhere *)
        match String.split_on_char '\n' s with
        | [] | [ _ ] -> s
        | lines ->
            let lines = Array.of_list lines in
            let src = Random.State.int rng (Array.length lines) in
            let parts = Array.to_list lines in
            String.concat "\n" (parts @ [ lines.(src) ]))

(* ------------------------------------------------------------------ *)
(* The envelope audit                                                  *)
(* ------------------------------------------------------------------ *)

let envelope_codes =
  [
    Diag.code_ingest_unreadable;
    Diag.code_ingest_header;
    Diag.code_ingest_entry;
    Diag.code_ingest_duplicate;
    Diag.code_ingest_budget;
    Diag.code_ingest_truncated;
  ]

let in_envelope (d : Diag.t) = List.mem d.Diag.code envelope_codes

(** A read's outcome on one line: each reject's code, message, line and
    span, or the parsed tensor's fingerprint. *)
let outcome_line ~path = function
  | Ok t -> "ok " ^ Stats_cache.fingerprint t
  | Error ds ->
      String.concat "; "
        (List.map
           (fun (d : Diag.t) ->
             Printf.sprintf "%s %S line=%s span=%s" d.Diag.code
               (* the case file's name carries the process id *)
               (Str.global_replace (Str.regexp_string path) "<file>"
                  d.Diag.message)
               (Option.value ~default:"-"
                  (List.assoc_opt "line" d.Diag.context))
               (match d.Diag.span with
               | Some s -> Printf.sprintf "%d-%d" s.Diag.start s.Diag.stop
               | None -> "-"))
           ds)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(** Run [cases] mutation cases ([log] gets one line per escape as it is
    found).  Budgets are set loose enough that most mutants exercise the
    parsers rather than the budget check, but tight enough that a mutant
    which inflates the file still lands on a structured [E0214]. *)
let run ?(cases = 200) ?(seed = 42) ?(log = ignore) () =
  let rng = Random.State.make [| seed; 0x16e57 |] in
  let budget = Ingest.budget ~max_nnz:100_000 ~max_bytes:1_000_000 () in
  let dir = Filename.get_temp_dir_name () in
  let base =
    Filename.concat dir
      (Printf.sprintf "stardust-ingest-fuzz-%d-%d" (Unix.getpid ()) seed)
  in
  let ok = ref 0 and rejected = ref 0 and failures = ref [] in
  let outcomes = Buffer.create 4096 in
  let fail case fmt =
    Fmt.kstr
      (fun m ->
        let m = Printf.sprintf "case %d: %s" case m in
        log m;
        failures := m :: !failures)
      fmt
  in
  for case = 1 to cases do
    let is_mtx = Random.State.bool rng in
    let path = base ^ if is_mtx then ".mtx" else ".tns" in
    let pristine = if is_mtx then gen_mtx rng else gen_tns rng in
    let mutations = Random.State.int rng 4 in
    let bytes = ref pristine in
    for _ = 1 to mutations do
      bytes := mutate rng !bytes
    done;
    write_file path !bytes;
    (* one case in four also layers an injected fault on the mutant *)
    let faults =
      match Random.State.int rng 8 with
      | 0 -> [ Ingest.Truncate_at (Random.State.int rng 64) ]
      | 1 ->
          [
            Ingest.Corrupt_byte
              {
                at = Random.State.int rng (max 1 (String.length !bytes));
                value = Char.chr (Random.State.int rng 256);
              };
          ]
      | _ -> []
    in
    let format =
      if is_mtx then Stardust_tensor.Format.csr ()
      else Stardust_tensor.Format.ucc ()
    in
    (match
       Ingest.read_file_result ~name:"fuzz" ~budget ~faults ~format path
     with
    | r -> (
        Buffer.add_string outcomes (outcome_line ~path r ^ "\n");
        match r with
        | Ok _ -> incr ok
        | Error [] -> fail case "empty diagnostic list"
        | Error ds ->
            if List.for_all in_envelope ds then incr rejected
            else
              List.iter
                (fun d ->
                  if not (in_envelope d) then
                    fail case "diagnostic outside the E021x envelope: %s (%s)"
                      d.Diag.code d.Diag.message)
                ds)
    | exception e ->
        fail case "reader escaped with exception %s" (Printexc.to_string e));
    let fds = Ingest.open_fds () in
    if fds <> 0 then fail case "fd leak: ingest_open_fds = %d after case" fds
  done;
  (try Sys.remove (base ^ ".mtx") with Sys_error _ -> ());
  (try Sys.remove (base ^ ".tns") with Sys_error _ -> ());
  let digest = Digest.to_hex (Digest.string (Buffer.contents outcomes)) in
  let failures = List.rev !failures in
  { cases; ok = !ok; rejected = !rejected; failures; digest }
