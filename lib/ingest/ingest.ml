(** Streaming dataset ingestion.

    The paper's evaluation runs on real SuiteSparse/FROSTT datasets; this
    module is the hardened path those files come in through.  Unlike the
    legacy {!Stardust_tensor.Tensor_io} readers (kept for their
    exception-style API), these readers

    - parse in a {b single bounded-memory pass}: each line is split in
      place (field boundaries recorded in a per-reader scratch array, not
      copied out), plain decimal coordinates are read straight from the
      line, and entries go into a flat struct-of-arrays
      {!Stardust_tensor.Coo} builder.  Duplicates are found after the
      pass, as adjacent equal coordinates in the packer's sorted order,
      not through a hash table;
    - enforce {b hard resource budgets} ([max_nnz], [max_bytes]) so a
      hostile or mislabeled file cannot OOM the process;
    - map {b every} malformed-input path to a stable [E021x]
      {!Stardust_diag.Diag} code carrying the file, line number and a
      byte-offset span, so [run --diag-json] reports ingestion failures
      structurally instead of dying on a stringly exception;
    - support {b fault injection} (truncation, byte corruption, denied
      opens) mirroring [Sim.execute ?faults], so the degradation path is
      testable without hand-corrupting files on disk;
    - account for themselves through [ingest_*] metrics and trace spans,
      including an open-fd gauge that a leak audit can assert returns to
      zero. *)

module Tensor = Stardust_tensor.Tensor
module Coo = Stardust_tensor.Coo
module Format = Stardust_tensor.Format
module Diag = Stardust_diag.Diag
module Metrics = Stardust_obs.Metrics
module Trace = Stardust_obs.Trace

(* ------------------------------------------------------------------ *)
(* Budgets and faults                                                  *)
(* ------------------------------------------------------------------ *)

(** Hard resource ceilings for one ingestion.  [None] means unlimited. *)
type budget = { max_nnz : int option; max_bytes : int option }

let no_budget = { max_nnz = None; max_bytes = None }
let budget ?max_nnz ?max_bytes () = { max_nnz; max_bytes }

(** Injected file-level adversities, mirroring [Sim.execute ?faults]:
    the reader behaves exactly as if the file on disk were damaged. *)
type fault =
  | Truncate_at of int
      (** the file appears to end after this many bytes *)
  | Corrupt_byte of { at : int; value : char }
      (** the byte at this offset reads back as [value] *)
  | Deny_open
      (** opening the file fails as if permission were denied *)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* metric handles are looked up per use so [Metrics.reset] (tests, fresh
   CLI runs) never leaves this module holding a detached ref *)
let count ?(by = 1.0) name help = Metrics.inc ~by (Metrics.counter ~help name)

let fd_gauge () =
  Metrics.gauge
    ~help:
      "file descriptors currently held by the streaming readers; a leak \
       audit asserts this returns to zero"
    "ingest_open_fds"

(** Current reader-held fd count — the fuzzer's leak audit asserts this
    returns to zero after every case. *)
let open_fds () = int_of_float (Metrics.value (fd_gauge ()))

(* ------------------------------------------------------------------ *)
(* Structured failure                                                  *)
(* ------------------------------------------------------------------ *)

exception Reject of Diag.t

let reject ?span ~path ~line ~code fmt =
  Fmt.kstr
    (fun m ->
      raise
        (Reject
           (Diag.make ~severity:Diag.Error ?span ~stage:Diag.Ingest ~code
              ~context:
                [ ("file", path); ("line", string_of_int line) ]
              m)))
    fmt

(* ------------------------------------------------------------------ *)
(* Faulting line source                                                *)
(* ------------------------------------------------------------------ *)

(** Field boundaries of the current line: {!split} records where each
    whitespace-separated field starts and stops instead of copying it
    out.  At most [max_fields + 1] fields are recorded, so ragged lines
    are detectable in bounded space. *)
type fields = { starts : int array; stops : int array; mutable count : int }

let max_fields = 64

let fields () =
  let bound () = Array.make (max_fields + 1) 0 in
  { starts = bound (); stops = bound (); count = 0 }

(** A line-oriented reader over an [in_channel] that tracks byte offsets
    and line numbers, applies injected faults, and enforces the byte
    budget.  All reads go through {!next_line}; the channel is closed by
    the caller's [Fun.protect]. *)
type source = {
  path : string;
  ic : in_channel;
  faults : fault list;
  max_bytes : int option;
  mutable offset : int;  (** bytes consumed so far *)
  mutable lineno : int;  (** 1-based line of the most recent {!next_line} *)
  mutable line_start : int;  (** byte offset where that line began *)
  mutable truncated : bool;  (** a [Truncate_at] fault has fired *)
  fields : fields;  (** scratch for {!split} *)
}

let truncate_point faults =
  List.fold_left
    (fun acc f ->
      match f with
      | Truncate_at n -> Some (match acc with Some m -> min m n | None -> n)
      | _ -> acc)
    None faults

let corrupt_line src line =
  let start = src.line_start in
  let len = String.length line in
  let patched = ref None in
  List.iter
    (fun f ->
      match f with
      | Corrupt_byte { at; value } when at >= start && at < start + len ->
          let b =
            match !patched with
            | Some b -> b
            | None ->
                let b = Bytes.of_string line in
                patched := Some b;
                b
          in
          Bytes.set b (at - start) value
      | _ -> ())
    src.faults;
  match !patched with Some b -> Bytes.to_string b | None -> line

(** Next line, or [None] at (possibly injected) end of file.  Raises
    {!Reject} with [E0214] when the byte budget is exceeded. *)
let next_line src =
  if src.truncated then None
  else
    match input_line src.ic with
    | exception End_of_file -> None
    | line ->
        src.lineno <- src.lineno + 1;
        src.line_start <- src.offset;
        let consumed = String.length line + 1 in
        src.offset <- src.offset + consumed;
        let line =
          match truncate_point src.faults with
          | Some n when src.line_start >= n ->
              src.truncated <- true;
              ""
          | Some n when src.offset > n ->
              src.truncated <- true;
              String.sub line 0 (n - src.line_start)
          | _ -> line
        in
        if src.truncated && line = "" then None
        else begin
          (match src.max_bytes with
          | Some b when src.offset > b ->
              reject ~path:src.path ~line:src.lineno
                ~span:{ Diag.start = src.line_start; stop = src.offset }
                ~code:Diag.code_ingest_budget
                "byte budget exceeded: read %d bytes of a %d-byte allowance"
                src.offset b
          | _ -> ());
          Some (corrupt_line src line)
        end

let line_span src =
  { Diag.start = src.line_start; stop = src.offset }

(* ------------------------------------------------------------------ *)
(* Parsing in place                                                    *)
(* ------------------------------------------------------------------ *)

let is_ws c = c = ' ' || c = '\t' || c = '\r'

(** Record the fields of [line] in [src.fields]. *)
let split src line =
  let f = src.fields and n = String.length line in
  f.count <- 0;
  let i = ref 0 in
  while !i < n && f.count <= max_fields do
    while !i < n && is_ws line.[!i] do
      incr i
    done;
    if !i < n then begin
      f.starts.(f.count) <- !i;
      while !i < n && not (is_ws line.[!i]) do
        incr i
      done;
      f.stops.(f.count) <- !i;
      f.count <- f.count + 1
    end
  done

(** Field [k] of the line last {!split}, copied out. *)
let field src line k =
  let f = src.fields in
  String.sub line f.starts.(k) (f.stops.(k) - f.starts.(k))

(** Field [k] as an integer.  A field of at most 18 plain decimal digits
    is read in place (it cannot overflow); any other field goes through
    [int_of_string], so every syntax it accepts ([+2], [0x2], [1_0])
    still parses.  A reject names the field [what arg], built only
    then. *)
let parse_int src line k what arg =
  let s = src.fields.starts.(k) and e = src.fields.stops.(k) in
  let v = ref 0 and i = ref s in
  if e - s <= 18 then
    while !i < e && line.[!i] >= '0' && line.[!i] <= '9' do
      v := (!v * 10) + Char.code line.[!i] - Char.code '0';
      incr i
    done;
  if !i = e then !v
  else
    let tok = String.sub line s (e - s) in
    match int_of_string tok with
    | v -> v
    | exception Failure _ ->
        reject ~path:src.path ~line:src.lineno ~span:(line_span src)
          ~code:Diag.code_ingest_entry "%s is not an integer: %S" (what arg)
          tok

let coordinate mode = Printf.sprintf "coordinate (mode %d)" mode

let parse_value src line k =
  let tok = field src line k in
  match float_of_string tok with
  | v -> v
  | exception _ ->
      reject ~path:src.path ~line:src.lineno ~span:(line_span src)
        ~code:Diag.code_ingest_entry "value is not a number: %S" tok

(** Field [k] as a 0-based coordinate of mode [mode], checked against
    [dim] when that is positive; every message is built only when its
    reject fires. *)
let parse_coord src line k ~mode ~dim =
  let c = parse_int src line k coordinate mode in
  if c < 1 then
    reject ~path:src.path ~line:src.lineno ~span:(line_span src)
      ~code:Diag.code_ingest_entry "coordinate %d (mode %d) is not positive" c
      mode;
  if dim > 0 && c > dim then
    reject ~path:src.path ~line:src.lineno ~span:(line_span src)
      ~code:Diag.code_ingest_entry
      "coordinate %d (mode %d) exceeds the declared dimension %d" c mode dim;
  c - 1

(* ------------------------------------------------------------------ *)
(* Reader scaffolding                                                  *)
(* ------------------------------------------------------------------ *)

(* a file whose order disagrees with the requested format must be a
   structured reject, not an Invalid_argument out of [Tensor.of_coo] *)
let check_format_order src ~format ~order =
  let fo = Format.order format in
  if fo <> order then
    reject ~path:src.path ~line:src.lineno
      ~code:Diag.code_ingest_entry
      "file holds an order-%d tensor but the requested format has order %d"
      order fo

let check_nnz_budget src ~budget n =
  match budget.max_nnz with
  | Some b when n > b ->
      reject ~path:src.path ~line:src.lineno ~span:(line_span src)
        ~code:Diag.code_ingest_budget
        "entry budget exceeded: %d entries over a max-nnz allowance of %d" n b
  | _ -> ()

(** Open [path], run [f] over a faulting source, and guarantee the
    channel is closed and the fd gauge rebalanced on every exit path. *)
let with_source ?(budget = no_budget) ?(faults = []) path f =
  if List.mem Deny_open faults then
    raise
      (Reject
         (Diag.error ~stage:Diag.Ingest ~code:Diag.code_ingest_unreadable
            ~context:[ ("file", path); ("line", "0") ]
            "cannot open %s: permission denied (injected fault)" path));
  match open_in path with
  | exception Sys_error m ->
      raise
        (Reject
           (Diag.error ~stage:Diag.Ingest ~code:Diag.code_ingest_unreadable
              ~context:[ ("file", path); ("line", "0") ]
              "cannot open %s: %s" path m))
  | ic ->
      Metrics.inc (fd_gauge ());
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          Metrics.inc ~by:(-1.0) (fd_gauge ()))
        (fun () ->
          let src =
            {
              path;
              ic;
              faults;
              max_bytes = budget.max_bytes;
              offset = 0;
              lineno = 0;
              line_start = 0;
              truncated = false;
              fields = fields ();
            }
          in
          let r = f src in
          count ~by:(float_of_int src.offset) "ingest_bytes_total"
            "bytes consumed by the streaming readers";
          r)

let run_reader name f =
  Trace.with_span ~cat:"ingest" name (fun () ->
      match f () with
      | t ->
          count "ingest_files_total" "files ingested successfully";
          count
            ~by:(float_of_int (Tensor.num_vals t))
            "ingest_entries_total" "coordinate entries ingested";
          Ok t
      | exception Reject d ->
          count "ingest_rejects_total"
            "ingestions rejected with a structured E021x code";
          Error [ d ]
      | exception Diag.Fail ds ->
          count "ingest_rejects_total"
            "ingestions rejected with a structured E021x code";
          Error ds)

(* ------------------------------------------------------------------ *)
(* Matrix Market                                                       *)
(* ------------------------------------------------------------------ *)

type mm_header = { symmetric : bool; pattern : bool }

let parse_mm_header src =
  match next_line src with
  | None ->
      reject ~path:src.path ~line:1 ~code:Diag.code_ingest_header
        "unexpected end of file: missing MatrixMarket header"
  | Some line ->
      let lower = String.lowercase_ascii line in
      split src lower;
      let fields = Array.init src.fields.count (field src lower) in
      if
        Array.length fields < 1
        || fields.(0) <> "%%matrixmarket"
      then
        reject ~path:src.path ~line:src.lineno ~span:(line_span src)
          ~code:Diag.code_ingest_header
          "missing MatrixMarket header (first line must start with \
           %%%%MatrixMarket)";
      if Array.length fields < 5 then
        reject ~path:src.path ~line:src.lineno ~span:(line_span src)
          ~code:Diag.code_ingest_header
          "truncated MatrixMarket header: want object format field symmetry";
      let mem s = Array.exists (String.equal s) fields in
      if not (mem "matrix" && mem "coordinate") then
        reject ~path:src.path ~line:src.lineno ~span:(line_span src)
          ~code:Diag.code_ingest_header
          "unsupported MatrixMarket header %S: only coordinate matrices are \
           supported"
          line;
      if not (mem "real" || mem "integer" || mem "pattern") then
        reject ~path:src.path ~line:src.lineno ~span:(line_span src)
          ~code:Diag.code_ingest_header
          "unsupported MatrixMarket field in %S: want real, integer or \
           pattern"
          line;
      if not (mem "general" || mem "symmetric") then
        reject ~path:src.path ~line:src.lineno ~span:(line_span src)
          ~code:Diag.code_ingest_header
          "unsupported MatrixMarket symmetry in %S: want general or symmetric"
          line;
      { symmetric = mem "symmetric"; pattern = mem "pattern" }

(** Next line that is neither blank nor a [%]/[#] comment, already
    {!split}. *)
let rec next_data_line src =
  match next_line src with
  | None -> None
  | Some l ->
      split src l;
      let f = src.fields in
      if f.count = 0 || l.[f.starts.(0)] = '%' || l.[f.starts.(0)] = '#' then
        next_data_line src
      else Some l

(** Streaming Matrix Market reader.  One pass: header, size line, then
    [nnz] entries straight into a {!Coo} builder created from the size
    line.  Duplicates (mirrored symmetric ones included) are found in the
    packer's sorted order and reported at the line of the earliest
    colliding insertion — before any reject from a later line, exactly as
    an insertion-time check would. *)
let read_matrix_market_result ?(name = "mtx") ?(budget = no_budget)
    ?(faults = []) ~format path =
  run_reader ("ingest.mtx " ^ path) @@ fun () ->
  with_source ~budget ~faults path @@ fun src ->
  let hdr = parse_mm_header src in
  let rows, cols, nnz =
    match next_data_line src with
    | None ->
        reject ~path ~line:src.lineno ~code:Diag.code_ingest_header
          "unexpected end of file: missing size line"
    | Some line -> (
        match src.fields.count with
        | 3 ->
            let r = parse_int src line 0 Fun.id "row count"
            and c = parse_int src line 1 Fun.id "column count"
            and n = parse_int src line 2 Fun.id "entry count" in
            if r < 1 || c < 1 || n < 0 then
              reject ~path ~line:src.lineno ~span:(line_span src)
                ~code:Diag.code_ingest_header
                "bad size line: %d x %d with %d entries" r c n;
            (r, c, n)
        | _ ->
            reject ~path ~line:src.lineno ~span:(line_span src)
              ~code:Diag.code_ingest_header
              "bad size line %S: want ROWS COLS NNZ" line)
  in
  check_nnz_budget src ~budget nnz;
  check_format_order src ~format ~order:2;
  (* an entry line takes at least 4 bytes, so the bytes the reader may
     consume bound the entries whatever the size line claims *)
  let bytes =
    min (in_channel_length src.ic) (Option.value src.max_bytes ~default:max_int)
  in
  let capacity = min nnz (bytes / 4) * if hdr.symmetric then 2 else 1 in
  let coo = Coo.create ~capacity [| rows; cols |] in
  (* Beside each entry, the line, span start and span stop it came from,
     so a duplicate is reported where its colliding insertion was read. *)
  let where = Coo.create ~capacity [| max_int; max_int; max_int |] in
  let entry = [| 0; 0 |] and origin = [| 0; 0; 0 |] in
  let push i j v =
    entry.(0) <- i;
    entry.(1) <- j;
    Coo.add coo entry v;
    origin.(0) <- src.lineno;
    origin.(1) <- src.line_start;
    origin.(2) <- src.offset;
    Coo.add where origin 0.0
  in
  (* Rejects the earliest insertion that repeats an earlier entry's
     coordinates — a mirrored symmetric entry included. *)
  let check_duplicates sorted =
    match Coo.first_duplicate coo sorted with
    | None -> ()
    | Some e ->
        let at m = Coo.coord where e m in
        reject ~path ~line:(at 0)
          ~span:{ Diag.start = at 1; stop = at 2 }
          ~code:Diag.code_ingest_duplicate "duplicate entry (%d, %d)"
          (Coo.coord coo e 0 + 1) (Coo.coord coo e 1 + 1)
  in
  let want = if hdr.pattern then 2 else 3 in
  let seen = ref 0 in
  let rec entries () =
    match next_data_line src with
    | None ->
        if !seen < nnz then
          reject ~path ~line:src.lineno ~span:(line_span src)
            ~code:Diag.code_ingest_truncated
            "truncated file: %d of %d entries" !seen nnz
    | Some line ->
        if !seen >= nnz then
          reject ~path ~line:src.lineno ~span:(line_span src)
            ~code:Diag.code_ingest_entry "trailing garbage after %d entries"
            nnz;
        let nf = src.fields.count in
        if nf <> want then
          (if hdr.pattern && nf > 2 then
             reject ~path ~line:src.lineno ~span:(line_span src)
               ~code:Diag.code_ingest_entry
               "pattern entry carries a value: %S" line
           else
             reject ~path ~line:src.lineno ~span:(line_span src)
               ~code:Diag.code_ingest_entry
               "malformed entry %S: want %d fields" line want);
        let i = parse_coord src line 0 ~mode:0 ~dim:rows in
        let j = parse_coord src line 1 ~mode:1 ~dim:cols in
        let v = if hdr.pattern then 1.0 else parse_value src line 2 in
        push i j v;
        if hdr.symmetric && i <> j then push j i v;
        incr seen;
        entries ()
  in
  (* a duplicate precedes any reject from a later line *)
  (try entries ()
   with Reject _ as e ->
     check_duplicates (Coo.sort coo);
     raise e);
  let sorted = Coo.sort ~mode_order:format.Format.mode_order coo in
  check_duplicates sorted;
  Tensor.of_coo ~sorted ~name ~format coo

(* ------------------------------------------------------------------ *)
(* FROSTT .tns                                                         *)
(* ------------------------------------------------------------------ *)

(** Streaming FROSTT reader.  [.tns] files carry no size header, so the
    single pass accumulates entries into a {!Coo} builder of unbounded
    extent (inferring the order from the first entry and the dimensions
    from coordinate maxima unless [dims] pins them), then checks for
    duplicates and builds the tensor once the extent is known. *)
let read_tns_result ?(name = "tns") ?dims ?(budget = no_budget)
    ?(faults = []) ~format path =
  run_reader ("ingest.tns " ^ path) @@ fun () ->
  with_source ~budget ~faults path @@ fun src ->
  let declared = Option.map Array.of_list dims in
  let order = ref (match declared with Some d -> Array.length d | None -> 0) in
  (* created at the first entry, once the order is known *)
  let coo = ref (Coo.create [| 1 |]) and entry = ref [||] in
  let maxima = ref [||] in
  let rec entries () =
    match next_data_line src with
    | None -> ()
    | Some line ->
        let nf = src.fields.count in
        if Array.length !maxima = 0 then begin
          if !order = 0 then begin
            if nf < 2 then
              reject ~path ~line:src.lineno ~span:(line_span src)
                ~code:Diag.code_ingest_entry
                "malformed entry %S: want COORDS.. VALUE" line;
            order := nf - 1
          end;
          maxima := Array.make !order 0;
          entry := Array.make !order 0;
          coo := Coo.create (Array.make !order max_int)
        end;
        if nf <> !order + 1 then
          reject ~path ~line:src.lineno ~span:(line_span src)
            ~code:Diag.code_ingest_entry
            "ragged entry %S: want %d coordinates and a value" line !order;
        for m = 0 to !order - 1 do
          let dim =
            match declared with Some d -> d.(m) | None -> 0
          in
          let c = parse_coord src line m ~mode:m ~dim in
          !maxima.(m) <- max !maxima.(m) (c + 1);
          !entry.(m) <- c
        done;
        Coo.add !coo !entry (parse_value src line !order);
        check_nnz_budget src ~budget (Coo.length !coo);
        entries ()
  in
  entries ();
  if Coo.length !coo = 0 then
    reject ~path ~line:src.lineno ~code:Diag.code_ingest_truncated
      "no entries in %s" path;
  (match declared with
  | Some d when Array.length d <> !order ->
      reject ~path ~line:src.lineno ~code:Diag.code_ingest_entry
        "entries have %d modes but dims declares %d" !order (Array.length d)
  | _ -> ());
  check_format_order src ~format ~order:!order;
  let coo =
    Coo.with_dims !coo (match declared with Some d -> d | None -> !maxima)
  in
  let sorted = Coo.sort ~mode_order:format.Format.mode_order coo in
  (match Coo.first_duplicate coo sorted with
  | Some e ->
      reject ~path ~line:src.lineno ~code:Diag.code_ingest_duplicate
        "duplicate entry %s"
        (String.concat " "
           (List.init !order (fun m -> string_of_int (Coo.coord coo e m + 1))))
  | None -> ());
  Tensor.of_coo ~sorted ~name ~format coo

(* ------------------------------------------------------------------ *)
(* Dispatch and raising shims                                          *)
(* ------------------------------------------------------------------ *)

(** Read a tensor file, dispatching on its extension ([.mtx] vs
    [.tns]). *)
let read_file_result ?name ?dims ?budget ?faults ~format path =
  match String.lowercase_ascii (Filename.extension path) with
  | ".mtx" | ".mm" -> read_matrix_market_result ?name ?budget ?faults ~format path
  | ".tns" -> read_tns_result ?name ?dims ?budget ?faults ~format path
  | ext ->
      count "ingest_rejects_total"
        "ingestions rejected with a structured E021x code";
      Error
        [
          Diag.error ~stage:Diag.Ingest ~code:Diag.code_ingest_unreadable
            ~context:[ ("file", path); ("line", "0") ]
            "unknown tensor file extension %S (want .mtx or .tns)" ext;
        ]

(** Raising shim over {!read_file_result} for callers already speaking
    {!Diag.Fail}. *)
let read_file ?name ?dims ?budget ?faults ~format path =
  match read_file_result ?name ?dims ?budget ?faults ~format path with
  | Ok t -> t
  | Error ds -> Diag.fail ds
