(** A minimal JSON value type with a printer and a recursive-descent
    parser, shared by every Stardust tool that reads or writes JSON —
    the oracle's corpus files, the benchmark suite's perf-diff documents,
    and the compile service's request/response protocol — so none of
    them pulls a JSON dependency into the build or re-implements
    encoding.  Numbers are floats (the documents only carry small
    integers and tensor values); strings support the escapes
    {!Stardust_diag.Diag}'s renderer emits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

exception Parse_error of string * int  (** message, character offset *)

(** Maximum container-nesting depth the parser accepts.  The parser is
    recursive-descent, so its stack use is proportional to the input's
    nesting; past this bound it raises {!Parse_error} instead of
    letting a hostile line like [\[\[\[\[…] run the OCaml stack out
    ([Stack_overflow] escapes exception filters tuned for I/O errors —
    the compile service in particular must see a parse error here,
    never an asynchronous-looking crash).  512 levels is far beyond any
    document our own printers emit. *)
let max_depth = 512

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Render a number: integers without a trailing ".", everything else in
    round-trippable %.17g. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        l;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   (* corpus files only carry ASCII; decode the BMP point
                      as a raw byte when it fits, '?' otherwise *)
                   Buffer.add_char buf
                     (if code < 0x100 then Char.chr code else '?');
                   pos := !pos + 5
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    if !pos = start then fail "expected a number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let too_deep depth =
    (* [depth] counts enclosing containers; a container opening at the
       bound would nest its children one past it *)
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        too_deep depth;
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value (depth + 1) :: !items;
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          Arr (List.rev !items)
        end
    | Some '{' ->
        too_deep depth;
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            (k, parse_value (depth + 1))
          in
          let items = ref [ member () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := member () :: !items;
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !items)
        end
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after JSON value";
  v

(* ------------------------------------------------------------------ *)
(* Accessors (raise [Parse_error] on shape mismatch)                   *)
(* ------------------------------------------------------------------ *)

let shape_fail what = raise (Parse_error ("expected " ^ what, 0))
let member k = function
  | Obj l -> List.assoc_opt k l
  | _ -> shape_fail "an object"

let member_exn k v =
  match member k v with
  | Some x -> x
  | None -> shape_fail (Printf.sprintf "member %S" k)

let to_float = function Num f -> f | _ -> shape_fail "a number"
let to_int v = int_of_float (to_float v)
let to_str = function Str s -> s | _ -> shape_fail "a string"
let to_list = function Arr l -> l | _ -> shape_fail "an array"
let to_obj = function Obj l -> l | _ -> shape_fail "an object"
