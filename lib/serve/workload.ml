(** Request-input construction shared by the CLI driver and the compile
    service: format names, ["A=64x64@0.05"] data specs, ["A=@path.mtx"]
    file specs, and the paper-shaped random inputs for a named kernel
    stage.  Input generation is fully deterministic — the same spec
    always produces the same tensor — which is what makes request
    fingerprints content-addressed: two clients sending the same request
    text hit the same plan-cache entry.  (File-spec tensors stay
    content-addressed too: the plan-cache key folds in each input's
    {!Stardust_tensor.Stats_cache} fingerprint, which covers the file's
    actual contents.)

    File specs resolve inside an explicit [data_root] sandbox; without
    one they are refused, so exposing the daemon never exposes the
    filesystem. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module K = Stardust_core.Kernels
module D = Stardust_workloads.Datasets
module Ingest = Stardust_ingest.Ingest

let format_of_string = function
  | "csr" -> F.csr ()
  | "csc" -> F.csc ()
  | "dv" -> F.dv ()
  | "sv" -> F.sv ()
  | "rm" | "dense" -> F.rm ()
  | "cm" -> F.cm ()
  | "csf2" -> F.csf 2
  | "csf3" | "csf" -> F.csf 3
  | "ucc" -> F.ucc ()
  | "scalar" -> F.make []
  | s ->
      Fmt.failwith "unknown format %S (try csr csc dv sv rm cm csf ucc scalar)"
        s

(** The one table mapping autotune strategy names to explorer
    strategies, shared by the CLI's [--strategy] flag and the serve
    protocol's ["strategy"] field so the two surfaces can never drift.
    [grid] is the historical name for exhaustive enumeration, and the
    default of both surfaces. *)
let strategy_names = [ "grid"; "exhaustive"; "halving" ]

let strategy_of_string name =
  let module E = Stardust_explore.Explore in
  match name with
  | "grid" | "exhaustive" -> Ok E.Exhaustive
  | "halving" -> Ok E.Halving
  | s ->
      Error
        (Fmt.str "unknown autotune strategy %S (try %s)" s
           (String.concat "/" strategy_names))

(** Parse one ["NAME=FMT"] binding. *)
let parse_format_binding s =
  match String.split_on_char '=' s with
  | [ n; f ] -> (n, format_of_string f)
  | _ -> Fmt.failwith "bad format binding %S (want NAME=FMT)" s

(** Where one data spec's tensor comes from. *)
type source =
  | Random of { dims : int list; density : float option }
      (** ["A=8x8@0.3"] or ["x=8"] (dense when no density given) *)
  | File of string  (** ["A=@path.mtx"]: a real dataset, sandbox-relative *)

(** Parse one data spec: ["A=8x8@0.3"], ["x=8"], or ["A=@path.mtx"]. *)
let parse_data_spec s =
  match String.split_on_char '=' s with
  | [ name; rest ] when String.length rest > 1 && rest.[0] = '@' ->
      (name, File (String.sub rest 1 (String.length rest - 1)))
  | [ name; rest ] ->
      let dims_s, density =
        match String.split_on_char '@' rest with
        | [ d ] -> (d, None)
        | [ d; dens ] -> (d, Some (float_of_string dens))
        | _ -> Fmt.failwith "bad data spec %S" s
      in
      let dims =
        try List.map int_of_string (String.split_on_char 'x' dims_s)
        with Failure _ ->
          Fmt.failwith
            "bad data spec %S (want NAME=DIMSxDIMS[@DENSITY] or NAME=@PATH)" s
      in
      (name, Random { dims; density })
  | _ ->
      Fmt.failwith
        "bad data spec %S (want NAME=DIMSxDIMS[@DENSITY] or NAME=@PATH)" s

(** Resolve a file spec inside the [data_root] sandbox.  Absolute paths
    and [..] traversal are refused outright — a compile service must not
    be an arbitrary-file-read oracle.  Refusals are structured [E0210]
    ingestion diagnostics, the same envelope as an unreadable file. *)
let resolve_data_path ~data_root rel =
  let refuse fmt =
    Fmt.kstr
      (fun m ->
        Stardust_diag.Diag.fail
          [
            Stardust_diag.Diag.error ~stage:Stardust_diag.Diag.Ingest
              ~code:Stardust_diag.Diag.code_ingest_unreadable
              ~context:[ ("file", rel); ("line", "0") ]
              "%s" m;
          ])
      fmt
  in
  match data_root with
  | None ->
      refuse "file data spec @%s needs --data-root (file access is sandboxed)"
        rel
  | Some root ->
      if not (Filename.is_relative rel) then
        refuse "file data spec @%s must be a relative path" rel
      else if
        List.exists
          (String.equal Filename.parent_dir_name)
          (String.split_on_char '/' rel)
      then refuse "file data spec @%s must not traverse with .." rel
      else Filename.concat root rel

let gen_tensor name fmt dims density seed =
  match density with
  | Some d -> D.small_random ~seed ~name ~format:fmt ~dims ~density:d ()
  | None -> (
      match dims with
      | [ n ] -> D.dense_vector ~seed ~name ~dim:n ()
      | [ r; c ] when F.is_fully_dense fmt ->
          D.dense_matrix ~seed ~name ~format:fmt ~rows:r ~cols:c ()
      | _ -> D.small_random ~seed ~name ~format:fmt ~dims ~density:1.0 ())

(** Build the inputs of a list of ["NAME=DIMS[@DENSITY]"] /
    ["NAME=@PATH"] specs against format bindings; seeds are positional,
    matching the CLI's historical behavior, so spec lists are
    reproducible verbatim.  File specs stream through
    {!Stardust_ingest.Ingest} under [budget] and raise
    {!Stardust_diag.Diag.Fail} with stable [E021x] codes on malformed
    files. *)
let inputs_of_specs ?data_root ?(budget = Ingest.no_budget) ~formats specs =
  List.mapi
    (fun i s ->
      let name, source = parse_data_spec s in
      let fmt =
        match List.assoc_opt name formats with
        | Some f -> f
        | None -> Fmt.failwith "no format for tensor %s" name
      in
      match source with
      | Random { dims; density } ->
          (name, gen_tensor name fmt dims density (i + 1))
      | File rel ->
          let path = resolve_data_path ~data_root rel in
          (name, Ingest.read_file ~name ~budget ~format:fmt path))
    specs

(** Paper-shaped random inputs for one kernel stage at scale [n] (shared
    by the CLI's [kernel]/[run]/[autotune]/[profile] subcommands and the
    service's kernel-mode requests). *)
let stage_random_inputs (st : K.stage) n =
  List.filter_map
    (fun (tname, fmt) ->
      if tname = st.K.result || (String.length tname > 0 && tname.[0] = '_')
      then None
      else
        let order = F.order fmt in
        let dims = List.init order (fun _ -> n) in
        let t =
          if F.is_fully_dense fmt then
            if order = 1 then D.dense_vector ~name:tname ~dim:n ()
            else if order = 2 then
              D.dense_matrix ~name:tname ~format:fmt ~rows:n ~cols:n ()
            else D.small_random ~name:tname ~format:fmt ~dims ~density:1.0 ()
          else
            D.small_random
              ~seed:(Hashtbl.hash tname)
              ~name:tname ~format:fmt ~dims ~density:0.1 ()
        in
        Some (tname, t))
    st.K.formats
