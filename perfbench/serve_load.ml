(** The [serve] workload: a closed loop of two clients against an
    in-process daemon.

    Set-up writes distinct same-shape MatrixMarket files under the
    daemon's data root, boots {!Server.serve_unix_socket} on a Unix
    socket, connects the two clients and warms the plan cache with every
    kernel-mode request of the pass.  The clients then play the seed's
    order of the pass (see [pass_kinds]) in lockstep rounds: about 75%
    kernel-mode [estimate]/[compile]/[stats] requests over a fixed
    popularity ranking (plan-cache hits), 20% expression-mode [estimate]
    requests on a file no earlier request used (misses), and 5%
    [autotune] with [halving] on such a file. *)

module Json = Stardust_json.Json
module Service = Stardust_serve.Service
module Server = Stardust_serve.Server
module Client = Stardust_serve.Client
module P = Stardust_serve.Protocol
module Workload = Stardust_serve.Workload
module Prng = Stardust_workloads.Prng
module D = Stardust_workloads.Datasets
module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Ingest = Stardust_ingest.Ingest
module Sim = Stardust_capstan.Sim

let clients = 2
let file_dim = 64
let file_density = 0.05

(* Files for the miss requests: enough that a run at five times today's
   request rate still gives every miss its own file. *)
let file_count = 600

let kernel_keys =
  let two = [ "spmv"; "plus3"; "sddmm"; "mattransmul"; "residual" ]
  and three = [ "ttv"; "ttm"; "mttkrp"; "innerprod"; "plus2" ] in
  let problems =
    List.concat_map (fun k -> List.map (fun n -> (k, n, n * n)) [ 64; 128; 256; 512 ]) two
    @ List.map (fun k -> (k, 64, 64 * 64 * 64)) three
  in
  let keys =
    Array.of_list
      (List.concat_map
         (fun op -> List.map (fun (k, n, cells) -> (cells, (op, k, n))) problems)
         [ "estimate"; "compile"; "stats" ])
  in
  (* A fixed popularity ranking, the same for every run seed: smaller
     problems are more popular; a fixed shuffle orders keys of one size. *)
  let rng = Prng.create 0 in
  for i = Array.length keys - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) keys;
  Array.map snd keys

(* Zipf(1) weights over the ranking, as a cumulative table. *)
let kernel_cdf =
  let w = Array.mapi (fun r _ -> 1.0 /. float_of_int (r + 1)) kernel_keys in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let kernel_request (op, kernel, n) =
  Json.Obj
    [ ("op", Json.Str op); ("kernel", Json.Str kernel);
      ("n", Json.Num (float_of_int n)) ]

let file_request op file =
  Json.Obj
    ([ ("op", Json.Str op); ("expr", Json.Str "y(i) = A(i,j) * x(j)");
       ( "formats",
         Json.Obj [ ("A", Json.Str "csr"); ("x", Json.Str "dv"); ("y", Json.Str "dv") ] );
       ( "data",
         Json.Arr
           [ Json.Str ("A=@" ^ file); Json.Str (Printf.sprintf "x=%d" file_dim) ] ) ]
    @ if op = "autotune" then [ ("strategy", Json.Str "halving") ] else [])

let file_name i = Printf.sprintf "m%04d.mtx" i

(* One pass: 80 rounds, 60 kernel-mode (75%), 16 expression-mode
   estimates (20%) and 4 autotunes (5%).  In a round both clients send
   a request of the same kind at once -- the same kernel-mode key, or
   each its own fresh file -- and wait for both answers.  The kernel-mode
   keys are a fixed systematic sample of the popularity distribution;
   the seed draws the order of the pass and the data of the files.
   (Drawing the keys too made the cost of a pass vary 30% from seed to
   seed, and letting the clients run unaligned made which requests
   overlap, and so the tail, vary 16%.) *)
let rounds_per_pass = 80

type kind = Kernel of (string * string * int) | File_estimate | File_autotune

let pass_kinds =
  let kernels = 60 and estimates = 16 in
  let key k =
    let v = (float_of_int k +. 0.5) /. float_of_int kernels in
    let rec find i = if i >= Array.length kernel_cdf - 1 || v < kernel_cdf.(i) then i else find (i + 1) in
    kernel_keys.(find 0)
  in
  Array.init rounds_per_pass (fun i ->
      if i < kernels then Kernel (key i)
      else if i < kernels + estimates then File_estimate
      else File_autotune)

(* The seed's order of the pass. *)
let sequence ~seed =
  let rng = Prng.create (Common.derive seed [ 5 ]) in
  let kinds = Array.copy pass_kinds in
  for i = Array.length kinds - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- t
  done;
  kinds

(* [next_file] hands out files no earlier request has used. *)
let request ~next_file = function
  | Kernel key -> kernel_request key
  | File_estimate -> file_request "estimate" (file_name (next_file ()))
  | File_autotune -> file_request "autotune" (file_name (next_file ()))

type daemon = {
  svc : Service.t;
  listener : unit Domain.t;
  conns : Client.t array;
}

type st = {
  seed : int;
  dir : string;
  mutable daemon : daemon option;
}

let write_files ~seed ~dir =
  for i = 0 to file_count - 1 do
    let t =
      D.random_matrix ~seed:(Common.derive seed [ 7; i ]) ~name:"A" ~format:(F.csr ())
        ~rows:file_dim ~cols:file_dim ~density:file_density ()
    in
    let oc = open_out (Filename.concat dir (file_name i)) in
    Printf.fprintf oc "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n"
      file_dim file_dim (T.num_vals t);
    T.iter_nonzeros
      (fun c v -> Printf.fprintf oc "%d %d %.17g\n" (c.(0) + 1) (c.(1) + 1) v)
      t;
    close_out oc
  done

let start_daemon dir =
  let svc = Service.create ~data_root:dir () in
  let socket = Filename.concat dir "d.sock" in
  let listener =
    Domain.spawn (fun () -> Server.serve_unix_socket ~max_connections:8 svc socket)
  in
  let conns =
    Array.init clients (fun _ ->
        match Client.connect_retry ~attempts:500 ~delay:0.01 socket with
        | Ok c -> c
        | Error e -> failwith ("serve: cannot connect: " ^ e))
  in
  { svc; listener; conns }

let stop_daemon d =
  Array.iter Client.close d.conns;
  Service.request_stop d.svc;
  Domain.join d.listener;
  Service.shutdown d.svc

(* Every kernel-mode request of the clients' sequences, once, so the
   measured phase finds them in the plan cache. *)
let warm d =
  Array.iter
    (function
      | Kernel key -> ignore (Client.rpc_line d.conns.(0) (Json.to_string (kernel_request key)))
      | File_estimate | File_autotune -> ())
    pass_kinds

let setup ~seed ~dir =
  write_files ~seed ~dir;
  let st = { seed; dir; daemon = None } in
  let d = start_daemon dir in
  warm d;
  st.daemon <- Some d;
  st

let teardown st =
  Option.iter stop_daemon st.daemon;
  st.daemon <- None

(* ------------------------------------------------------------------ *)
(* Requests and their outcomes                                         *)
(* ------------------------------------------------------------------ *)

(* The cycles an estimate response reports. *)
let response_cycles resp =
  match Json.member "result" resp with
  | Some r -> (
      match Option.bind (Json.member "report" r) (Json.member "cycles") with
      | Some (Json.Num c) -> Some c
      | _ -> None)
  | None -> None

type answered = {
  request : Json.t;
  started : float;
  line : string;  (** the response line *)
  sample : Common.sample;
}

let op_of req = match Json.member "op" req with Some (Json.Str s) -> s | _ -> "?"

let exchange conn req =
  let started = Common.now () in
  let line, dt, _ =
    Common.timed (fun () ->
        try Ok (Client.rpc_line conn (Json.to_string req)) with e -> Error e)
  in
  let label = Json.to_string req in
  let fail msg =
    { Common.label = label ^ ": " ^ msg; seconds = dt; norm = dt; ok = false; cycles = None;
      bytes = 0 }
  in
  match line with
  | Error e -> { request = req; started; line = ""; sample = fail (Printexc.to_string e) }
  | Ok line ->
      let sample =
        match Json.parse line with
        | exception Json.Parse_error (m, _) -> fail ("bad response: " ^ m)
        | resp -> (
            match Json.member "ok" resp with
            | Some (Json.Bool true) ->
                let cycles = response_cycles resp in
                if op_of req = "estimate" && cycles = None then fail "no cycles in response"
                else
                  { Common.label; seconds = dt; norm = dt; ok = true; cycles;
                    bytes = String.length line }
            | _ -> fail line)
      in
      { request = req; started; line; sample }

(* The clients meet at the start of every round.  There, with both
   parked, the last to arrive closes the previous round and, every
   [probe_every] rounds, measures the reference computation (see
   {!Common.timed_op}). *)
let probe_every = 4

type lockstep = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable waiting : int;
  mutable generation : int;
  mutable go_on : bool;
  mutable released : float;  (** when the current round started *)
  mutable probes : (int * float) list;
      (** reference times and the round they precede, latest first *)
  mutable raw_rounds : float list;  (** latest first *)
  mutable norm_elapsed : float;
}

(* Called by every client before round [k]; returns whether the round
   runs.  [stop ~passes ~norm_elapsed] is asked at each pass boundary. *)
let meet ls ~k ~stop =
  Mutex.lock ls.lock;
  let g = ls.generation in
  ls.waiting <- ls.waiting + 1;
  if ls.waiting = clients then begin
    let finished = Common.now () in
    if k mod probe_every = 0 then ls.probes <- (k, Common.probe ()) :: ls.probes;
    (match ls.probes with
    | (_, p) :: _ when k > 0 ->
        let raw = finished -. ls.released in
        ls.raw_rounds <- raw :: ls.raw_rounds;
        ls.norm_elapsed <- ls.norm_elapsed +. (raw *. Common.scale p p)
    | _ -> ());
    ls.go_on <-
      k mod rounds_per_pass > 0
      || not (stop ~passes:(k / rounds_per_pass) ~norm_elapsed:ls.norm_elapsed);
    ls.waiting <- 0;
    ls.generation <- g + 1;
    ls.released <- Common.now ();
    Condition.broadcast ls.cond
  end
  else
    while ls.generation = g do
      Condition.wait ls.cond ls.lock
    done;
  let v = ls.go_on in
  Mutex.unlock ls.lock;
  v

(* Both clients, each on its own domain, play the seed's sequence in
   lockstep rounds until [stop] says so at the end of a pass.  Returns
   every answered request, the rounds' raw and normalised times, and
   the wall time.  A round and its requests are normalised by the mean
   of the [Common.window] references on each side of it. *)
let closed_loop st ~stop ~on_answer =
  let d = Option.get st.daemon in
  let files = Atomic.make 0 in
  let next_file () = Atomic.fetch_and_add files 1 mod file_count in
  let ls =
    { lock = Mutex.create (); cond = Condition.create (); waiting = 0; generation = 0;
      go_on = true; released = 0.0; probes = []; raw_rounds = []; norm_elapsed = 0.0 }
  in
  let kinds = sequence ~seed:st.seed in
  let t0 = Common.now () in
  let workers =
    Array.mapi
      (fun c conn ->
        Domain.spawn (fun () ->
            let out = ref [] in
            let rec round k =
              if meet ls ~k ~stop then begin
                let a = exchange conn (request ~next_file kinds.(k mod rounds_per_pass)) in
                on_answer ~client:c ~count:k a;
                out := (k, a) :: !out;
                round (k + 1)
              end
            in
            round 0;
            List.rev !out))
      d.conns
  in
  let answered = List.concat_map Domain.join (Array.to_list workers) in
  let wall = Common.now () -. t0 in
  (* reference j precedes round [probe_every * j] *)
  let probes = Array.of_list (List.rev_map snd ls.probes) in
  let n = Array.length probes in
  let scale k =
    let j = k / probe_every in
    let lo = max 0 (j + 1 - Common.window) and hi = min (n - 1) (j + Common.window) in
    let sum = ref 0.0 in
    for i = lo to hi do
      sum := !sum +. probes.(i)
    done;
    Common.nominal_probe /. (!sum /. float_of_int (hi - lo + 1))
  in
  let answered =
    List.map
      (fun (k, a) ->
        { a with sample = { a.sample with Common.norm = a.sample.Common.seconds *. scale k } })
      answered
  in
  let rounds = List.mapi (fun k raw -> (raw, raw *. scale k)) (List.rev ls.raw_rounds) in
  (answered, rounds, wall)

let phase_of (answered, rounds, wall) =
  { Common.samples = List.map (fun a -> a.sample) answered; rounds; callers = clients; wall;
    candidates = 0 }

(* Answers of the last phase, kept for its check. *)
let last_answers : answered list ref = ref []

(* Whole passes until [seconds] of normalised round time have run. *)
let measure st ~seconds =
  let ((answered, _, _) as r) =
    closed_loop st
      ~stop:(fun ~passes:_ ~norm_elapsed -> norm_elapsed >= seconds)
      ~on_answer:(fun ~client:_ ~count:_ _ -> ())
  in
  last_answers := answered;
  phase_of r

(* The fixed passes of the traced run and of its untraced twin, each on
   a freshly booted and warmed daemon. *)
let fixed_passes = 1

let fixed_pass st ~on_answer =
  teardown st;
  let d = start_daemon st.dir in
  warm d;
  st.daemon <- Some d;
  let ((answered, _, _) as r) =
    closed_loop st ~stop:(fun ~passes ~norm_elapsed:_ -> passes >= fixed_passes) ~on_answer
  in
  last_answers := answered;
  r

let first_pass st = phase_of (fixed_pass st ~on_answer:(fun ~client:_ ~count:_ _ -> ()))

(* ------------------------------------------------------------------ *)
(* Output check: every estimate against an in-process Sim.estimate     *)
(* ------------------------------------------------------------------ *)

let reference_cycles st req =
  match P.request_of_json req with
  | Error _ -> Error "request does not parse"
  | Ok r -> (
      match Service.resolve_spec ~data_root:st.dir r with
      | Error _ -> Error "request does not resolve"
      | Ok rs -> (
          match Service.compile_resolved rs with
          | Error _ -> Error "request does not compile"
          | Ok c -> Ok (Sim.estimate ~config:(Service.config_of_request r) c).Sim.cycles))

let check st _phase =
  let refs = Hashtbl.create 64 in
  let failures = ref [] and checked = ref 0 in
  List.iter
    (fun a ->
      if op_of a.request = "estimate" && a.sample.Common.ok then begin
        incr checked;
        let key = Json.to_string a.request in
        let expected =
          match Hashtbl.find_opt refs key with
          | Some r -> r
          | None ->
              let r = try reference_cycles st a.request with e -> Error (Printexc.to_string e) in
              Hashtbl.add refs key r;
              r
        in
        match (expected, a.sample.Common.cycles) with
        | Ok e, Some c when e = c -> ()
        | Ok e, c ->
            failures :=
              Printf.sprintf "%s: %s cycles, %.17g in process" key
                (match c with Some c -> Printf.sprintf "%.17g" c | None -> "no")
                e
              :: !failures
        | Error m, _ -> failures := (key ^ ": " ^ m) :: !failures
      end)
    !last_answers;
  { Common.checked = !checked; failures = List.rev !failures; check_layers = [] }

(* ------------------------------------------------------------------ *)
(* Traced pass: each request's daemon-side work replayed in process    *)
(* ------------------------------------------------------------------ *)

(* The options string {!Service.dispatch} folds into a request's key. *)
let key_opts (r : P.request) =
  match r.P.op with
  | P.Compile -> String.concat "," r.P.emit
  | P.Autotune ->
      Printf.sprintf "%s/%d/%d/%d" r.P.strategy r.P.samples r.P.seed r.P.budget
  | _ -> ""

let file_specs (r : P.request) =
  List.filter_map
    (fun s ->
      match Workload.parse_data_spec s with
      | name, Workload.File rel -> Some (name, rel)
      | _, Workload.Random _ -> None)
    r.P.spec.P.data

(* Replay one answered request under the op's root span [id]: decode,
   resolve (with any file read as its child), key, the handler when the
   daemon computed rather than hit, and encode.  The root's self time is
   then the transport: round trip minus replayed daemon work. *)
let replay sp replayer st ~op ~id a =
  let call ?(parent = id) name f = Spans.call sp ~name ~op ~parent f in
  let line = Json.to_string a.request in
  let r =
    call "protocol.decode" (fun () ->
        match P.parse_line line with
        | Ok j -> P.request_of_json j
        | Error ds -> Error ds)
  in
  match r with
  | Error _ -> ()
  | Ok r -> (
      let rid = Spans.fresh_id sp in
      let rs =
        Spans.call sp ~id:rid ~name:"resolve" ~op ~parent:id (fun () ->
            Service.resolve_spec ~data_root:st.dir r)
      in
      List.iter
        (fun (name, rel) ->
          let fmt = Workload.format_of_string (List.assoc name r.P.spec.P.formats) in
          let t =
            call ~parent:rid "ingest" (fun () ->
                Ingest.read_file ~name ~format:fmt (Filename.concat st.dir rel))
          in
          Spans.add sp "ingest.entries" (float_of_int (T.num_vals t));
          Spans.add sp "ingest.bytes"
            (float_of_int (Unix.stat (Filename.concat st.dir rel)).Unix.st_size))
        (file_specs r);
      match rs with
      | Error _ -> ()
      | Ok rs ->
          let config = Service.config_of_request r in
          ignore (call "key" (fun () -> Service.request_key ~opts:(key_opts r) r rs config));
          let resp = Json.parse a.line in
          (if Json.member "cached" resp = Some (Json.Bool false) then
             let body =
               call "dispatch" (fun () ->
                   match r.P.op with
                   | P.Estimate -> Service.handle_estimate rs config
                   | P.Compile -> Service.handle_compile r rs config
                   | P.Stats -> Service.handle_stats rs
                   | _ -> Service.handle_autotune replayer ~strategy:Stardust_explore.Explore.Halving r rs config)
             in
             ignore body);
          let s = call "protocol.encode" (fun () -> Json.to_string resp) in
          Spans.add sp "protocol.response_bytes" (float_of_int (String.length s)))

let traced_pass st sp =
  let replayer = Service.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown replayer)
    (fun () ->
      let r =
        fixed_pass st ~on_answer:(fun ~client ~count a ->
            let op = (count * clients) + client + 1 in
            let id = Spans.fresh_id sp in
            Spans.record sp ~id ~name:"op" ~op ~parent:0 a.started
              (a.started +. a.sample.Common.seconds);
            Spans.add sp "op.calls" 1.0;
            Spans.add sp "op.s" a.sample.Common.seconds;
            replay sp replayer st ~op ~id a)
      in
      let d = Option.get st.daemon in
      let m = Json.parse (Client.rpc_line d.conns.(0) {|{"op":"metrics"}|}) in
      (match Option.bind (Json.member "result" m) (Json.member "plan_cache") with
      | Some pc ->
          List.iter
            (fun f ->
              match Json.member f pc with
              | Some (Json.Num v) -> Spans.add sp ("plan_cache." ^ f) v
              | _ -> ())
            [ "hits"; "misses"; "evictions" ]
      | None -> ());
      phase_of r)
