(** Chaos harness for the compile service: adversarial clients hammering
    a live daemon concurrently with well-formed traffic.

    The harness asserts the three hardening invariants end to end:

    - the daemon {e never crashes} — after the storm it still answers a
      [ping] and a [metrics] request on a fresh connection;
    - every well-formed request is {e eventually answered} — clients
      retry on shed connections ([E1004]) and dropped sockets, and a
      request that runs out of retries is a reported failure;
    - the {e deterministic} metrics snapshot stays a pure function of
      the well-formed request multiset — adversarial lines (garbage,
      half-written, oversized) die before the request counter, valid
      requests are retried until answered exactly once, and the
      send-then-slam attack uses a shape error ([E1002]) so that a
      mid-response disconnect never moves a deterministic series.

    Attacks, all derived from one seeded PRNG so a run is reproducible:
    garbage bytes, a half-written line followed by an abrupt close, a
    line past the daemon's [--max-line-bytes] bound (expects [E1006]),
    a slow-loris writer dripping a valid [ping] one byte at a time,
    deeply nested JSON within the line bound (a stack-smashing attempt
    on the recursive parser; expects [E1001] from the nesting bound),
    and a valid-JSON/invalid-shape request whose sender slams the
    socket shut without reading the response (mid-response [EPIPE] on
    the daemon).  Everything is driven over threads, like the server's
    own connection handlers. *)

module Json = Stardust_json.Json
module Prng = Stardust_workloads.Prng

type config = {
  socket : string;  (** path of the daemon's Unix socket *)
  seed : int;  (** PRNG seed; same seed, same request/attack schedule *)
  clients : int;  (** well-formed client threads *)
  requests_per_client : int;
  adversaries : int;  (** adversarial threads *)
  attacks_per_adversary : int;
  max_line_bytes : int;  (** the daemon's bound, to build oversized lines *)
}

let default_config ~socket =
  {
    socket;
    seed = 42;
    clients = 4;
    requests_per_client = 25;
    adversaries = 3;
    attacks_per_adversary = 12;
    max_line_bytes = Server.default_max_line_bytes;
  }

type report = {
  wellformed_sent : int;
  wellformed_answered : int;
  wellformed_retries : int;  (** reconnect-and-resend events (shed/drop) *)
  attacks_run : int;
  failures : string list;  (** empty iff the daemon held every invariant *)
}

let pp_report ppf r =
  Fmt.pf ppf
    "chaos: %d/%d well-formed answered (%d retries), %d attacks, %d failures"
    r.wellformed_answered r.wellformed_sent r.wellformed_retries r.attacks_run
    (List.length r.failures);
  List.iter (fun f -> Fmt.pf ppf "@.  FAIL %s" f) r.failures

(* ------------------------------------------------------------------ *)
(* Seeded schedules: one [Prng] state per client and per adversary, so
   runs never depend on global [Random] state.                         *)
(* ------------------------------------------------------------------ *)

let client_rng ~seed idx = Prng.create ((seed * 1_000_003) + idx)
let adversary_rng ~seed idx = Prng.create ((seed * 7_368_787) + idx)

(* Its own reduction, not [Prng.int]'s mask: every seeded schedule
   depends on these exact draws. *)
let rand_int st bound =
  Int64.to_int
    (Int64.rem
       (Int64.shift_right_logical (Prng.next_int64 st) 1)
       (Int64.of_int bound))

(* ------------------------------------------------------------------ *)
(* Shared failure sink                                                 *)
(* ------------------------------------------------------------------ *)

type sink = { mutable fs : string list; lock : Mutex.t }

let fail sink fmt =
  Fmt.kstr
    (fun m ->
      Mutex.lock sink.lock;
      sink.fs <- m :: sink.fs;
      Mutex.unlock sink.lock)
    fmt

(* ------------------------------------------------------------------ *)
(* Well-formed traffic                                                 *)
(* ------------------------------------------------------------------ *)

(* Small, fast requests over a handful of plan-cache keys: mostly hits
   after first touch, so the soak measures the serving path rather than
   compile throughput. *)
let menu =
  [|
    (fun id -> Json.Obj [ ("id", id); ("op", Json.Str "ping") ]);
    (fun id ->
      Json.Obj
        [
          ("id", id);
          ("op", Json.Str "compile");
          ("kernel", Json.Str "spmv");
          ("n", Json.Num 8.0);
        ]);
    (fun id ->
      Json.Obj
        [
          ("id", id);
          ("op", Json.Str "estimate");
          ("kernel", Json.Str "spmv");
          ("n", Json.Num 8.0);
        ]);
    (fun id ->
      Json.Obj
        [
          ("id", id);
          ("op", Json.Str "compile");
          ("kernel", Json.Str "plus2");
          ("n", Json.Num 8.0);
        ]);
    (fun id ->
      Json.Obj
        [
          ("id", id);
          ("op", Json.Str "stats");
          ("kernel", Json.Str "spmv");
          ("n", Json.Num 8.0);
        ]);
  |]

(* One request, retried across shed connections and dropped sockets
   until a real answer arrives.  [E1004] and a dead socket both mean
   the request never reached the parser, so a resend cannot double a
   deterministic counter. *)
let rpc_until_answered sink conn socket req ~who ~retries =
  let max_tries = 200 in
  let rec attempt n =
    if n > max_tries then begin
      fail sink "%s: gave up after %d tries on %s" who max_tries
        (Json.to_string req);
      None
    end
    else
      let c =
        match !conn with
        | Some c -> Ok c
        | None -> (
            match Client.connect_retry socket with
            | Ok c ->
                conn := Some c;
                Ok c
            | Error e -> Error e)
      in
      match c with
      | Error e ->
          fail sink "%s: cannot connect: %s" who e;
          None
      | Ok c -> (
          match Client.try_rpc c req with
          | Error `Closed ->
              Client.close c;
              conn := None;
              Atomic.incr retries;
              Unix.sleepf 0.01;
              attempt (n + 1)
          | Error (`Bad_response msg) ->
              fail sink "%s: response is not JSON: %s" who msg;
              None
          | Ok r -> (
              match Client.error_code r with
              | Some "E1004" ->
                  (* shed at accept: daemon never saw the request *)
                  Client.close c;
                  conn := None;
                  Atomic.incr retries;
                  Unix.sleepf 0.02;
                  attempt (n + 1)
              | _ -> Some r))
  in
  attempt 0

let run_client cfg sink ~answered ~retries idx =
  let st = client_rng ~seed:cfg.seed idx in
  let conn = ref None in
  for i = 0 to cfg.requests_per_client - 1 do
    let id = Json.Num (float_of_int ((idx * 100_000) + i)) in
    let req = menu.(rand_int st (Array.length menu)) id in
    match
      rpc_until_answered sink conn cfg.socket req
        ~who:(Fmt.str "client %d" idx) ~retries
    with
    | None -> ()
    | Some (Json.Obj fields) ->
        if List.assoc_opt "id" fields <> Some id then
          fail sink "client %d: response id mismatch for %s" idx
            (Json.to_string req)
        else Atomic.incr answered
    | Some _ -> fail sink "client %d: response is not an object" idx
  done;
  Option.iter Client.close !conn

(* ------------------------------------------------------------------ *)
(* Attacks                                                             *)
(* ------------------------------------------------------------------ *)

let send_raw c s =
  output_string c.Client.oc s;
  flush c.Client.oc

let read_response c =
  match input_line c.Client.ic with
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> None
  | line -> ( match Json.parse line with
    | j -> Some j
    | exception Json.Parse_error _ -> None)

let with_conn socket f =
  match Client.connect_retry socket with
  | Error _ -> ()  (* daemon busy shedding; the attack just fizzles *)
  | Ok c ->
      (try f c
       with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
      Client.close c

(** Garbage bytes: must come back as a structured [E1001] (or a shed
    [E1004]); an [ok] answer to garbage is a harness failure. *)
let attack_garbage sink socket =
  with_conn socket (fun c ->
      send_raw c "%% this is not JSON at all {{{\n";
      match read_response c with
      | None -> ()
      | Some r -> (
          match Client.error_code r with
          | Some ("E1001" | "E1004") -> ()
          | Some other ->
              fail sink "garbage line answered with %s, wanted E1001" other
          | None -> fail sink "garbage line answered ok"))

(** Half-written request, then slam the socket shut. *)
let attack_half_line socket =
  with_conn socket (fun c -> send_raw c "{\"op\": \"comp")

(** A line past the daemon's bound: expect [E1006] if answered at all. *)
let attack_oversized sink socket ~max_line_bytes =
  with_conn socket (fun c ->
      send_raw c (String.make (max_line_bytes + 64) 'x');
      send_raw c "\n";
      match read_response c with
      | None -> ()
      | Some r -> (
          match Client.error_code r with
          | Some ("E1006" | "E1004") -> ()
          | Some other ->
              fail sink "oversized line answered with %s, wanted E1006" other
          | None -> fail sink "oversized line answered ok"))

(** Slow-loris: a valid [ping] dripped one byte at a time.  Retried on
    shed so the ping lands in the deterministic request multiset exactly
    once per attack. *)
let attack_slow_loris sink socket ~retries =
  let line = "{\"op\": \"ping\"}\n" in
  let max_tries = 50 in
  let rec attempt n =
    if n > max_tries then fail sink "slow-loris: gave up after %d tries" max_tries
    else
      match Client.connect_retry socket with
      | Error e -> fail sink "slow-loris: cannot connect: %s" e
      | Ok c ->
          let outcome =
            try
              String.iter
                (fun ch ->
                  output_char c.Client.oc ch;
                  flush c.Client.oc;
                  Unix.sleepf 0.001)
                line;
              read_response c
            with End_of_file | Sys_error _ | Unix.Unix_error _ -> None
          in
          Client.close c;
          (match outcome with
          | Some r -> (
              match Client.error_code r with
              | Some "E1004" ->
                  Atomic.incr retries;
                  Unix.sleepf 0.02;
                  attempt (n + 1)
              | Some other -> fail sink "slow-loris ping answered with %s" other
              | None -> ())
          | None ->
              Atomic.incr retries;
              Unix.sleepf 0.02;
              attempt (n + 1))
  in
  attempt 0

(** Send a request, slam the socket shut without reading: the daemon's
    response write hits a dead peer ([EPIPE]).  The request is valid
    JSON but an invalid shape ([E1002]), which dies before the request
    counter — so the disconnect can never move a deterministic series
    whether or not the daemon got to parse it. *)
let attack_send_and_slam socket =
  with_conn socket (fun c ->
      send_raw c "{\"op\": \"no-such-op\", \"id\": \"slam\"}\n")

(** Deeply nested JSON within the line bound: a stack-smashing attempt
    on the recursive-descent parser.  The parser's nesting bound must
    turn it into a structured [E1001] — a [Stack_overflow] would escape
    I/O-shaped exception filters and kill the handler (leaking its
    connection slot), which is exactly the failure mode this attack
    regresses against. *)
let attack_deep_nesting sink socket ~max_line_bytes =
  let depth = min 100_000 ((max_line_bytes - 64) / 2) in
  with_conn socket (fun c ->
      send_raw c (String.make depth '[');
      send_raw c (String.make depth ']');
      send_raw c "\n";
      match read_response c with
      | None -> ()
      | Some r -> (
          match Client.error_code r with
          | Some ("E1001" | "E1004") -> ()
          | Some other ->
              fail sink "deep nesting answered with %s, wanted E1001" other
          | None -> fail sink "deep nesting answered ok"))

let run_adversary cfg sink ~attacks ~retries idx =
  let st = adversary_rng ~seed:cfg.seed idx in
  for _ = 1 to cfg.attacks_per_adversary do
    (match rand_int st 6 with
    | 0 -> attack_garbage sink cfg.socket
    | 1 -> attack_half_line cfg.socket
    | 2 -> attack_oversized sink cfg.socket ~max_line_bytes:cfg.max_line_bytes
    | 3 -> attack_slow_loris sink cfg.socket ~retries
    | 4 ->
        attack_deep_nesting sink cfg.socket
          ~max_line_bytes:cfg.max_line_bytes
    | _ -> attack_send_and_slam cfg.socket);
    Atomic.incr attacks
  done

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** Run the storm against a daemon already listening on [cfg.socket];
    returns once every client and adversary has finished and the
    post-storm liveness probes have answered. *)
let run (cfg : config) : report =
  let sink = { fs = []; lock = Mutex.create () } in
  let answered = Atomic.make 0 and retries = Atomic.make 0 in
  let attacks = Atomic.make 0 in
  let clients =
    List.init cfg.clients (fun i ->
        Thread.create (fun () -> run_client cfg sink ~answered ~retries i) ())
  in
  let adversaries =
    List.init cfg.adversaries (fun i ->
        Thread.create
          (fun () -> run_adversary cfg sink ~attacks ~retries i)
          ())
  in
  List.iter Thread.join clients;
  List.iter Thread.join adversaries;
  (* liveness: the daemon must still answer a fresh connection *)
  (match Client.connect_retry cfg.socket with
  | Error e -> fail sink "post-storm connect failed: %s" e
  | Ok c ->
      (match Client.try_rpc c (Json.Obj [ ("op", Json.Str "ping") ]) with
      | Ok (Json.Obj fields)
        when List.assoc_opt "ok" fields = Some (Json.Bool true) ->
          ()
      | Ok r -> fail sink "post-storm ping not ok: %s" (Json.to_string r)
      | Error _ -> fail sink "post-storm ping dropped");
      (match Client.try_rpc c (Json.Obj [ ("op", Json.Str "metrics") ]) with
      | Ok (Json.Obj fields)
        when List.assoc_opt "ok" fields = Some (Json.Bool true) ->
          ()
      | Ok r -> fail sink "post-storm metrics not ok: %s" (Json.to_string r)
      | Error _ -> fail sink "post-storm metrics dropped");
      Client.close c);
  {
    wellformed_sent = cfg.clients * cfg.requests_per_client;
    wellformed_answered = Atomic.get answered;
    wellformed_retries = Atomic.get retries;
    attacks_run = Atomic.get attacks;
    failures = List.rev sink.fs;
  }
