(** Serve-throughput benchmark: requests/sec and latency percentiles of
    the compile service under concurrent clients.

    Each level spins up a fresh in-process {!Stardust_serve.Service}
    and [clients] caller domains; every client issues the same fixed
    request script (compile/estimate/stats over two kernels at two
    scales) and records per-request wall-clock.  The script cycles
    through [distinct] unique requests, so with the plan cache's
    single-flight fills the level's hit/miss counters are a pure
    function of the request multiset: [misses = distinct],
    [hits = requests - distinct], no matter how the clients interleave.
    Those counts (plus [clients] and [requests]) are the deterministic
    fields CI's perf-diff pins; rps/p50/p99 are wall-clock truth and
    are reported but never compared. *)

module Json = Stardust_json.Json
module Service = Stardust_serve.Service
module Pool = Stardust_explore.Pool
module Plan_cache = Stardust_serve.Plan_cache

let levels = [ 1; 4; 16 ]
let rounds = 2  (** times each client replays the script *)

(* The request script: a mix of cacheable operations over distinct
   (op, kernel, scale) keys.  Kept tiny — after the first round
   everything is a cache hit, which is exactly the serving regime the
   bench is about. *)
let script =
  let req op kernel n =
    Json.Obj
      [
        ("op", Json.Str op); ("kernel", Json.Str kernel);
        ("n", Json.Num (float_of_int n));
      ]
  in
  [
    req "estimate" "spmv" 16;
    req "estimate" "spmv" 32;
    req "estimate" "plus3" 16;
    req "estimate" "plus3" 32;
    req "compile" "spmv" 16;
    req "compile" "spmv" 32;
    req "compile" "plus3" 16;
    req "stats" "spmv" 16;
  ]

let distinct = List.length script

type level = {
  clients : int;
  requests : int;  (** total across all clients (deterministic) *)
  plan_hits : int;  (** deterministic: requests - distinct *)
  plan_misses : int;  (** deterministic: distinct *)
  wall_seconds : float;
  rps : float;
  p50 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (q * n / 100))

let run_level clients =
  (* concurrency comes from the caller domains; the service's own pool
     only serves batches/autotune, which this script never issues *)
  let svc = Service.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let client _k =
        let lats = ref [] in
        for _ = 1 to rounds do
          List.iter
            (fun req ->
              let t0 = Unix.gettimeofday () in
              let resp = Service.handle_request svc req in
              let dt = Unix.gettimeofday () -. t0 in
              (match Json.member "ok" resp with
              | Some (Json.Bool true) -> ()
              | _ ->
                  Fmt.failwith "serve bench: request failed: %s"
                    (Json.to_string resp));
              lats := dt :: !lats)
            script
        done;
        Array.of_list !lats
      in
      let t0 = Unix.gettimeofday () in
      let per_client =
        Pool.map ~workers:clients client (Array.init clients Fun.id)
      in
      let wall = Unix.gettimeofday () -. t0 in
      let lats = Array.concat (Array.to_list per_client) in
      Array.sort compare lats;
      let c = Plan_cache.counters (Service.plan_cache svc) in
      let requests = Array.length lats in
      {
        clients;
        requests;
        plan_hits = c.Plan_cache.hits;
        plan_misses = c.Plan_cache.misses;
        wall_seconds = wall;
        rps = (if wall > 0.0 then float_of_int requests /. wall else 0.0);
        p50 = percentile lats 50;
        p99 = percentile lats 99;
      })

let measure () = List.map run_level levels

(** JSON fragment for the suite document: one object per concurrency
    level.  [clients]/[requests]/[plan_cache_hits]/[plan_cache_misses]
    are the deterministic fields; the latency fields are wall-clock. *)
let rows_json rows =
  let num = Json.number_to_string in
  String.concat ","
    (List.map
       (fun r ->
         Printf.sprintf
           "{\"clients\":%d,\"requests\":%d,\"plan_cache_hits\":%d,\"plan_cache_misses\":%d,\"wall_seconds\":%s,\"rps\":%s,\"p50_seconds\":%s,\"p99_seconds\":%s}"
           r.clients r.requests r.plan_hits r.plan_misses
           (num r.wall_seconds) (num r.rps) (num r.p50) (num r.p99))
       rows)

(** Standalone [bench serve-throughput]: human-readable table. *)
let run () =
  let rows = measure () in
  Fmt.pr "@.== Serve throughput (%d distinct plans, %d requests/client) ==@."
    distinct
    (rounds * distinct);
  Fmt.pr "%-8s %10s %12s %12s %12s %8s@." "clients" "requests" "req/s"
    "p50 (us)" "p99 (us)" "hits";
  List.iter
    (fun r ->
      Fmt.pr "%-8d %10d %12.1f %12.1f %12.1f %7d@." r.clients r.requests
        r.rps (r.p50 *. 1e6) (r.p99 *. 1e6) r.plan_hits)
    rows

(* ------------------------------------------------------------------ *)
(* Soak: the chaos harness as an informational benchmark               *)
(* ------------------------------------------------------------------ *)

(** Standalone [bench serve-soak]: boot a real socket daemon in-process
    and storm it with the chaos harness — well-formed clients concurrent
    with garbage/half-line/oversized/slow-loris/disconnect adversaries.
    Informational only (wall-clock and retry counts depend on the
    machine); the pinned serve numbers stay with [serve-throughput]. *)
let soak () =
  let module Server = Stardust_serve.Server in
  let module Chaos = Stardust_serve.Chaos in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stardust-soak-%d.sock" (Unix.getpid ()))
  in
  let svc = Service.create () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let listener =
        Domain.spawn (fun () ->
            Server.serve_unix_socket ~max_connections:8 svc path)
      in
      let rec wait n =
        if (not (Sys.file_exists path)) && n > 0 then begin
          Unix.sleepf 0.01;
          wait (n - 1)
        end
      in
      wait 500;
      let cfg =
        {
          (Chaos.default_config ~socket:path) with
          Chaos.clients = 8;
          requests_per_client = 40;
          adversaries = 4;
          attacks_per_adversary = 20;
        }
      in
      let t0 = Unix.gettimeofday () in
      let report = Chaos.run cfg in
      let wall = Unix.gettimeofday () -. t0 in
      Stardust_serve.Service.request_stop svc;
      Domain.join listener;
      Fmt.pr "@.== Serve soak (chaos harness, seed %d) ==@." cfg.Chaos.seed;
      Fmt.pr "%a@." Chaos.pp_report report;
      Fmt.pr "wall: %.2fs (%.1f well-formed req/s under attack)@." wall
        (float_of_int report.Chaos.wellformed_answered /. wall);
      if report.Chaos.failures <> [] then exit 1)

(* ------------------------------------------------------------------ *)
(* serve-http: the observability plane                                 *)
(* ------------------------------------------------------------------ *)

module Metrics = Stardust_obs.Metrics
module Flight = Stardust_obs.Flight
module Http = Stardust_serve.Http
module Client = Stardust_serve.Client

type http_row = {
  h_requests : int;  (** deterministic: script length *)
  h_flight_total : int;  (** deterministic: every request recorded *)
  h_flight_failed : int;  (** deterministic: failures in the script *)
  h_scrape_bytes : int;
      (** deterministic: bytes of the volatile-free exposition text after
          the script, from a reset registry at one worker *)
  h_scrapes : int;
  h_scrape_wall : float;  (** wall-clock: never compared *)
}

(* A fixed script with client-supplied correlation ids and two requests
   that fail deterministically (unknown kernel, unknown op) — exercising
   the flight recorder's failed-trace path without any wall-clock
   dependence. *)
let http_script =
  let rid r extra = ("request_id", Json.Str r) :: extra in
  let req op fields = Json.Obj (("op", Json.Str op) :: fields) in
  let kernel k n =
    [ ("kernel", Json.Str k); ("n", Json.Num (float_of_int n)) ]
  in
  [
    req "ping" (rid "h-ping" []);
    req "compile" (rid "h-compile-1" (kernel "spmv" 16));
    req "compile" (rid "h-compile-2" (kernel "spmv" 16));
    req "estimate" (rid "h-estimate" (kernel "plus3" 16));
    req "stats" (rid "h-stats" (kernel "spmv" 16));
    req "compile" (rid "h-bad-kernel" (kernel "nosuch" 8));
    req "frobnicate" (rid "h-bad-op" []);
    req "ping" (rid "h-ping-2" []);
  ]

(* Replays [http_script] on a fresh one-worker service with a freshly
   reset metrics registry (run LAST in the suite so the reset cannot
   disturb other sections), then scrapes a real HTTP plane bound to an
   ephemeral loopback port.  The recorder occupancy and the byte length
   of the deterministic (volatile-free) scrape are pure functions of the
   script; the repeated live scrapes are timed for the human-readable
   report only. *)
let measure_http () =
  Metrics.reset ();
  let svc = Service.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      List.iter
        (fun r -> ignore (Service.handle_request svc r : Json.t))
        http_script;
      let _, failed, total = Flight.occupancy (Service.flight svc) in
      let det = Metrics.render_text ~include_volatile:false () in
      match Http.start ~version:"bench" ~service:svc "127.0.0.1:0" with
      | Error e -> Fmt.failwith "serve-http bench: %s" e
      | Ok plane ->
          Fun.protect
            ~finally:(fun () -> Http.stop plane)
            (fun () ->
              let addr = Http.bound_addr plane in
              let scrapes = 25 in
              let t0 = Unix.gettimeofday () in
              for _ = 1 to scrapes do
                match Client.scrape_metrics addr with
                | Ok _ -> ()
                | Error e -> Fmt.failwith "serve-http bench scrape: %s" e
              done;
              {
                h_requests = List.length http_script;
                h_flight_total = total;
                h_flight_failed = failed;
                h_scrape_bytes = String.length det;
                h_scrapes = scrapes;
                h_scrape_wall = Unix.gettimeofday () -. t0;
              }))

(** JSON fragment for the suite document: a single-row section.
    [requests]/[flight_recorded]/[flight_failed]/[scrape_bytes] are the
    deterministic fields CI pins; the scrape timing is wall-clock. *)
let http_rows_json r =
  let num = Json.number_to_string in
  Printf.sprintf
    "{\"requests\":%d,\"flight_recorded\":%d,\"flight_failed\":%d,\"scrape_bytes\":%d,\"scrapes\":%d,\"scrape_wall_seconds\":%s,\"scrapes_per_sec\":%s}"
    r.h_requests r.h_flight_total r.h_flight_failed r.h_scrape_bytes
    r.h_scrapes
    (num r.h_scrape_wall)
    (num
       (if r.h_scrape_wall > 0.0 then
          float_of_int r.h_scrapes /. r.h_scrape_wall
        else 0.0))

(** Standalone [bench serve-http]: human-readable summary. *)
let run_http () =
  let r = measure_http () in
  Fmt.pr "@.== Serve observability plane ==@.";
  Fmt.pr "requests:        %d (%d failed)@." r.h_requests r.h_flight_failed;
  Fmt.pr "flight recorder: %d recorded, %d failed traces retained@."
    r.h_flight_total r.h_flight_failed;
  Fmt.pr "scrape:          %d bytes deterministic exposition text@."
    r.h_scrape_bytes;
  Fmt.pr "live scrapes:    %d in %.3fs (%.1f scrapes/s)@." r.h_scrapes
    r.h_scrape_wall
    (if r.h_scrape_wall > 0.0 then
       float_of_int r.h_scrapes /. r.h_scrape_wall
     else 0.0)
