(* Compile-service tests: protocol round-trips, stable error codes for
   malformed requests, plan-cache hit/eviction semantics, worker-count
   determinism of the metrics snapshot, the nested-pool (batched
   autotune) guard, a Unix-socket client session, and the hardening
   layer: request deadlines (E1005), connection shedding (E1004),
   oversized-line rejection (E1006), abrupt-disconnect survival,
   crash-safe plan-cache persistence, and an in-process chaos storm. *)

module Json = Stardust_json.Json
module Pool = Stardust_explore.Pool
module Diag = Stardust_diag.Diag
module Plan_cache = Stardust_serve.Plan_cache
module Protocol = Stardust_serve.Protocol
module Service = Stardust_serve.Service
module Server = Stardust_serve.Server
module Client = Stardust_serve.Client
module Chaos = Stardust_serve.Chaos
module Metrics = Stardust_obs.Metrics
module Trace = Stardust_obs.Trace
module Flight = Stardust_obs.Flight
module Http = Stardust_serve.Http

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Small requests: paper kernels at tiny scales so a whole suite run
   costs a few compilations, not a benchmark. *)
let req ?(extra = []) ?id op fields =
  let id = match id with None -> [] | Some i -> [ ("id", Json.Num (float_of_int i)) ] in
  Json.Obj (id @ [ ("op", Json.Str op) ] @ fields @ extra)

let kernel_req ?extra ?id op kernel n =
  req ?extra ?id op
    [ ("kernel", Json.Str kernel); ("n", Json.Num (float_of_int n)) ]

let field name resp = Json.member_exn name resp
let is_ok resp = field "ok" resp = Json.Bool true
let cached_bit resp = field "cached" resp = Json.Bool true
let error_code resp = Json.to_str (field "code" (field "error" resp))

let with_service ?workers f =
  let svc = Service.create ?workers ~plan_cache_capacity:64 () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

(* Every operation answered ok, with the request id and op echoed in the
   envelope; shutdown flips the service's stopping flag last. *)
let test_roundtrip_ops () =
  with_service ~workers:1 (fun svc ->
      let ask i r =
        let resp = Service.handle_request svc r in
        check Alcotest.string
          (Fmt.str "request %d echoes its id" i)
          (Json.to_string (Json.Num (float_of_int i)))
          (Json.to_string (field "id" resp));
        resp
      in
      let ping = ask 1 (req ~id:1 "ping" []) in
      checkb "ping ok" true (is_ok ping);
      checks "ping op echoed" "ping" (Json.to_str (field "op" ping));
      checks "ping pongs" "pong" (Json.to_str (field "result" ping));
      let compile = ask 2 (kernel_req ~id:2 "compile" "spmv" 8) in
      checkb "compile ok" true (is_ok compile);
      checkb "compile result has code" true
        (Json.member "code" (field "result" compile) <> None);
      checkb "compile result has resources" true
        (Json.member "resources" (field "result" compile) <> None);
      let estimate = ask 3 (kernel_req ~id:3 "estimate" "spmv" 8) in
      checkb "estimate ok" true (is_ok estimate);
      checkb "estimate reports cycles" true
        (Json.to_float
           (field "cycles" (field "report" (field "result" estimate)))
        > 0.0);
      let stats = ask 4 (kernel_req ~id:4 "stats" "spmv" 8) in
      checkb "stats ok" true (is_ok stats);
      checki "stats covers both spmv inputs" 2
        (List.length (Json.to_list (field "tensors" (field "result" stats))));
      let autotune =
        ask 5
          (kernel_req ~id:5 "autotune" "spmv" 8
             ~extra:[ ("strategy", Json.Str "halving") ])
      in
      checkb "autotune ok" true (is_ok autotune);
      checkb "autotune reports a frontier" true
        (Json.member "frontier" (field "result" autotune) <> None);
      let metrics = ask 6 (req ~id:6 "metrics" []) in
      checkb "metrics ok" true (is_ok metrics);
      checkb "metrics reports the plan cache" true
        (Json.member "plan_cache" (field "result" metrics) <> None);
      let bye = ask 7 (req ~id:7 "shutdown" []) in
      checkb "shutdown ok" true (is_ok bye);
      checkb "shutdown stops the service" true (Service.stopping svc))

(* Expression mode: the same NAME=FMT / NAME=DIMS@DENSITY grammar as the
   CLI, resolved inside the service. *)
let test_expr_mode () =
  with_service ~workers:1 (fun svc ->
      let r =
        req "estimate"
          [
            ("expr", Json.Str "y(i) = A(i,j) * x(j)");
            ( "formats",
              Json.Obj
                [
                  ("y", Json.Str "dv"); ("A", Json.Str "csr");
                  ("x", Json.Str "dv");
                ] );
            ("data", Json.Arr [ Json.Str "A=16x16@0.2"; Json.Str "x=16" ]);
          ]
      in
      let resp = Service.handle_request svc r in
      checkb "expression estimate ok" true (is_ok resp);
      (* a different dram answers from a different plan-cache key *)
      let ddr4 =
        Service.handle_request svc
          (match r with
          | Json.Obj fields -> Json.Obj (("dram", Json.Str "ddr4") :: fields)
          | _ -> assert false)
      in
      checkb "ddr4 estimate ok" true (is_ok ddr4);
      checkb "ddr4 is a distinct plan (cold)" false (cached_bit ddr4);
      checkb "estimates differ across dram models" false
        (Json.to_string (field "result" resp)
        = Json.to_string (field "result" ddr4)))

(* ------------------------------------------------------------------ *)
(* Malformed requests: stable codes, never a crash                     *)
(* ------------------------------------------------------------------ *)

let test_malformed () =
  with_service ~workers:1 (fun svc ->
      let answer line = Json.parse (Server.handle_line svc line) in
      let not_json = answer "{nope" in
      checkb "non-JSON line answered" true (not (is_ok not_json));
      checks "non-JSON line is E1001" "E1001" (error_code not_json);
      checks "non-JSON op is invalid" "invalid"
        (Json.to_str (field "op" not_json));
      let bad code name line =
        let resp = answer line in
        checkb (name ^ " answered, not crashed") true (not (is_ok resp));
        checks (name ^ " code") code (error_code resp)
      in
      bad "E1002" "unknown op" {|{"op": "frobnicate"}|};
      bad "E1002" "missing op" {|{"kernel": "spmv"}|};
      bad "E1002" "ill-typed field" {|{"op": "compile", "kernel": "spmv", "n": "big"}|};
      bad "E1002" "unknown kernel" {|{"op": "compile", "kernel": "nosuch"}|};
      bad "E1002" "kernel and expr together"
        {|{"op": "compile", "kernel": "spmv", "expr": "y(i) = x(i)"}|};
      bad "E1002" "no problem at all" {|{"op": "compile"}|};
      bad "E1002" "bad emit section"
        {|{"op": "compile", "kernel": "spmv", "emit": ["asm"]}|};
      bad "E1002" "bad data spec"
        {|{"op": "stats", "data": ["A=banana"]}|};
      (* a syntactically broken expression flows through as the
         compiler's own stable parse code, not a serve code *)
      let parse_err =
        answer {|{"op": "compile", "expr": "y(i = x(i)", "data": ["x=8"], "formats": {"x": "dv", "y": "dv"}}|}
      in
      checkb "broken expr answered" true (not (is_ok parse_err));
      checks "broken expr keeps the compiler's code" "E0101"
        (error_code parse_err);
      (* the service survived all of the above *)
      checkb "service still answers" true
        (is_ok (Service.handle_request svc (req "ping" []))))

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

(* The tentpole's acceptance bit: a repeated compile is answered from
   the plan cache bit-identically, with no recompilation. *)
let test_plan_cache_hit_identical () =
  with_service ~workers:1 (fun svc ->
      let r = kernel_req "compile" "spmv" 8 ~extra:[ ("emit", Json.Arr [ Json.Str "cin"; Json.Str "code"; Json.Str "resources" ]) ] in
      let cold = Service.handle_request svc r in
      let warm = Service.handle_request svc r in
      checkb "cold miss" false (cached_bit cold);
      checkb "warm hit" true (cached_bit warm);
      (* the per-request correlation id is unique by design; mask it
         (everywhere — envelope and stamped diag contexts) the same way
         CI's persistence round-trip masks the cached flag *)
      let rec mask_rid = function
        | Json.Obj fields ->
            Json.Obj
              (List.filter_map
                 (fun (k, v) ->
                   if k = "request_id" then None else Some (k, mask_rid v))
                 fields)
        | Json.Arr items -> Json.Arr (List.map mask_rid items)
        | j -> j
      in
      let strip_cached = function
        | Json.Obj fields ->
            Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields)
        | j -> j
      in
      checks "hit is bit-identical to the cold compile"
        (Json.to_string (mask_rid (strip_cached cold)))
        (Json.to_string (mask_rid (strip_cached warm)));
      let c = Plan_cache.counters (Service.plan_cache svc) in
      checki "one compilation" 1 c.Plan_cache.misses;
      checki "one cache answer" 1 c.Plan_cache.hits;
      (* error payloads are deterministic and cached too *)
      let broken = kernel_req "compile" "nosuch" 8 in
      let e1 = Service.handle_request svc broken in
      let e2 = Service.handle_request svc broken in
      checks "failed requests answered identically"
        (Json.to_string (mask_rid e1))
        (Json.to_string (mask_rid e2)))

let test_plan_cache_lru () =
  let pc = Plan_cache.create ~capacity:2 () in
  let calls = Hashtbl.create 8 in
  let get k =
    Plan_cache.find_or_compute pc k (fun () ->
        Hashtbl.replace calls k
          (1 + Option.value ~default:0 (Hashtbl.find_opt calls k));
        Json.Str k)
  in
  List.iter (fun k -> ignore (get k)) [ "a"; "b"; "c" ];
  let c = Plan_cache.counters pc in
  checki "entries bounded to capacity" 2 c.Plan_cache.entries;
  checki "overflow evicted the LRU entry" 1 c.Plan_cache.evictions;
  let _, hit_b = get "b" in
  checkb "recently-filled b survives" true hit_b;
  ignore (get "d");
  let _, hit_b2 = get "b" in
  checkb "touched b survives the next eviction" true hit_b2;
  let _, hit_c = get "c" in
  checkb "LRU c was the victim" false hit_c;
  checki "c recomputed after eviction" 2 (Hashtbl.find calls "c");
  checki "b computed exactly once" 1 (Hashtbl.find calls "b");
  (* shrinking the bound evicts immediately *)
  Plan_cache.set_capacity pc 1;
  let c = Plan_cache.counters pc in
  checki "shrink evicts down to the new bound" 1 c.Plan_cache.entries

(* Four domains racing on one missing key: single-flight means exactly
   one computation, three waiters counted as hits, all values shared. *)
let test_plan_cache_single_flight () =
  let pc = Plan_cache.create () in
  let computes = Atomic.make 0 in
  let results =
    Pool.map ~workers:4
      (fun _ ->
        Plan_cache.find_or_compute pc "shared" (fun () ->
            Atomic.incr computes;
            Unix.sleepf 0.02;
            Json.Str "value"))
      (Array.init 4 Fun.id)
  in
  checki "computed exactly once" 1 (Atomic.get computes);
  Array.iter
    (fun (v, _) -> checkb "every caller sees the filled value" true (v = Json.Str "value"))
    results;
  let c = Plan_cache.counters pc in
  checki "one miss for the filler" 1 c.Plan_cache.misses;
  checki "three hits for the waiters" 3 c.Plan_cache.hits

(* A failing fill withdraws the pending marker: the next caller retries
   and becomes the new filler instead of caching the crash. *)
let test_plan_cache_failed_fill () =
  let pc = Plan_cache.create () in
  (match Plan_cache.find_or_compute pc "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the fill exception to propagate"
  | exception Failure m -> checks "original exception" "boom" m);
  let v, hit = Plan_cache.find_or_compute pc "k" (fun () -> Json.Str "ok") in
  checkb "retry recomputes" false hit;
  checkb "retry fills" true (v = Json.Str "ok")

(* ------------------------------------------------------------------ *)
(* Worker-count determinism                                            *)
(* ------------------------------------------------------------------ *)

(* The same batches through services at 1 and 4 workers must produce
   identical response lists and an identical deterministic metrics
   snapshot: single-flight fills keep even the cached bits and the
   plan-cache counters independent of scheduling. *)
let test_worker_determinism () =
  let batch_a =
    [
      kernel_req ~id:1 "estimate" "spmv" 8;
      kernel_req ~id:2 "compile" "spmv" 8;
      kernel_req ~id:3 "stats" "spmv" 8;
      kernel_req ~id:4 "estimate" "plus3" 8;
      req ~id:5 "ping" [];
    ]
  in
  let batch_b = batch_a (* replay: every cacheable request hits *) in
  let drive workers =
    Metrics.reset ();
    with_service ~workers (fun svc ->
        let r1 = Service.handle_batch svc batch_a in
        let r2 = Service.handle_batch svc batch_b in
        ( List.map Json.to_string (r1 @ r2),
          Metrics.snapshot_json ~deterministic:true () ))
  in
  let responses1, snapshot1 = drive 1 in
  let responses4, snapshot4 = drive 4 in
  checkb "response lists identical at 1 vs 4 workers" true
    (responses1 = responses4);
  checks "deterministic metrics snapshot identical at 1 vs 4 workers"
    snapshot1 snapshot4;
  (* the replayed batch really was served from the cache *)
  List.iteri
    (fun i line ->
      let resp = Json.parse line in
      match Json.member "cached" resp with
      | Some (Json.Bool c) ->
          checkb (Fmt.str "replayed request %d cached" i) true c
      | _ -> ())
    (List.filteri (fun i _ -> i >= List.length batch_a) responses1)

(* A batch whose item itself maps on the pool (autotune) must degrade to
   an inline nested run, not deadlock on the batch submitter's lock. *)
let test_batch_autotune_no_deadlock () =
  with_service ~workers:2 (fun svc ->
      let batch =
        [
          kernel_req ~id:1 "autotune" "spmv" 8
            ~extra:[ ("strategy", Json.Str "halving") ];
          req ~id:2 "ping" [];
          kernel_req ~id:3 "estimate" "spmv" 8;
        ]
      in
      let responses = Service.handle_batch svc batch in
      checki "every batch item answered" 3 (List.length responses);
      List.iter
        (fun r -> checkb "batch item ok" true (is_ok r))
        responses)

(* ------------------------------------------------------------------ *)
(* Socket transport                                                    *)
(* ------------------------------------------------------------------ *)

let test_unix_socket_session () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "stardust-serve-test-%d.sock" (Unix.getpid ()))
  in
  with_service ~workers:1 (fun svc ->
      let listener = Domain.spawn (fun () -> Server.serve_unix_socket svc path) in
      let rec wait_for_socket n =
        if not (Sys.file_exists path) && n > 0 then begin
          Unix.sleepf 0.01;
          wait_for_socket (n - 1)
        end
      in
      wait_for_socket 500;
      let c = Client.connect path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let ping = Client.rpc c (req ~id:1 "ping" []) in
          checkb "socket ping ok" true (is_ok ping);
          let cold = Client.rpc c (kernel_req ~id:2 "compile" "spmv" 8) in
          let warm = Client.rpc c (kernel_req ~id:3 "compile" "spmv" 8) in
          checkb "socket cold compile ok" true (is_ok cold);
          checkb "socket warm compile cached" true (cached_bit warm);
          (* a batch line comes back as one array in request order *)
          let batch =
            Client.rpc c
              (Json.Arr [ req ~id:4 "ping" []; kernel_req ~id:5 "estimate" "spmv" 8 ])
          in
          (match batch with
          | Json.Arr [ a; b ] ->
              checkb "batch ping ok" true (is_ok a);
              checkb "batch estimate ok" true (is_ok b)
          | _ -> Alcotest.fail "expected a two-element response array");
          let bye = Client.rpc c (req ~id:6 "shutdown" []) in
          checkb "socket shutdown ok" true (is_ok bye));
      Domain.join listener;
      checkb "socket file unlinked on exit" false (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* Hardening: deadlines, shedding, disconnects, oversized lines        *)
(* ------------------------------------------------------------------ *)

(* A request that blows its deadline_ms is abandoned with a stable
   E1005 — and the service keeps answering afterwards. *)
let test_deadline () =
  with_service ~workers:1 (fun svc ->
      let heavy =
        kernel_req ~id:1 "autotune" "mttkrp" 96
          ~extra:
            [
              ("strategy", Json.Str "exhaustive");
              ("deadline_ms", Json.Num 1.0);
            ]
      in
      let resp = Service.handle_request svc heavy in
      checkb "deadline blown answered, not hung" true (not (is_ok resp));
      checks "deadline code" "E1005" (error_code resp);
      (* the daemon is still alive and still fast *)
      let ping = Service.handle_request svc (req ~id:2 "ping" []) in
      checkb "service survives an abandoned request" true (is_ok ping);
      (* a generous deadline does not get in the way *)
      let light =
        kernel_req ~id:3 "estimate" "spmv" 8
          ~extra:[ ("deadline_ms", Json.Num 60000.0) ]
      in
      checkb "request under its deadline ok" true
        (is_ok (Service.handle_request svc light));
      (* a daemon-wide default applies where the request sets none *)
      let svc2 = Service.create ~workers:1 ~request_timeout:0.001 () in
      Fun.protect
        ~finally:(fun () -> Service.shutdown svc2)
        (fun () ->
          let r =
            Service.handle_request svc2
              (kernel_req ~id:4 "autotune" "mttkrp" 96
                 ~extra:
                   [
                     ("strategy", Json.Str "exhaustive");
                   ])
          in
          checkb "daemon default deadline fires" true (not (is_ok r));
          checks "daemon default deadline code" "E1005" (error_code r)))

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Fmt.str "stardust-%s-%d" name (Unix.getpid ()))

let with_listener ?max_connections ?max_line_bytes svc path f =
  let listener =
    Domain.spawn (fun () ->
        Server.serve_unix_socket ?max_connections ?max_line_bytes svc path)
  in
  let rec wait n =
    if (not (Sys.file_exists path)) && n > 0 then begin
      Unix.sleepf 0.01;
      wait (n - 1)
    end
  in
  wait 500;
  Fun.protect
    ~finally:(fun () ->
      Service.request_stop svc;
      Domain.join listener)
    f

(* Beyond --max-connections the daemon sheds with a one-line E1004 and
   keeps serving the connections it already accepted. *)
let test_shed_at_bound () =
  let path = tmp_path "shed.sock" in
  with_service ~workers:1 (fun svc ->
      with_listener ~max_connections:1 svc path (fun () ->
          let held = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close held)
            (fun () ->
              (* occupy the only slot with a real exchange *)
              checkb "held connection serves" true
                (is_ok (Client.rpc held (req ~id:1 "ping" [])));
              (* the next connection is shed with E1004 *)
              let shed = Client.connect path in
              let line = input_line shed.Client.ic in
              Client.close shed;
              let resp = Json.parse line in
              checks "shed connection answered E1004" "E1004"
                (error_code resp);
              checks "shed op" "overloaded" (Json.to_str (field "op" resp));
              (* the held connection is unaffected *)
              checkb "held connection still serves" true
                (is_ok (Client.rpc held (req ~id:2 "ping" []))))))

(* An abrupt client disconnect — mid-request and mid-response — never
   takes the daemon down. *)
let test_abrupt_disconnect () =
  let path = tmp_path "disc.sock" in
  with_service ~workers:1 (fun svc ->
      with_listener svc path (fun () ->
          (* half-written line, then slam the socket *)
          let c1 = Client.connect path in
          output_string c1.Client.oc "{\"op\": \"comp";
          flush c1.Client.oc;
          Client.close c1;
          (* full request, slam before reading the response *)
          let c2 = Client.connect path in
          output_string c2.Client.oc
            "{\"op\": \"compile\", \"kernel\": \"spmv\", \"n\": 8}\n";
          flush c2.Client.oc;
          Client.close c2;
          (* daemon still answers a fresh connection *)
          Unix.sleepf 0.1;
          let c3 = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close c3)
            (fun () ->
              checkb "daemon survives abrupt disconnects" true
                (is_ok (Client.rpc c3 (req ~id:1 "ping" []))))))

(* Deeply nested JSON — the stack-smashing attack on the recursive
   parser — is answered with a structured E1001 on both transports, the
   connection stays usable, and the daemon never leaks its connection
   slot (the review-found failure mode: a Stack_overflow escaping the
   handler's I/O-shaped exception filter skipped the cleanup, leaking
   one slot per hit until every future connection was shed). *)
let test_deep_nesting () =
  let deep d = String.make d '[' ^ String.make d ']' in
  (* stdin-shaped path: handle_line answers, never raises *)
  with_service ~workers:1 (fun svc ->
      let resp = Json.parse (Server.handle_line svc (deep 100_000)) in
      checks "deep line answered E1001" "E1001" (error_code resp));
  (* socket path: repeat the attack more times than --max-connections —
     a leaked slot per hit would shed the liveness probe at the end *)
  let path = tmp_path "deep.sock" in
  with_service ~workers:1 (fun svc ->
      with_listener ~max_connections:4 svc path (fun () ->
          for _ = 1 to 8 do
            let c = Client.connect path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let resp = Json.parse (Client.rpc_line c (deep 100_000)) in
                checks "socket deep line answered E1001" "E1001"
                  (error_code resp);
                checkb "connection survives the deep line" true
                  (is_ok (Client.rpc c (req ~id:1 "ping" []))))
          done;
          (* no slots leaked: a fresh connection still gets served *)
          let c = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              checkb "no connection slots leaked" true
                (is_ok (Client.rpc c (req ~id:2 "ping" []))))))

(* A line past the bound is answered E1006 and the connection stays
   usable for the next request. *)
let test_oversized_line () =
  let path = tmp_path "long.sock" in
  with_service ~workers:1 (fun svc ->
      with_listener ~max_line_bytes:256 svc path (fun () ->
          let c = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let resp =
                Json.parse (Client.rpc_line c (String.make 4096 'x'))
              in
              checks "oversized line answered E1006" "E1006" (error_code resp);
              checkb "connection survives the oversized line" true
                (is_ok (Client.rpc c (req ~id:1 "ping" []))))))

(* ------------------------------------------------------------------ *)
(* Crash-safe persistence                                              *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

(* The acceptance bit: a daemon restarted over the same --cache-dir
   answers a repeat from disk, bit-identically, as a cache hit. *)
let test_persistence_restart () =
  let dir = tmp_path "pcache" in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let r = kernel_req ~id:1 "compile" "spmv" 8 in
      let strip_cached = function
        | Json.Obj fields ->
            Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields)
        | j -> j
      in
      (* first daemon: compile once, spill at fill time *)
      let svc1 = Service.create ~workers:1 ~cache_dir:dir () in
      let cold =
        Fun.protect
          ~finally:(fun () -> Service.shutdown svc1)
          (fun () -> Service.handle_request svc1 r)
      in
      checkb "cold compile ok" true (is_ok cold);
      checkb "cold compile is a miss" false (cached_bit cold);
      checkb "fill spilled to disk" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".json")
           (Sys.readdir dir));
      (* second daemon: warm-starts from the spill *)
      let svc2 = Service.create ~workers:1 ~cache_dir:dir () in
      Fun.protect
        ~finally:(fun () -> Service.shutdown svc2)
        (fun () ->
          checkb "clean spill loads without warnings" true
            (Service.boot_diags svc2 = []);
          let warm = Service.handle_request svc2 r in
          checkb "restarted daemon answers the repeat as a hit" true
            (cached_bit warm);
          checks "restart answer is bit-identical"
            (Json.to_string (strip_cached cold))
            (Json.to_string (strip_cached warm));
          let c = Plan_cache.counters (Service.plan_cache svc2) in
          checki "no recompilation after restart" 0 c.Plan_cache.misses;
          checki "the repeat was a cache hit" 1 c.Plan_cache.hits))

(* A corrupted spill entry is skipped with a W0104 warning; the daemon
   boots and the poisoned key just recompiles. *)
let test_persistence_corrupt () =
  let dir = tmp_path "pcache-corrupt" in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Unix.mkdir dir 0o755;
      (* a truncated write and outright garbage *)
      let put name bytes =
        let oc = open_out (Filename.concat dir name) in
        output_string oc bytes;
        close_out oc
      in
      put "plan_0000000000000001.json" "{\"version\": 1, \"key\"";
      put "plan_0000000000000002.json" "not json at all";
      put "plan_0000000000000003.json" "{\"version\": 99, \"key\": \"k\", \"value\": 1}";
      let svc = Service.create ~workers:1 ~cache_dir:dir () in
      Fun.protect
        ~finally:(fun () -> Service.shutdown svc)
        (fun () ->
          let ds = Service.boot_diags svc in
          checki "every corrupt entry warned" 3 (List.length ds);
          List.iter
            (fun d ->
              checks "corrupt entry code" Diag.code_cache_corrupt d.Diag.code;
              checkb "corrupt warning names the file" true
                (List.mem_assoc "file" d.Diag.context))
            ds;
          (* the daemon is fine; a compile fills and spills fresh *)
          let r = Service.handle_request svc (kernel_req ~id:1 "compile" "spmv" 8) in
          checkb "daemon serves after corrupt boot" true (is_ok r)))

(* ------------------------------------------------------------------ *)
(* Chaos: the storm as a unit test                                     *)
(* ------------------------------------------------------------------ *)

(* A small in-process storm: garbage, half-lines, oversized lines,
   slow-loris, and mid-response disconnects concurrent with well-formed
   clients.  Zero failures means: never crashed, every well-formed
   request answered. *)
let test_chaos_storm () =
  let path = tmp_path "chaos.sock" in
  with_service ~workers:2 (fun svc ->
      with_listener ~max_connections:8 ~max_line_bytes:4096 svc path
        (fun () ->
          let cfg =
            {
              (Chaos.default_config ~socket:path) with
              Chaos.clients = 3;
              requests_per_client = 8;
              adversaries = 2;
              attacks_per_adversary = 5;
              max_line_bytes = 4096;
            }
          in
          let report = Chaos.run cfg in
          checks "chaos storm has zero failures" ""
            (String.concat "; " report.Chaos.failures);
          checki "every well-formed request answered"
            report.Chaos.wellformed_sent report.Chaos.wellformed_answered;
          checki "every attack ran" 10 report.Chaos.attacks_run))

(* ------------------------------------------------------------------ *)
(* Request correlation                                                 *)
(* ------------------------------------------------------------------ *)

let contains = Test_obs.contains

let request_id_of resp =
  match Json.member "request_id" resp with
  | Some (Json.Str s) -> Some s
  | _ -> None

(* every [request_id] stamped into a diagnostic's context object *)
let diag_context_rids resp =
  match Json.member "error" resp with
  | Some (Json.Obj ef) -> (
      match List.assoc_opt "diagnostics" ef with
      | Some (Json.Arr ds) ->
          List.map
            (fun d ->
              match Json.member "context" d with
              | Some (Json.Obj ctx) -> (
                  match List.assoc_opt "request_id" ctx with
                  | Some (Json.Str r) -> r
                  | _ -> "<unstamped>")
              | _ -> "<no context>")
            ds
      | _ -> [])
  | _ -> []

let generated_rid msg resp =
  match request_id_of resp with
  | Some r ->
      checkb msg true (String.length r > 2 && String.sub r 0 2 = "r-")
  | None -> Alcotest.fail (msg ^ ": request_id missing")

(* A client-supplied request_id is echoed in the envelope; a deadline
   failure stamps it into every diagnostic context, retains the span
   tree in the flight recorder under that id, and every retained span
   carries it as an arg — at one worker and at four. *)
let test_request_correlation () =
  List.iter
    (fun workers ->
      with_service ~workers (fun svc ->
          let tag = Fmt.str "w%d" workers in
          let resp =
            Service.handle_request svc
              (req ~id:1 "ping" []
                 ~extra:[ ("request_id", Json.Str ("cli-" ^ tag)) ])
          in
          check
            Alcotest.(option string)
            (tag ^ ": client id echoed")
            (Some ("cli-" ^ tag))
            (request_id_of resp);
          generated_rid
            (tag ^ ": minted id on a bare request")
            (Service.handle_request svc (req ~id:2 "ping" []));
          (* malformed correlation ids are protocol errors, still
             answered with a minted id *)
          let bad =
            Service.handle_request svc
              (req ~id:3 "ping" [] ~extra:[ ("request_id", Json.Num 7.0) ])
          in
          checks (tag ^ ": non-string request_id code") "E1002"
            (error_code bad);
          generated_rid (tag ^ ": rejected request still correlated") bad;
          checks
            (tag ^ ": unprintable request_id code")
            "E1002"
            (error_code
               (Service.handle_request svc
                  (req ~id:4 "ping" []
                     ~extra:[ ("request_id", Json.Str "has space") ])));
          (* blow a deadline under the client's id *)
          let rid = "doomed-" ^ tag in
          let resp =
            Service.handle_request svc
              (kernel_req ~id:5 "autotune" "mttkrp" 96
                 ~extra:
                   [
                     ("strategy", Json.Str "exhaustive");
                     ("deadline_ms", Json.Num 1.0);
                     ("request_id", Json.Str rid);
                   ])
          in
          checks (tag ^ ": deadline code") "E1005" (error_code resp);
          check
            Alcotest.(option string)
            (tag ^ ": failure echoes the id")
            (Some rid) (request_id_of resp);
          let rids = diag_context_rids resp in
          checkb (tag ^ ": at least one diagnostic") true (rids <> []);
          List.iter
            (fun r -> checks (tag ^ ": diag context stamped") rid r)
            rids;
          (* acceptance: the id echoed in the NDJSON error response keys
             the full span tree in the flight recorder *)
          (match Flight.find (Service.flight svc) rid with
          | None -> Alcotest.fail (tag ^ ": failure not in the recorder")
          | Some e ->
              checkb (tag ^ ": spans retained for the failure") true
                (e.Flight.f_spans <> []);
              List.iter
                (fun (_, ev) ->
                  check
                    Alcotest.(option string)
                    (tag ^ ": every retained span correlated")
                    (Some rid)
                    (List.assoc_opt "request_id" ev.Trace.ev_args))
                e.Flight.f_spans);
          match Flight.trace_json (Service.flight svc) rid with
          | None -> Alcotest.fail (tag ^ ": trace_json lost the failure")
          | Some json ->
              checkb (tag ^ ": tree holds the serve root span") true
                (contains ~affix:"serve.autotune" json);
              checkb (tag ^ ": tree names the code") true
                (contains ~affix:"E1005" json)))
    [ 1; 4 ]

(* With global tracing on, the correlation id follows the request into
   the deadline sub-domain and onto pool worker spans — the id appears
   on the exported events recorded by other domains. *)
let test_correlation_in_trace_export () =
  with_service ~workers:2 (fun svc ->
      Trace.reset ();
      Trace.start ();
      Fun.protect
        ~finally:(fun () -> Trace.reset ())
        (fun () ->
          checkb "estimate under deadline ok" true
            (is_ok
               (Service.handle_request svc
                  (kernel_req ~id:1 "estimate" "spmv" 8
                     ~extra:
                       [
                         ("deadline_ms", Json.Num 60000.0);
                         ("request_id", Json.Str "deep-1");
                       ])));
          checkb "autotune ok" true
            (is_ok
               (Service.handle_request svc
                  (kernel_req ~id:2 "autotune" "spmv" 8
                     ~extra:
                       [
                         ("strategy", Json.Str "halving");
                         ("request_id", Json.Str "deep-2");
                       ])));
          let evs = Trace.events () in
          let with_rid rid =
            List.filter
              (fun e ->
                List.assoc_opt "request_id" e.Trace.ev_args = Some rid)
              evs
          in
          let deep1 = with_rid "deep-1" in
          let root =
            match
              List.find_opt (fun e -> e.Trace.ev_name = "serve.estimate") deep1
            with
            | Some e -> e
            | None -> Alcotest.fail "serve.estimate span not exported"
          in
          checkb "deadline sub-domain spans carry the id" true
            (List.exists (fun e -> e.Trace.ev_tid <> root.Trace.ev_tid) deep1);
          let deep2 = with_rid "deep-2" in
          checkb "serve.autotune span exported" true
            (List.exists (fun e -> e.Trace.ev_name = "serve.autotune") deep2);
          checkb "pool worker spans carry the id" true
            (List.exists (fun e -> e.Trace.ev_cat = "pool") deep2)))

(* Correlation over the wire: ids echoed through the unix socket, and
   transport-level errors (unparseable line, oversized line) answered
   with minted ids that land in the flight recorder too. *)
let test_correlation_over_socket () =
  let path = tmp_path "corr.sock" in
  with_service ~workers:1 (fun svc ->
      with_listener ~max_line_bytes:4096 svc path (fun () ->
          let c = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              check
                Alcotest.(option string)
                "socket echoes the id" (Some "sock-1")
                (request_id_of
                   (Client.rpc c
                      (req ~id:1 "ping" []
                         ~extra:[ ("request_id", Json.Str "sock-1") ])));
              let resp = Json.parse (Client.rpc_line c "{nope") in
              checks "garbage line code" "E1001" (error_code resp);
              generated_rid "E1001 carries a minted id" resp;
              let resp =
                Json.parse (Client.rpc_line c (String.make 8192 'x'))
              in
              checks "oversized line code" "E1006" (error_code resp);
              generated_rid "E1006 carries a minted id" resp;
              let resp =
                Client.rpc c
                  (kernel_req ~id:2 "autotune" "mttkrp" 96
                     ~extra:
                       [
                         ("strategy", Json.Str "exhaustive");
                         ("deadline_ms", Json.Num 1.0);
                         ("request_id", Json.Str "sock-doom");
                       ])
              in
              checks "socket deadline code" "E1005" (error_code resp);
              check
                Alcotest.(option string)
                "socket failure echoes the id" (Some "sock-doom")
                (request_id_of resp);
              checkb "socket failure traceable by its id" true
                (Flight.trace_json (Service.flight svc) "sock-doom" <> None);
              let _, failed, total = Flight.occupancy (Service.flight svc) in
              checkb "recorder saw every exchange" true (total >= 4);
              checkb "failures retained with spans" true (failed >= 3))))

(* The deterministic flight dump is a pure function of the request
   multiset: identical at one worker and at four. *)
let test_flight_deterministic_across_workers () =
  let dump workers =
    with_service ~workers (fun svc ->
        let batch =
          [
            req ~id:1 "ping" [] ~extra:[ ("request_id", Json.Str "s-ping") ];
            kernel_req ~id:2 "compile" "spmv" 8
              ~extra:[ ("request_id", Json.Str "s-compile") ];
            kernel_req ~id:3 "estimate" "sddmm" 8
              ~extra:[ ("request_id", Json.Str "s-estimate") ];
            kernel_req ~id:4 "compile" "nosuch" 8
              ~extra:[ ("request_id", Json.Str "s-bad") ];
          ]
        in
        checki "batch answered" 4 (List.length (Service.handle_batch svc batch));
        Flight.entries_json ~deterministic:true (Service.flight svc))
  in
  let d1 = dump 1 in
  checks "flight dump workers 1 vs 4" d1 (dump 4);
  checkb "failure summarized" true (contains ~affix:"s-bad" d1);
  checkb "no wall-clock in the deterministic dump" false
    (contains ~affix:"latency" d1)

(* ------------------------------------------------------------------ *)
(* The HTTP observability plane                                        *)
(* ------------------------------------------------------------------ *)

(* one raw request with an arbitrary method, for the 405 check *)
let http_raw addr meth path =
  match String.rindex_opt addr ':' with
  | None -> Alcotest.fail ("bad addr " ^ addr)
  | Some i ->
      let host = String.sub addr 0 i
      and port = int_of_string (String.sub addr (i + 1) (String.length addr - i - 1)) in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
          let r =
            Fmt.str "%s %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
              meth path host
          in
          ignore (Unix.write_substring fd r 0 (String.length r));
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 1024 in
          let rec drain () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          in
          drain ();
          Buffer.contents buf)

let test_http_plane () =
  with_service ~workers:1 (fun svc ->
      match Http.start ~version:"test" ~service:svc "127.0.0.1:0" with
      | Error e -> Alcotest.fail ("http plane failed to start: " ^ e)
      | Ok plane ->
          Fun.protect
            ~finally:(fun () -> Http.stop plane)
            (fun () ->
              let addr = Http.bound_addr plane in
              (* seed some traffic, including one failure *)
              checkb "ping ok" true
                (is_ok (Service.handle_request svc (req ~id:1 "ping" [])));
              checks "seeded failure" "E1005"
                (error_code
                   (Service.handle_request svc
                      (kernel_req ~id:2 "autotune" "mttkrp" 96
                         ~extra:
                           [
                             ("strategy", Json.Str "exhaustive");
                             ("deadline_ms", Json.Num 1.0);
                             ("request_id", Json.Str "dead-http");
                           ])));
              (* /metrics: valid exposition text with the serve families *)
              (match Client.scrape_metrics addr with
              | Error e -> Alcotest.fail ("scrape failed: " ^ e)
              | Ok body ->
                  ignore (Test_obs.lint_prometheus body : int);
                  checkb "request counter scraped" true
                    (contains ~affix:"serve_requests_total" body);
                  checkb "flight counter scraped" true
                    (contains ~affix:"serve_flight_recorded_total" body);
                  checkb "http counter scraped" true
                    (contains ~affix:"serve_http_requests_total" body));
              (* health and readiness *)
              (match Client.health addr with
              | Ok (h, r) ->
                  checkb "healthy" true h;
                  checkb "ready" true r
              | Error e -> Alcotest.fail ("health failed: " ^ e));
              (* buildinfo *)
              (match Client.http_get addr "/buildinfo" with
              | Ok (200, body) ->
                  checkb "buildinfo names the version" true
                    (contains ~affix:{|"version":"test"|} body);
                  checkb "buildinfo names the chip config" true
                    (contains ~affix:"chip_config" body)
              | Ok (s, _) -> Alcotest.fail (Fmt.str "/buildinfo answered %d" s)
              | Error e -> Alcotest.fail ("buildinfo failed: " ^ e));
              (* flight recorder endpoints *)
              (match Client.http_get addr "/debug/requests" with
              | Ok (200, body) ->
                  checkb "recorder lists the failure" true
                    (contains ~affix:"dead-http" body)
              | Ok (s, _) ->
                  Alcotest.fail (Fmt.str "/debug/requests answered %d" s)
              | Error e -> Alcotest.fail ("debug/requests failed: " ^ e));
              (match Client.http_get addr "/debug/trace?id=dead-http" with
              | Ok (200, body) ->
                  checkb "trace holds the serve span" true
                    (contains ~affix:"serve.autotune" body)
              | Ok (s, _) -> Alcotest.fail (Fmt.str "/debug/trace answered %d" s)
              | Error e -> Alcotest.fail ("debug/trace failed: " ^ e));
              (match Client.http_get addr "/debug/trace?id=nope" with
              | Ok (404, _) -> ()
              | Ok (s, _) -> Alcotest.fail (Fmt.str "unknown id answered %d" s)
              | Error e -> Alcotest.fail e);
              (match Client.http_get addr "/debug/trace" with
              | Ok (400, _) -> ()
              | Ok (s, _) -> Alcotest.fail (Fmt.str "missing id answered %d" s)
              | Error e -> Alcotest.fail e);
              (match Client.http_get addr "/nope" with
              | Ok (404, _) -> ()
              | Ok (s, _) -> Alcotest.fail (Fmt.str "unknown path answered %d" s)
              | Error e -> Alcotest.fail e);
              checkb "non-GET answered 405" true
                (contains ~affix:"405" (http_raw addr "POST" "/metrics"));
              (* drain: readiness flips to 503, health and metrics stay up *)
              Service.request_stop svc;
              (match Client.health addr with
              | Ok (h, r) ->
                  checkb "still healthy while draining" true h;
                  checkb "not ready while draining" false r
              | Error e -> Alcotest.fail ("health during drain: " ^ e));
              (match Client.http_get addr "/readyz" with
              | Ok (503, body) ->
                  checkb "drain reason named" true
                    (contains ~affix:"draining" body)
              | Ok (s, _) -> Alcotest.fail (Fmt.str "draining readyz = %d" s)
              | Error e -> Alcotest.fail e);
              match Client.scrape_metrics addr with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("scrape during drain: " ^ e)))

(* Acceptance: scraping /metrics DURING an in-process chaos storm keeps
   returning valid exposition text, and the storm itself stays clean. *)
let test_http_scrape_during_chaos () =
  let path = tmp_path "chaos-http.sock" in
  with_service ~workers:2 (fun svc ->
      match Http.start ~version:"test" ~service:svc "127.0.0.1:0" with
      | Error e -> Alcotest.fail ("http plane failed to start: " ^ e)
      | Ok plane ->
          Fun.protect
            ~finally:(fun () -> Http.stop plane)
            (fun () ->
              let addr = Http.bound_addr plane in
              with_listener ~max_connections:8 ~max_line_bytes:4096 svc path
                (fun () ->
                  let cfg =
                    {
                      (Chaos.default_config ~socket:path) with
                      Chaos.clients = 2;
                      requests_per_client = 6;
                      adversaries = 2;
                      attacks_per_adversary = 4;
                      max_line_bytes = 4096;
                    }
                  in
                  let storm = Domain.spawn (fun () -> Chaos.run cfg) in
                  for i = 1 to 10 do
                    (match Client.scrape_metrics addr with
                    | Ok body ->
                        ignore (Test_obs.lint_prometheus body : int);
                        checkb
                          (Fmt.str "scrape %d has the request counter" i)
                          true
                          (contains ~affix:"serve_requests_total" body)
                    | Error e ->
                        Alcotest.fail (Fmt.str "scrape %d during storm: %s" i e));
                    Unix.sleepf 0.02
                  done;
                  let report = Domain.join storm in
                  checks "storm under scrape has zero failures" ""
                    (String.concat "; " report.Chaos.failures);
                  checki "every well-formed request answered"
                    report.Chaos.wellformed_sent
                    report.Chaos.wellformed_answered)))

(* Budgeted autotune over the wire: the strategy/budget fields reach the
   explorer, the result reports its budget accounting, and an unknown
   strategy is refused with the stable E1008 code (not silently mapped
   to exhaustive, and never cached). *)
let test_autotune_budgeted () =
  with_service ~workers:1 (fun svc ->
      let resp =
        Service.handle_request svc
          (kernel_req ~id:1 "autotune" "spmv" 8
             ~extra:
               [ ("strategy", Json.Str "halving"); ("budget", Json.Num 6.0) ])
      in
      checkb "halving autotune ok" true (is_ok resp);
      let result = field "result" resp in
      checks "strategy echoed" "halving"
        (Json.to_str (field "strategy" result));
      checki "budget echoed" 6
        (int_of_float (Json.to_float (field "budget" result)));
      checkb "full evaluations capped by the budget" true
        (Json.to_float (field "full_evals" result) <= 6.0);
      checkb "bound evaluations reported" true
        (Json.member "bound_evals" result <> None);
      List.iter
        (fun name ->
          let removed =
            Service.handle_request svc
              (kernel_req ~id:2 "autotune" "spmv" 8
                 ~extra:[ ("strategy", Json.Str name) ])
          in
          checks (name ^ " is no longer a strategy") "E1008"
            (error_code removed))
        [ "greedy"; "random"; "anneal"; "surrogate" ];
      let unknown =
        Service.handle_request svc
          (kernel_req ~id:3 "autotune" "spmv" 8
             ~extra:[ ("strategy", Json.Str "simplex") ])
      in
      checkb "unknown strategy refused" false (is_ok unknown);
      checks "unknown strategy answered E1008" "E1008" (error_code unknown);
      let negative =
        Service.handle_request svc
          (kernel_req ~id:4 "autotune" "spmv" 8
             ~extra:[ ("budget", Json.Num (-1.0)) ])
      in
      checkb "negative budget refused" false (is_ok negative);
      checks "negative budget answered E1002" "E1002" (error_code negative))

(* The daemon's autotune body, pinned byte for byte as it was while the
   explorer rendered JSON by hand.  That renderer printed [seconds] with
   [%.6e]; the [Json.t] builder keeps full precision, so the comparison
   re-rounds [seconds] the old way and nothing else. *)
let autotune_golden =
  "{\"kernel\":\"spmv\",\"strategy\":\"halving\",\"workers\":1,\
   \"candidates\":19,\"evaluated\":16,\"full_evals\":16,\"estimates\":16,\
   \"bound_evals\":19,\"budget\":16,\"pruned\":0,\"heuristic\":{\"point\":{\"order\":null,\
   \"outer_par\":16,\"inner_par\":16,\"split\":null,\"gather\":\"auto\"},\
   \"cycles\":67,\"seconds\":4.167778e-08,\"dram_bytes\":140,\"pcu\":17,\
   \"pmu\":35,\"mc\":35,\"shuffle\":16,\"limiting\":\"Shuf\"},\"best\":{\"point\":{\"order\":null,\
   \"outer_par\":16,\"inner_par\":16,\"split\":null,\"gather\":\"auto\"},\
   \"cycles\":67,\"seconds\":4.167778e-08,\"dram_bytes\":140,\"pcu\":17,\
   \"pmu\":35,\"mc\":35,\"shuffle\":16,\"limiting\":\"Shuf\"},\"frontier\":[{\"point\":{\"order\":null,\
   \"outer_par\":16,\"inner_par\":16,\"split\":null,\"gather\":\"auto\"},\
   \"cycles\":67,\"seconds\":4.167778e-08,\"dram_bytes\":140,\"pcu\":17,\
   \"pmu\":35,\"mc\":35,\"shuffle\":16,\"limiting\":\"Shuf\"},{\"point\":{\"order\":\"i,\
     j\",\"outer_par\":12,\"inner_par\":4,\"split\":null,\"gather\":\"auto\"},\
   \"cycles\":67,\"seconds\":4.1811109999999998e-08,\"dram_bytes\":140,\
   \"pcu\":13,\"pmu\":27,\"mc\":27,\"shuffle\":12,\"limiting\":\"Shuf\"},\
     {\"point\":{\"order\":\"i,j\",\"outer_par\":8,\"inner_par\":4,\
   \"split\":null,\"gather\":\"auto\"},\"cycles\":67,\"seconds\":4.2077779999999997e-08,\
   \"dram_bytes\":140,\"pcu\":9,\"pmu\":19,\"mc\":19,\"shuffle\":8,\
   \"limiting\":\"Shuf\"},{\"point\":{\"order\":\"i,j\",\"outer_par\":4,\
   \"inner_par\":4,\"split\":null,\"gather\":\"auto\"},\"cycles\":69,\
   \"seconds\":4.2877779999999998e-08,\"dram_bytes\":140,\"pcu\":5,\
   \"pmu\":11,\"mc\":11,\"shuffle\":4,\"limiting\":\"Shuf\"},{\"point\":{\"order\":\"i,\
     j\",\"outer_par\":2,\"inner_par\":4,\"split\":null,\"gather\":\"auto\"},\
   \"cycles\":71,\"seconds\":4.4477779999999999e-08,\"dram_bytes\":140,\
   \"pcu\":3,\"pmu\":7,\"mc\":7,\"shuffle\":2,\"limiting\":\"Shuf\"},\
     {\"point\":{\"order\":\"i,j\",\"outer_par\":1,\"inner_par\":8,\
   \"split\":null,\"gather\":\"auto\"},\"cycles\":76,\"seconds\":4.7677780000000001e-08,\
   \"dram_bytes\":140,\"pcu\":2,\"pmu\":5,\"mc\":5,\"shuffle\":1,\
   \"limiting\":\"MC\"}]}"

let test_autotune_golden () =
  let rec old_seconds = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "seconds", Json.Num s ->
                   ("seconds", Json.Num (float_of_string (Fmt.str "%.6e" s)))
               | k, v -> (k, old_seconds v))
             fields)
    | Json.Arr l -> Json.Arr (List.map old_seconds l)
    | j -> j
  in
  with_service ~workers:1 (fun svc ->
      let resp =
        Service.handle_request svc
          (kernel_req ~id:1 "autotune" "spmv" 8
             ~extra:[ ("strategy", Json.Str "halving") ])
      in
      checks "spmv n=8 halving body" autotune_golden
        (Json.to_string (old_seconds (field "result" resp))))

(* Aliases of one strategy resolve to one plan-cache entry: [grid] and
   [exhaustive] are the same search. *)
let test_autotune_alias_cached () =
  with_service ~workers:1 (fun svc ->
      let ask id strategy =
        Service.handle_request svc
          (kernel_req ~id "autotune" "spmv" 8
             ~extra:[ ("strategy", Json.Str strategy) ])
      in
      checkb "grid is a cold miss" false (cached_bit (ask 1 "grid"));
      checkb "exhaustive after grid is cached" true
        (cached_bit (ask 2 "exhaustive")))

let suite =
  [
    Alcotest.test_case "protocol: every op round-trips" `Quick
      test_roundtrip_ops;
    Alcotest.test_case "protocol: expression mode and dram keys" `Quick
      test_expr_mode;
    Alcotest.test_case "protocol: malformed requests get stable codes"
      `Quick test_malformed;
    Alcotest.test_case "plan cache: repeat answered bit-identically" `Quick
      test_plan_cache_hit_identical;
    Alcotest.test_case "plan cache: LRU eviction under a tiny bound" `Quick
      test_plan_cache_lru;
    Alcotest.test_case "plan cache: single-flight fills" `Quick
      test_plan_cache_single_flight;
    Alcotest.test_case "plan cache: failed fill withdraws" `Quick
      test_plan_cache_failed_fill;
    Alcotest.test_case "service: workers 1 vs 4 deterministic" `Quick
      test_worker_determinism;
    Alcotest.test_case "service: batched autotune does not deadlock" `Quick
      test_batch_autotune_no_deadlock;
    Alcotest.test_case "service: budgeted autotune strategies and E1008"
      `Quick test_autotune_budgeted;
    Alcotest.test_case "service: autotune body pinned" `Quick
      test_autotune_golden;
    Alcotest.test_case "plan cache: strategy aliases share an entry" `Quick
      test_autotune_alias_cached;
    Alcotest.test_case "server: unix-socket client session" `Quick
      test_unix_socket_session;
    Alcotest.test_case "hardening: deadlines answered E1005" `Quick
      test_deadline;
    Alcotest.test_case "hardening: shed at --max-connections with E1004"
      `Quick test_shed_at_bound;
    Alcotest.test_case "hardening: abrupt disconnects survived" `Quick
      test_abrupt_disconnect;
    Alcotest.test_case "hardening: oversized lines answered E1006" `Quick
      test_oversized_line;
    Alcotest.test_case "hardening: deep nesting answered E1001, no leak"
      `Quick test_deep_nesting;
    Alcotest.test_case "persistence: restart answers repeats from disk"
      `Quick test_persistence_restart;
    Alcotest.test_case "persistence: corrupt spill skipped with W0104"
      `Quick test_persistence_corrupt;
    Alcotest.test_case "chaos: in-process storm, zero failures" `Quick
      test_chaos_storm;
    Alcotest.test_case "correlation: ids echoed, stamped, and traced"
      `Quick test_request_correlation;
    Alcotest.test_case "correlation: ids cross domains in the trace export"
      `Quick test_correlation_in_trace_export;
    Alcotest.test_case "correlation: ids over the unix socket" `Quick
      test_correlation_over_socket;
    Alcotest.test_case "flight: deterministic dump workers 1 vs 4" `Quick
      test_flight_deterministic_across_workers;
    Alcotest.test_case "http: observability plane endpoints" `Quick
      test_http_plane;
    Alcotest.test_case "http: scrape stays valid during a chaos storm"
      `Quick test_http_scrape_during_chaos;
  ]
