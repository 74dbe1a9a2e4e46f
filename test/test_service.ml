(* Long-lived service fabric tests: supervision, heartbeats, deadlines,
   admission control — and the chaos soak.

   ORDER MATTERS, as in test_transport.ml: the service forks (and
   re-forks, on respawn), so the parent must never spawn a domain.
   Client concurrency below is systhreads throughout. *)

open Triolet_runtime
module Payload = Triolet_base.Payload
module Rng = Triolet_base.Rng

(* Keep the parent single-domain so forking stays possible. *)
let () = Pool.set_default_width 1

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The canonical request: k int slices in, each mapped x -> 2x + 1.
   Node-independent, so results are byte-identical whichever child (or
   surviving re-executor) computes them. *)
let double_inc ~node:_ ~pool:_ payload =
  match payload with
  | [ Payload.Ints a ] -> [ Payload.Ints (Array.map (fun x -> (2 * x) + 1) a) ]
  | _ -> failwith "bad payload"

let request ~slices ~base =
  Array.init slices (fun i ->
      [ Payload.Ints (Array.init 8 (fun j -> base + (i * 100) + j)) ])

let expected payloads =
  Array.map
    (fun p ->
      match p with
      | [ Payload.Ints a ] ->
          [ Payload.Ints (Array.map (fun x -> (2 * x) + 1) a) ]
      | _ -> assert false)
    payloads

let payloads_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> x = y) a b

let with_service ?(cfg = Service.default_config) ~work f =
  let t = Service.create ~cfg ~work () in
  Fun.protect ~finally:(fun () -> Service.shutdown ~grace:2.0 t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Clean path.                                                         *)

let test_basic_roundtrip () =
  let cfg = { Service.default_config with nodes = 3; cores_per_node = 1 } in
  with_service ~cfg ~work:double_inc (fun t ->
      let code () = (Stats.snapshot ()).Stats.code_bytes in
      let c0 = code () in
      let after_first = ref 0 in
      for r = 0 to 4 do
        let req = request ~slices:5 ~base:(r * 1000) in
        (match Service.submit t req with
        | Ok results ->
            check_bool
              (Printf.sprintf "request %d exact" r)
              true
              (payloads_equal (expected req) results)
        | Error e -> Alcotest.fail (Service.error_to_string e));
        if r = 0 then after_first := code () - c0
      done;
      (* The work ships with the first request, once per node. *)
      check_bool "first request ships the code" true (!after_first > 0);
      check_int "later requests ship none" !after_first (code () - c0);
      check_int "all nodes live" 3 (List.length (Service.live_nodes t)))

(* A work closure over a mutex cannot cross as closure bytes: refused
   before anything forks. *)
let test_unshippable_work () =
  let m = Mutex.create () in
  let work ~node ~pool p = Mutex.protect m (fun () -> double_inc ~node ~pool p) in
  let ends () = List.length (Atomic.get Transport.Proc.parent_ends) in
  let before = ends () in
  (match Service.create ~work () with
  | t ->
      Service.shutdown t;
      Alcotest.fail "a mutex crossed as task code"
  | exception Cluster.Unshippable_task _ -> ());
  check_int "no child forked" before (ends ())

let test_concurrent_clients () =
  let cfg = { Service.default_config with nodes = 2; cores_per_node = 1 } in
  with_service ~cfg ~work:double_inc (fun t ->
      let failures = Atomic.make 0 in
      let client c () =
        for r = 0 to 7 do
          let req = request ~slices:3 ~base:((c * 10000) + (r * 100)) in
          match Service.submit t req with
          | Ok results when payloads_equal (expected req) results -> ()
          | Ok _ | Error _ -> Atomic.incr failures
        done
      in
      let threads = List.init 4 (fun c -> Thread.create (client c) ()) in
      List.iter Thread.join threads;
      check_int "every request exact" 0 (Atomic.get failures))

(* ------------------------------------------------------------------ *)
(* Admission control and drain.                                        *)

let slow_work ~node ~pool payload =
  Unix.sleepf 0.05;
  double_inc ~node ~pool payload

let test_overload_sheds () =
  let cfg =
    { Service.default_config with nodes = 1; cores_per_node = 1;
      queue_bound = 2 }
  in
  with_service ~cfg ~work:slow_work (fun t ->
      Stats.reset ();
      let outcomes = Array.make 8 (Error Service.Draining) in
      let client i () =
        outcomes.(i) <- Service.submit t (request ~slices:1 ~base:i)
      in
      let threads = Array.to_list (Array.init 8 (fun i -> Thread.create (client i) ())) in
      List.iter Thread.join threads;
      let ok, shed, other =
        Array.fold_left
          (fun (ok, shed, other) o ->
            match o with
            | Ok _ -> (ok + 1, shed, other)
            | Error Service.Overloaded -> (ok, shed + 1, other)
            | Error _ -> (ok, shed, other + 1))
          (0, 0, 0) outcomes
      in
      check_int "nothing failed outright" 0 other;
      check_bool "some requests admitted" true (ok >= 1);
      check_bool "overload shed load" true (shed >= 1);
      check_bool "shed counter recorded" true ((Stats.snapshot ()).Stats.shed >= shed))

let test_drain_refuses () =
  let cfg = { Service.default_config with nodes = 1; cores_per_node = 1 } in
  let t = Service.create ~cfg ~work:double_inc () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown ~grace:2.0 t)
    (fun () ->
      (match Service.submit t (request ~slices:1 ~base:0) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.error_to_string e));
      Service.drain t;
      match Service.submit t (request ~slices:1 ~base:1) with
      | Error Service.Draining -> ()
      | Ok _ -> Alcotest.fail "drained service accepted work"
      | Error e -> Alcotest.fail (Service.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Deadlines.                                                          *)

let test_deadline_expires () =
  let cfg = { Service.default_config with nodes = 1; cores_per_node = 1 } in
  with_service ~cfg ~work:slow_work (fun t ->
      Stats.reset ();
      (* Generous budget: completes. *)
      (match Service.submit ~deadline:5.0 t (request ~slices:1 ~base:0) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.error_to_string e));
      (* Budget shorter than one slice's compute: cancelled, and the
         worker never burned the remaining slices. *)
      (match Service.submit ~deadline:0.02 t (request ~slices:4 ~base:1) with
      | Error Service.Deadline_expired -> ()
      | Ok _ -> Alcotest.fail "impossible deadline met"
      | Error e -> Alcotest.fail (Service.error_to_string e));
      check_bool "deadline counter recorded" true
        ((Stats.snapshot ()).Stats.deadline_expired >= 1);
      (* The service survives an expired request. *)
      match Service.submit t (request ~slices:1 ~base:2) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Supervision: external kills, heartbeat loss, respawn convergence.    *)

let await ?(timeout = 10.0) pred msg =
  let deadline = Clock.monotonic_ns () + int_of_float (timeout *. 1e9) in
  let rec go () =
    if pred () then ()
    else if Clock.monotonic_ns () > deadline then Alcotest.fail msg
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let test_kill_respawn_converges () =
  let cfg =
    { Service.default_config with nodes = 3; cores_per_node = 1;
      heartbeat_interval = 0.02; respawn_backoff = 0.005 }
  in
  with_service ~cfg ~work:double_inc (fun t ->
      let req = request ~slices:6 ~base:0 in
      (match Service.submit t req with
      | Ok r -> check_bool "before kill" true (payloads_equal (expected req) r)
      | Error e -> Alcotest.fail (Service.error_to_string e));
      (* SIGKILL a child out from under the service. *)
      Unix.kill (Service.node_pids t).(1) Sys.sigkill;
      (* Requests keep completing exactly throughout the death. *)
      for r = 1 to 5 do
        let req = request ~slices:6 ~base:(r * 1000) in
        match Service.submit t req with
        | Ok res ->
            check_bool
              (Printf.sprintf "during recovery %d" r)
              true
              (payloads_equal (expected req) res)
        | Error e -> Alcotest.fail (Service.error_to_string e)
      done;
      await
        (fun () -> List.length (Service.live_nodes t) = 3)
        "fabric never converged back to 3 nodes";
      check_bool "respawn happened" true (Service.respawns t >= 1))

let test_heartbeat_loss_detected () =
  (* Every pong is dropped by the injector: silence trips the miss
     threshold, the child is declared dead, killed, and respawned —
     even though it never actually crashed. *)
  let faults = Fault.spec ~seed:7 ~heartbeat_loss:1.0 () in
  let cfg =
    { Service.default_config with nodes = 2; cores_per_node = 1;
      heartbeat_interval = 0.01; miss_threshold = 2;
      respawn_backoff = 0.005; faults = Some faults }
  in
  with_service ~cfg ~work:double_inc (fun t ->
      Stats.reset ();
      await
        (fun () -> Service.heartbeat_misses t >= 1 && Service.respawns t >= 1)
        "heartbeat loss never tripped the miss threshold";
      check_bool "stats heartbeat misses" true
        ((Stats.snapshot ()).Stats.heartbeat_misses >= 1);
      check_bool "stats respawns" true ((Stats.snapshot ()).Stats.respawns >= 1);
      (* Work still completes under permanent heartbeat loss: churn
         costs latency, not answers. *)
      let req = request ~slices:4 ~base:0 in
      match Service.submit t req with
      | Ok r -> check_bool "exact under churn" true (payloads_equal (expected req) r)
      | Error e -> Alcotest.fail (Service.error_to_string e))

let test_crash_on_respawn_backoff () =
  (* Every respawn dies young: the supervisor must keep escalating the
     backoff rather than busy-looping the fork path, and the injector
     counts each sacrifice. *)
  let faults = Fault.spec ~seed:11 ~crash_on_respawn:1.0 () in
  let cfg =
    { Service.default_config with nodes = 2; cores_per_node = 1;
      heartbeat_interval = 0.01; respawn_backoff = 0.005;
      respawn_backoff_max = 0.05; faults = Some faults }
  in
  with_service ~cfg ~work:double_inc (fun t ->
      Unix.kill (Service.node_pids t).(0) Sys.sigkill;
      await
        (fun () -> Service.respawns t >= 3)
        "flapping node was not respawned repeatedly";
      match Service.fault_counters t with
      | Some c -> check_bool "respawn crashes counted" true (c.Fault.respawn_crashes >= 2)
      | None -> Alcotest.fail "no fault counters")

(* A fault plan's crash fires in a service, and once: node 1 dies at
   its planned phase, its slices re-run on the survivor, and the
   respawned node runs plain code instead of dying at every task. *)
let test_planned_crash_fires_once () =
  let faults = Fault.spec ~seed:3 ~crash:(1, Fault.During_work) () in
  let cfg =
    { Service.default_config with nodes = 2; cores_per_node = 1;
      respawn_backoff = 0.005; faults = Some faults }
  in
  with_service ~cfg ~work:double_inc (fun t ->
      let submit r =
        let req = request ~slices:4 ~base:(r * 1000) in
        match Service.submit t req with
        | Ok res -> check_bool (Printf.sprintf "request %d exact" r) true (payloads_equal (expected req) res)
        | Error e -> Alcotest.fail (Service.error_to_string e)
      in
      for r = 0 to 4 do
        submit r
      done;
      await (fun () -> List.length (Service.live_nodes t) = 2) "the crashed node never came back";
      check_bool "respawned" true (Service.respawns t >= 1);
      (* Back on both nodes, more requests cost no further death. *)
      let respawned = Service.respawns t in
      for r = 5 to 9 do
        submit r
      done;
      Unix.sleepf 0.05;
      check_int "no further respawn" respawned (Service.respawns t);
      check_int "both nodes live" 2 (List.length (Service.live_nodes t));
      match Service.fault_counters t with
      | Some c -> check_int "one crash" 1 c.Fault.crashes
      | None -> Alcotest.fail "no fault counters")

(* The supervision rules live in the pure dispatch engine: drive it
   directly, one node, with time passed in by hand. *)
let ns s = int_of_float (s *. 1e9)

let engine ~base ~max_s =
  Dispatch.create ~now:0
    {
      Dispatch.nodes = 1;
      policy = { max_attempts = 8; timeout = None };
      supervision =
        Some
          {
            hb_interval = ns 1.0;
            miss_threshold = 3;
            backoff_base = ns base;
            backoff_max = ns max_s;
          };
    }

let node0 (t : Dispatch.t) = List.hd t.Dispatch.nodes
let backoff_s ~max_s t = float_of_int (min (ns max_s) (node0 t).Dispatch.backoff) /. 1e9

(* Kill/EOF/respawn [n] times; the delays the engine scheduled. *)
let death_cycles ~base ~max_s n =
  let rec go t k acc =
    if k = 0 then (t, List.rev acc)
    else
      let now = t.Dispatch.now in
      let t, _ = Dispatch.step t (Dispatch.Eof 0) in
      match (node0 t).Dispatch.respawn_at with
      | None -> Alcotest.fail "no respawn scheduled"
      | Some at ->
          (* Fast-forward past the deadline instead of sleeping. *)
          let t, acts = Dispatch.step t (Dispatch.Tick (at + 1)) in
          check_bool "respawned" true (List.mem (Dispatch.Respawn 0) acts);
          go t (k - 1) (float_of_int (at - now) /. 1e9 :: acc)
  in
  go (engine ~base ~max_s) n []

let backoff_sequence ~base ~max n = snd (death_cycles ~base ~max_s:max n)

let test_backoff_sequence () =
  (* The sequence a flapping node sleeps: base, doubling, clamped at max
     before each sleep, then pinned at max. *)
  Alcotest.(check (list (float 1e-9)))
    "base, 2x, 4x, max, max"
    [ 0.01; 0.02; 0.04; 0.05; 0.05 ]
    (backoff_sequence ~base:0.01 ~max:0.05 5);
  (* Clamp-before-sleep: even the first delay never exceeds max. *)
  Alcotest.(check (list (float 1e-9)))
    "first sleep already clamped"
    [ 0.04; 0.04; 0.04 ]
    (backoff_sequence ~base:0.05 ~max:0.04 3);
  Alcotest.(check (list (float 1e-9)))
    "empty prefix" []
    (backoff_sequence ~base:0.01 ~max:1.0 0)

let test_backoff_resets_on_fresh_pong () =
  (* Three kill/EOF cycles sleep exactly the pinned sequence, and the
     first pong from a fresh replacement resets the delay to base. *)
  let base = 0.01 and max_s = 0.04 in
  Alcotest.(check (float 1e-12)) "starts at base" base
    (backoff_s ~max_s (engine ~base ~max_s));
  let t, slept = death_cycles ~base ~max_s 3 in
  Alcotest.(check (list (float 1e-9)))
    "deaths slept exactly the pinned sequence"
    [ 0.01; 0.02; 0.04 ] slept;
  (* Escalated and clamped... *)
  Alcotest.(check (float 1e-12)) "escalated to max" max_s (backoff_s ~max_s t);
  (* ...until the replacement proves itself with one pong. *)
  let t, acts = Dispatch.step t (Dispatch.Frame (0, Protocol.Pong, Bytes.empty)) in
  check_bool "pong accepted" true (acts = []);
  Alcotest.(check (float 1e-12)) "first fresh pong resets to base" base
    (backoff_s ~max_s t)

(* ------------------------------------------------------------------ *)
(* The chaos soak: concurrent clients, a killer SIGKILLing a random
   child every few requests, heartbeat loss in the background, and a
   bounded queue.  Every admitted request must complete byte-identically
   to the clean path or be rejected [Overloaded]; nothing may hang; the
   fabric must end at its configured size.                              *)

let test_chaos_soak () =
  let nodes = 4 in
  let faults = Fault.spec ~seed:42 ~heartbeat_loss:0.1 () in
  let cfg =
    { Service.default_config with nodes; cores_per_node = 1;
      queue_bound = 4; heartbeat_interval = 0.02; miss_threshold = 3;
      respawn_backoff = 0.005; respawn_backoff_max = 0.1;
      request_timeout = 0.05; faults = Some faults }
  in
  with_service ~cfg ~work:double_inc (fun t ->
      Stats.reset ();
      let clients = 6 and per_client = 8 and kill_every = 5 in
      let completed = Atomic.make 0 in
      let shed = Atomic.make 0 in
      let wrong = Atomic.make 0 in
      let errors = Atomic.make 0 in
      (* Seeded killer: victims are a deterministic sequence; the
         trigger is every [kill_every]-th admitted request. *)
      let kill_rng = Rng.create 1337 in
      let kill_lock = Mutex.create () in
      let maybe_kill () =
        if Atomic.fetch_and_add completed 1 mod kill_every = kill_every - 1 then begin
          Mutex.lock kill_lock;
          let victim = Rng.int kill_rng nodes in
          let pid = (Service.node_pids t).(victim) in
          Mutex.unlock kill_lock;
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
        end
      in
      let client c () =
        for r = 0 to per_client - 1 do
          let req = request ~slices:nodes ~base:((c * 100000) + (r * 1000)) in
          (match Service.submit t req with
          | Ok results ->
              if not (payloads_equal (expected req) results) then
                Atomic.incr wrong
          | Error Service.Overloaded -> Atomic.incr shed
          | Error _ -> Atomic.incr errors);
          maybe_kill ()
        done
      in
      let threads = List.init clients (fun c -> Thread.create (client c) ()) in
      List.iter Thread.join threads;
      (* Nothing hung (we got here), nothing was wrong, nothing failed
         in any way other than being shed. *)
      check_int "no wrong results" 0 (Atomic.get wrong);
      check_int "no hard failures" 0 (Atomic.get errors);
      check_int "every request accounted" (clients * per_client)
        (Atomic.get completed);
      (* The fabric converges back to its configured size. *)
      await
        (fun () -> List.length (Service.live_nodes t) = nodes)
        "fabric never converged back to configured node count";
      (* The supervision path really fired. *)
      check_bool "respawns nonzero" true (Service.respawns t >= 1);
      let s = Stats.snapshot () in
      check_bool "respawn counter" true (s.Stats.respawns >= 1);
      Printf.printf
        "soak: %d requests, %d shed, %d respawns, %d heartbeat misses\n%!"
        (Atomic.get completed) (Atomic.get shed) (Service.respawns t)
        (Service.heartbeat_misses t))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "clean",
        [
          Alcotest.test_case "basic roundtrip" `Quick test_basic_roundtrip;
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "unshippable work refused" `Quick test_unshippable_work;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overload sheds" `Quick test_overload_sheds;
          Alcotest.test_case "drain refuses" `Quick test_drain_refuses;
        ] );
      ( "deadlines",
        [ Alcotest.test_case "deadline expires" `Quick test_deadline_expires ] );
      ( "supervision",
        [
          Alcotest.test_case "kill/respawn converges" `Quick
            test_kill_respawn_converges;
          Alcotest.test_case "heartbeat loss detected" `Quick
            test_heartbeat_loss_detected;
          Alcotest.test_case "crash-on-respawn backoff" `Quick
            test_crash_on_respawn_backoff;
          Alcotest.test_case "planned crash fires once" `Quick
            test_planned_crash_fires_once;
          Alcotest.test_case "backoff sequence pinned" `Quick
            test_backoff_sequence;
          Alcotest.test_case "backoff resets on fresh pong" `Quick
            test_backoff_resets_on_fresh_pong;
        ] );
      ("chaos", [ Alcotest.test_case "soak" `Slow test_chaos_soak ]);
    ]
