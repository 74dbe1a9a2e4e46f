(* Transport layer tests: the process fabric and the socket frame
   transport.

   ORDER MATTERS.  The process backend forks, and OCaml forbids [fork]
   once any domain has ever been spawned.  Every suite before the last
   uses threads at most; the final suite checks the fail-fast guard the
   other way around: once domains exist, the process backend must raise
   a clear [Failure] instead of a cryptic fork error. *)

open Triolet_runtime
module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec

(* Keep the parent single-domain so forking stays possible: the default
   pool must never spawn a worker domain in this process. *)
let () = Pool.set_default_width 1

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Process fabric (fork-dependent: must run before any domain exists)   *)

let reverse_bytes b =
  let n = Bytes.length b in
  Bytes.init n (fun i -> Bytes.get b (n - 1 - i))

let test_fabric_echo () =
  let fabric =
    Transport.Proc.fork ~n:2 ~child:(fun ~id:_ chan ->
        let rec loop () =
          match Transport.Socket.recv chan with
          | kind, payload ->
              Transport.Socket.send chan ~kind (reverse_bytes payload);
              loop ()
          | exception Transport.Closed -> ()
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      (* One frame per child, echoed reversed, read back per child. *)
      Array.iteri
        (fun i payload ->
          let chan = (Transport.Proc.node fabric i).Transport.Proc.chan in
          Transport.Socket.send chan (Bytes.of_string payload);
          let kind, reply = Transport.Socket.recv chan in
          check_bool "data kind" true (kind = Protocol.Data);
          Alcotest.(check string)
            "reversed"
            (Bytes.to_string (reverse_bytes (Bytes.of_string payload)))
            (Bytes.to_string reply))
        [| "hello node zero"; "frames stay whole" |];
      (* Err frames keep their kind across the wire. *)
      let chan = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      Transport.Socket.send chan ~kind:Protocol.Err (Bytes.of_string "boom");
      let kind, reply = Transport.Socket.recv chan in
      check_bool "err kind" true (kind = Protocol.Err);
      Alcotest.(check string) "err payload" "moob" (Bytes.to_string reply))

(* An echo serve loop shared by the teardown/respawn regressions. *)
let echo_child ~id:_ chan =
  let rec loop () =
    match Transport.Socket.recv chan with
    | kind, payload ->
        Transport.Socket.send chan ~kind (reverse_bytes payload);
        loop ()
    | exception Transport.Closed -> ()
  in
  loop ()

(* Regression (satellite of the service PR): shutdown must be
   idempotent — calling it twice, e.g. once from a normal path and once
   from a [~finally], used to double-close fds and double-wait pids. *)
let test_double_shutdown () =
  let fabric = Transport.Proc.fork ~n:2 ~child:echo_child in
  Transport.Proc.shutdown ~grace:2.0 fabric;
  (* Second call must be a silent no-op, never an exception. *)
  Transport.Proc.shutdown ~grace:2.0 fabric;
  check_int "no nodes alive" 0 (List.length (Transport.Proc.alive_ids fabric))

(* Shutdown racing a child dying on its own: the child is SIGKILLed
   (possibly mid-frame) right before teardown; shutdown must absorb the
   EPIPE/ECHILD fallout instead of raising out of a [~finally]. *)
let test_shutdown_with_dying_child () =
  let fabric = Transport.Proc.fork ~n:3 ~child:echo_child in
  (* Kill one child and immediately shut down, without waiting for the
     EOF to surface: teardown and death race. *)
  Transport.Proc.kill fabric 1;
  Transport.Proc.shutdown ~grace:2.0 fabric;
  Transport.Proc.shutdown ~grace:2.0 fabric;
  check_int "fabric drained" 0 (List.length (Transport.Proc.alive_ids fabric))

(* Kill + respawn: the replacement child runs the same closure over a
   fresh channel and pid, and sibling channels keep working throughout. *)
let test_kill_respawn_echo () =
  let fabric = Transport.Proc.fork ~n:2 ~child:echo_child in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      let old_pid = Transport.Proc.pid fabric 0 in
      Transport.Proc.kill fabric 0;
      (* Observe the EOF so the node is marked dead. *)
      let rec await_eof () =
        match Transport.Proc.recv_any fabric ~timeout:1.0 with
        | `Eof 0 -> ()
        | `Eof _ | `Msg _ | `Wake -> await_eof ()
        | `Timeout | `No_nodes -> Alcotest.fail "no EOF after SIGKILL"
      in
      await_eof ();
      check_bool "node 0 dead" false (Transport.Proc.is_alive fabric 0);
      Transport.Proc.respawn fabric 0 ~child:echo_child;
      check_bool "node 0 alive again" true (Transport.Proc.is_alive fabric 0);
      check_bool "fresh incarnation" true
        (Transport.Proc.pid fabric 0 <> old_pid);
      (* The replacement serves... *)
      let chan0 = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      Transport.Socket.send chan0 (Bytes.of_string "abc");
      let _, r0 = Transport.Socket.recv chan0 in
      Alcotest.(check string) "respawned echoes" "cba" (Bytes.to_string r0);
      (* ...and the sibling was never disturbed. *)
      let chan1 = (Transport.Proc.node fabric 1).Transport.Proc.chan in
      Transport.Socket.send chan1 (Bytes.of_string "xyz");
      let _, r1 = Transport.Socket.recv chan1 in
      Alcotest.(check string) "sibling still serves" "zyx" (Bytes.to_string r1))

(* A frame header claiming a 4-byte payload of kind 255, which no kind
   has, followed by the 4 bytes. *)
let garbage_frame = Bytes.of_string "\000\000\000\004\255abcd"

(* A child that writes a malformed header is a dead node, not an
   exception out of the parent's select loop: its stream can never be
   resynchronised. *)
let test_bad_frame_is_eof () =
  let fabric =
    Transport.Proc.fork ~n:1 ~child:(fun ~id:_ chan ->
        Transport.Socket.write_all chan garbage_frame;
        (* Hold the channel open: the EOF must be the parent's verdict. *)
        try ignore (Transport.Socket.recv chan) with _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      (match Transport.Proc.recv_any fabric ~timeout:5.0 with
      | `Eof 0 -> ()
      | `Eof _ | `Msg _ | `Wake | `Timeout | `No_nodes ->
          Alcotest.fail "malformed frame not reported as the node's EOF");
      check_bool "node 0 dead" false (Transport.Proc.is_alive fabric 0))

(* Ping/Pong kinds cross the wire like any frame. *)
let test_ping_pong_frames () =
  let fabric = Transport.Proc.fork ~n:1 ~child:echo_child in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      let chan = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      Transport.Socket.send chan ~kind:Protocol.Ping (Bytes.of_string "hb");
      let kind, payload = Transport.Socket.recv chan in
      check_bool "ping kind preserved" true (kind = Protocol.Ping);
      Alcotest.(check string) "payload" "bh" (Bytes.to_string payload))

(* ------------------------------------------------------------------ *)
(* Cross-backend equivalence: identical results and identical payload
   accounting on the clean path.                                        *)

let run_sum topo =
  let xs = Float.Array.init 999 (fun i -> float_of_int i /. 7.0) in
  Cluster.run_topology topo
    ~scatter:(fun node ->
      let blocks = Partition.blocks ~parts:topo.Cluster.nodes 999 in
      let off, n = blocks.(node) in
      [ Payload.Floats (Float.Array.sub xs off n) ])
    ~work:(fun ~node:_ ~pool:_ payload ->
      match payload with
      | [ Payload.Floats a ] ->
          let acc = ref 0.0 in
          Float.Array.iter (fun x -> acc := !acc +. x) a;
          !acc
      | _ -> Alcotest.fail "bad payload")
    ~result_codec:Codec.float
    ~merge:( +. ) ~init:0.0

let test_clean_parity () =
  let mk backend =
    { Cluster.nodes = 3; cores_per_node = 2; backend }
  in
  let sum_in, rep_in = run_sum (mk Cluster.Inprocess) in
  let sum_pr, rep_pr = run_sum (mk Cluster.Process) in
  Alcotest.(check (float 1e-9)) "same sum" sum_in sum_pr;
  check_int "scatter bytes" rep_in.Cluster.scatter_bytes
    rep_pr.Cluster.scatter_bytes;
  check_int "gather bytes" rep_in.Cluster.gather_bytes
    rep_pr.Cluster.gather_bytes;
  check_int "scatter messages" rep_in.Cluster.scatter_messages
    rep_pr.Cluster.scatter_messages;
  check_int "gather messages" rep_in.Cluster.gather_messages
    rep_pr.Cluster.gather_messages;
  check_int "max message" rep_in.Cluster.max_message_bytes
    rep_pr.Cluster.max_message_bytes

let test_merge_order_process () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let order, _ =
    Cluster.run_topology topo
      ~scatter:(fun node -> [ Payload.Ints [| node |] ])
      ~work:(fun ~node:_ ~pool:_ payload ->
        match payload with [ Payload.Ints a ] -> a.(0) | _ -> -1)
      ~result_codec:Codec.int
      ~merge:(fun acc v -> acc @ [ v ])
      ~init:[]
  in
  Alcotest.(check (list int)) "worker order, not arrival order"
    [ 0; 1; 2 ] order

(* The four kernels produce identical results — and identical message
   and byte traffic — whichever transport carries the bytes. *)
let test_kernels_cross_backend () =
  let module D = Triolet_kernels.Dataset in
  let ctx backend =
    Triolet.Exec.make ~nodes:3 ~cores_per_node:2 ~backend ()
  in
  let ctx_in = ctx Cluster.Inprocess and ctx_pr = ctx Cluster.Process in
  let measured f =
    Stats.reset ();
    let r, d = Stats.measure f in
    (r, d.Stats.messages, d.Stats.bytes_sent)
  in
  let check_traffic name (m_in, b_in) (m_pr, b_pr) =
    check_int (name ^ " messages") m_in m_pr;
    check_int (name ^ " bytes") b_in b_pr
  in
  (let d = D.mriq ~seed:11 ~samples:48 ~voxels:96 in
   let r_in, m_in, b_in =
     measured (fun () -> Triolet_kernels.Mriq.run_triolet ~ctx:ctx_in d)
   in
   let r_pr, m_pr, b_pr =
     measured (fun () -> Triolet_kernels.Mriq.run_triolet ~ctx:ctx_pr d)
   in
   check_bool "mri-q agrees" true
     (Triolet_kernels.Mriq.agrees ~eps:0.0 r_in r_pr);
   check_traffic "mri-q" (m_in, b_in) (m_pr, b_pr));
  (let a, b = D.sgemm_matrices ~seed:21 ~m:18 ~k:12 ~n:14 in
   let r_in, m_in, b_in =
     measured (fun () -> Triolet_kernels.Sgemm.run_triolet ~ctx:ctx_in a b)
   in
   let r_pr, m_pr, b_pr =
     measured (fun () -> Triolet_kernels.Sgemm.run_triolet ~ctx:ctx_pr a b)
   in
   check_bool "sgemm agrees" true
     (Triolet_kernels.Sgemm.agrees ~eps:0.0 r_in r_pr);
   check_traffic "sgemm" (m_in, b_in) (m_pr, b_pr));
  (let d = D.tpacf ~seed:31 ~points:32 ~random_sets:3 in
   let r_in, m_in, b_in =
     measured (fun () ->
         Triolet_kernels.Tpacf.run_triolet ~ctx:ctx_in ~bins:12 d)
   in
   let r_pr, m_pr, b_pr =
     measured (fun () ->
         Triolet_kernels.Tpacf.run_triolet ~ctx:ctx_pr ~bins:12 d)
   in
   check_bool "tpacf agrees" true (Triolet_kernels.Tpacf.agrees r_in r_pr);
   check_traffic "tpacf" (m_in, b_in) (m_pr, b_pr));
  let d =
    D.cutcp ~seed:41 ~atoms:32 ~nx:8 ~ny:8 ~nz:8 ~spacing:0.5 ~cutoff:1.5
  in
  let r_in, m_in, b_in =
    measured (fun () -> Triolet_kernels.Cutcp.run_triolet ~ctx:ctx_in d)
  in
  let r_pr, m_pr, b_pr =
    measured (fun () -> Triolet_kernels.Cutcp.run_triolet ~ctx:ctx_pr d)
  in
  check_bool "cutcp agrees" true
    (Triolet_kernels.Cutcp.agrees ~eps:1e-9 r_in r_pr);
  check_traffic "cutcp" (m_in, b_in) (m_pr, b_pr)

(* ------------------------------------------------------------------ *)
(* Fault path over real processes.                                      *)

(* A child SIGKILLed from outside mid-task is indistinguishable from an
   injected crash: the parent sees EOF, marks the node dead, and
   re-executes its slice on a survivor. *)
let test_external_kill_recovered () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let faults = Fault.spec ~seed:1 ~base_timeout:0.05 ~max_timeout:0.5 () in
  let result, report =
    Cluster.run_topology ~faults topo
      ~scatter:(fun node -> [ Payload.Ints [| node + 1 |] ])
      ~work:(fun ~node ~pool:_ payload ->
        (* Only the process that *is* node 1 dies; the survivor that
           re-executes node 1's slice reports a different [on_node]. *)
        if node = 1 && Cluster.on_node () = Some 1 then
          Unix.kill (Unix.getpid ()) Sys.sigkill;
        match payload with [ Payload.Ints a ] -> a.(0) * 10 | _ -> -1)
      ~result_codec:Codec.int
      ~merge:( + ) ~init:0
  in
  check_int "all three slices" 60 result;
  check_int "one crash survived" 1 report.Cluster.crashed_nodes;
  check_bool "at least one retry" true (report.Cluster.retries >= 1)

(* Without any fault plan, a SIGKILLed child is still recovered: its EOF
   is the engine's one death rule, which re-issues the slice on a
   survivor. *)
let test_clean_kill_recovered () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let result, report =
    Cluster.run_topology topo
      ~scatter:(fun node -> [ Payload.Ints [| node + 1 |] ])
      ~work:(fun ~node ~pool:_ payload ->
        if node = 1 && Cluster.on_node () = Some 1 then
          Unix.kill (Unix.getpid ()) Sys.sigkill;
        match payload with [ Payload.Ints a ] -> a.(0) * 10 | _ -> -1)
      ~result_codec:Codec.int
      ~merge:( + ) ~init:0
  in
  check_int "all three slices" 60 result;
  check_int "one death survived" 1 report.Cluster.crashed_nodes;
  check_int "one re-issue" 1 report.Cluster.retries

(* Link noise (drops, duplicates, corruption, delays) injected over the
   socket transport: corrupt frames are rejected by the checksummed
   envelope, everything is recovered, and the merged result is exact. *)
let test_noisy_faults_recovered () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let faults =
    Fault.spec ~seed:5 ~drop:0.4 ~duplicate:0.4 ~corrupt:0.4 ~delay:0.4
      ~base_timeout:0.1 ~max_timeout:1.0 ()
  in
  let result, report =
    Cluster.run_topology ~faults topo
      ~scatter:(fun node -> [ Payload.Ints [| node |] ])
      ~work:(fun ~node:_ ~pool:_ payload ->
        match payload with [ Payload.Ints a ] -> a.(0) + 100 | _ -> -1)
      ~result_codec:Codec.int
      ~merge:( + ) ~init:0
  in
  check_int "exact result under noise" 303 result;
  check_bool "faults fired" true (report.Cluster.faults_injected > 0)

(* The forked node's channel back to the parent: the one socket the
   fabric leaves open in a child. *)
let own_channel () =
  List.init 1021 (fun i -> (Obj.magic (i + 3) : Unix.file_descr))
  |> List.filter (fun fd ->
         match Unix.fstat fd with
         | { Unix.st_kind = Unix.S_SOCK; _ } -> true
         | _ -> false
         | exception Unix.Unix_error _ -> false)
  |> function
  | [ fd ] -> Transport.Socket.of_fd fd
  | fds -> failwith (Printf.sprintf "expected one socket in the child, found %d" (List.length fds))

(* A node whose first reply is garbage on the wire is recovered like a
   crash: the parent closes the desynchronised channel, marks the node
   dead, and re-issues its slice on a survivor. *)
let test_garbage_reply_recovered () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let result, report =
    Cluster.run_topology topo
      ~scatter:(fun node -> [ Payload.Ints [| node + 1 |] ])
      ~work:(fun ~node ~pool:_ payload ->
        if node = 1 && Cluster.on_node () = Some 1 then
          Transport.Socket.write_all (own_channel ()) garbage_frame;
        match payload with [ Payload.Ints a ] -> a.(0) * 10 | _ -> -1)
      ~result_codec:Codec.int
      ~merge:( + ) ~init:0
  in
  check_int "all three slices" 60 result;
  check_int "one death survived" 1 report.Cluster.crashed_nodes;
  check_int "one re-issue" 1 report.Cluster.retries

(* ------------------------------------------------------------------ *)
(* Backend naming.                                                      *)

let test_backend_strings () =
  List.iter
    (fun b ->
      Alcotest.(check (option string))
        "round-trip" (Some (Cluster.backend_to_string b))
        (Option.map Cluster.backend_to_string
           (Cluster.backend_of_string (Cluster.backend_to_string b))))
    [ Cluster.Inprocess; Cluster.Flat; Cluster.Process ];
  check_bool "unknown rejected" true
    (Cluster.backend_of_string "carrier-pigeon" = None)

(* ------------------------------------------------------------------ *)
(* Socket transport conformance.  Blocking peers run in threads, not
   domains, so the fork-dependent timeout case can sit among them.      *)

module Socket = Transport.Socket

let test_echo () =
  let a, b = Socket.connect () in
  Socket.send a (Bytes.of_string "ping");
  let kind, payload = Socket.recv b in
  check_bool "data kind" true (kind = Protocol.Data);
  Alcotest.(check string) "payload" "ping" (Bytes.to_string payload);
  Socket.send b (Bytes.of_string "pong");
  let _, reply = Socket.recv a in
  Alcotest.(check string) "reply" "pong" (Bytes.to_string reply);
  (* Empty frames are legal and keep their boundary. *)
  Socket.send a Bytes.empty;
  let kind, payload = Socket.recv b in
  check_bool "empty frame kind" true (kind = Protocol.Data);
  check_int "empty frame" 0 (Bytes.length payload);
  Socket.close a;
  Socket.close b

let test_order_and_kinds () =
  let a, b = Socket.connect () in
  Socket.send a ~kind:Protocol.Data (Bytes.of_string "1");
  Socket.send a ~kind:Protocol.Err (Bytes.of_string "2");
  Socket.send a ~kind:Protocol.Nack (Bytes.of_string "3");
  let frames = List.init 3 (fun _ -> Socket.recv b) in
  Alcotest.(check (list string))
    "fifo order" [ "1"; "2"; "3" ]
    (List.map (fun (_, p) -> Bytes.to_string p) frames);
  check_bool "kinds preserved" true
    (List.map fst frames = [ Protocol.Data; Protocol.Err; Protocol.Nack ]);
  Socket.close a;
  Socket.close b

(* A 1 MiB frame arrives whole and intact — larger than any socket
   buffer, so framing must reassemble partial reads.  The receiver runs
   in its own thread so the blocking sender cannot deadlock against it. *)
let test_large_payload () =
  let n = 1 lsl 20 in
  let payload = Bytes.init n (fun i -> Char.chr (i * 131 land 0xff)) in
  let a, b = Socket.connect () in
  let got = ref None in
  let receiver = Thread.create (fun () -> got := Some (Socket.recv b)) () in
  Socket.send a payload;
  Thread.join receiver;
  match !got with
  | None -> Alcotest.fail "no frame"
  | Some (kind, got) ->
      check_bool "data kind" true (kind = Protocol.Data);
      check_int "length" n (Bytes.length got);
      check_bool "intact" true (Bytes.equal payload got);
      Socket.close a;
      Socket.close b

(* The fabric's receive times out on a live but silent child, after at
   least the timeout on the monotonic clock. *)
let test_timeout () =
  let fabric = Transport.Proc.fork ~n:1 ~child:echo_child in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      let t0 = Clock.monotonic_ns () in
      (match Transport.Proc.recv_any fabric ~timeout:0.02 with
      | `Timeout -> ()
      | `Msg _ -> Alcotest.fail "phantom frame"
      | `Eof _ | `No_nodes -> Alcotest.fail "phantom close"
      | `Wake -> Alcotest.fail "phantom wake");
      let waited = float_of_int (Clock.monotonic_ns () - t0) /. 1e9 in
      check_bool "waited at least the timeout" true (waited >= 0.019);
      check_bool "still alive" true (Transport.Proc.is_alive fabric 0))

(* The checksummed envelope rides on top of the transport: a frame
   corrupted in flight is rejected on decode, never decoded as garbage;
   the intact frame around it still decodes exactly. *)
let test_checksummed_corruption_rejected () =
  let codec = Codec.checksummed Codec.float in
  let a, b = Socket.connect () in
  let good = Codec.to_bytes codec 216.45 in
  let evil = Bytes.copy good in
  let i = Bytes.length evil - 3 in
  Bytes.set evil i (Char.chr (Char.code (Bytes.get evil i) lxor 0x5a));
  Socket.send a evil;
  Socket.send a good;
  let _, frame1 = Socket.recv b in
  check_bool "corrupt frame rejected" true
    (match Codec.of_bytes codec frame1 with
    | _ -> false
    | exception Codec.Checksum_mismatch _ -> true
    | exception Codec.Trailing_bytes _ -> true);
  let _, frame2 = Socket.recv b in
  Alcotest.(check (float 0.0))
    "intact frame decodes" 216.45
    (Codec.of_bytes codec frame2);
  Socket.close a;
  Socket.close b

(* Closing one endpoint wakes a peer blocked on the other. *)
let test_close_wakes_blocked_peer () =
  let a, b = Socket.connect () in
  let outcome = ref `Pending in
  let blocked =
    Thread.create
      (fun () ->
        outcome :=
          match Socket.recv b with
          | _ -> `Got_frame
          | exception Transport.Closed -> `Closed)
      ()
  in
  Unix.sleepf 0.02;
  Socket.close a;
  Thread.join blocked;
  Socket.close b;
  check_bool "woke with Closed" true (!outcome = `Closed)

(* ------------------------------------------------------------------ *)
(* Fail-fast guard: once domains have been spawned, the process backend
   must refuse to fork with a clear explanation rather than die inside
   [Unix.fork].                                                         *)

let test_process_after_domains_fails () =
  (* Spawn (and immediately retire) a real worker pool: the fork ban is
     permanent, so even a shut-down pool poisons the process backend. *)
  let p = Pool.create ~workers:2 () in
  Pool.shutdown p;
  check_bool "domains were spawned" true (Pool.domains_ever_spawned ());
  match
    Cluster.run_topology
      { Cluster.nodes = 2; cores_per_node = 1; backend = Cluster.Process }
      ~scatter:(fun _ -> Payload.empty)
      ~work:(fun ~node:_ ~pool:_ _ -> ())
      ~result_codec:Codec.unit
      ~merge:(fun () () -> ())
      ~init:()
  with
  | _ -> Alcotest.fail "process backend forked after domains were spawned"
  | exception Failure msg ->
      check_bool "explains the fork restriction" true
        (String.length msg > 0
        && String.sub msg 0 7 = "Cluster")

let () =
  Alcotest.run "transport"
    [
      (* fork-dependent suites first: see the header comment *)
      ( "process-fabric",
        [
          Alcotest.test_case "echo children" `Quick test_fabric_echo;
          Alcotest.test_case "double shutdown is idempotent" `Quick
            test_double_shutdown;
          Alcotest.test_case "shutdown races dying child" `Quick
            test_shutdown_with_dying_child;
          Alcotest.test_case "kill and respawn" `Quick test_kill_respawn_echo;
          Alcotest.test_case "ping/pong frames" `Quick test_ping_pong_frames;
        ] );
      ( "cross-backend",
        [
          Alcotest.test_case "clean accounting parity" `Quick
            test_clean_parity;
          Alcotest.test_case "merge order over processes" `Quick
            test_merge_order_process;
          Alcotest.test_case "kernels identical" `Slow
            test_kernels_cross_backend;
        ] );
      ( "process-faults",
        [
          Alcotest.test_case "external kill recovered" `Quick
            test_external_kill_recovered;
          Alcotest.test_case "kill without a fault plan recovered" `Quick
            test_clean_kill_recovered;
          Alcotest.test_case "noisy links recovered" `Quick
            test_noisy_faults_recovered;
        ] );
      ( "bad-frame-recovered",
        [
          Alcotest.test_case "fabric reports the node's EOF" `Quick
            test_bad_frame_is_eof;
          Alcotest.test_case "cluster re-issues the slice" `Quick
            test_garbage_reply_recovered;
        ] );
      ( "backend-api",
        [
          Alcotest.test_case "backend strings" `Quick test_backend_strings;
        ] );
      ( "conformance-socket",
        [
          Alcotest.test_case "socket echo" `Quick test_echo;
          Alcotest.test_case "socket order and kinds" `Quick test_order_and_kinds;
          Alcotest.test_case "socket 1MiB frame" `Quick test_large_payload;
          Alcotest.test_case "socket timeout" `Quick test_timeout;
          Alcotest.test_case "socket corruption rejected" `Quick
            test_checksummed_corruption_rejected;
          Alcotest.test_case "socket close wakes peer" `Quick
            test_close_wakes_blocked_peer;
        ] );
      ( "fork-guard",
        [
          Alcotest.test_case "process after domains fails" `Quick
            test_process_after_domains_fails;
        ] );
    ]
