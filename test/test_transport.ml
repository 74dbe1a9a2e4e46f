(* Transport layer tests: the process fabric and the socket frame
   transport.

   ORDER MATTERS.  The process backend forks, and OCaml forbids [fork]
   once any domain has ever been spawned.  Every suite before the last
   uses threads at most; the final suite checks the fail-fast guard the
   other way around: once domains exist, a process call that must fork
   raises a clear [Failure] instead of a cryptic fork error, while a
   topology whose warm children are all alive keeps serving. *)

open Triolet_runtime
module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec

(* Keep the parent single-domain so forking stays possible: the default
   pool must never spawn a worker domain in this process. *)
let () = Pool.set_default_width 1

let check_int = Alcotest.(check int)

(* Frames as these tests write and read them: bytes copied into a frame
   with the header's room, and copied out of the link's buffer. *)
let send chan ?kind b = Transport.Socket.send chan ?kind (Protocol.of_bytes b)

let recv chan =
  let kind, f = Transport.Socket.recv chan in
  (kind, Protocol.to_bytes f)
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
          match recv chan with
          | kind, payload ->
              send chan ~kind (reverse_bytes payload);
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
          send chan (Bytes.of_string payload);
          let kind, reply = recv chan in
          check_bool "data kind" true (kind = Protocol.Data);
          Alcotest.(check string)
            "reversed"
            (Bytes.to_string (reverse_bytes (Bytes.of_string payload)))
            (Bytes.to_string reply))
        [| "hello node zero"; "frames stay whole" |];
      (* Err frames keep their kind across the wire. *)
      let chan = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      send chan ~kind:Protocol.Err (Bytes.of_string "boom");
      let kind, reply = recv chan in
      check_bool "err kind" true (kind = Protocol.Err);
      Alcotest.(check string) "err payload" "moob" (Bytes.to_string reply))

(* An echo serve loop shared by the teardown/respawn regressions. *)
let echo_child ~id:_ chan =
  let rec loop () =
    match recv chan with
    | kind, payload ->
        send chan ~kind (reverse_bytes payload);
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
      send chan0 (Bytes.of_string "abc");
      let _, r0 = recv chan0 in
      Alcotest.(check string) "respawned echoes" "cba" (Bytes.to_string r0);
      (* ...and the sibling was never disturbed. *)
      let chan1 = (Transport.Proc.node fabric 1).Transport.Proc.chan in
      send chan1 (Bytes.of_string "xyz");
      let _, r1 = recv chan1 in
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
        try ignore (recv chan) with _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      (match Transport.Proc.recv_any fabric ~timeout:5.0 with
      | `Eof 0 -> ()
      | `Eof _ | `Msg _ | `Wake | `Timeout | `No_nodes ->
          Alcotest.fail "malformed frame not reported as the node's EOF");
      check_bool "node 0 dead" false (Transport.Proc.is_alive fabric 0))

(* The open sockets among this process's descriptors. *)
let sockets () =
  List.init 1021 (fun i -> (Obj.magic (i + 3) : Unix.file_descr))
  |> List.filter (fun fd ->
         match Unix.fstat fd with
         | { Unix.st_kind = Unix.S_SOCK; _ } -> true
         | _ -> false
         | exception Unix.Unix_error _ -> false)

(* The forked node's channel back to the parent: the one socket the
   fabric leaves open in a child. *)
let own_channel () =
  match sockets () with
  | [ fd ] -> Transport.Socket.of_fd fd
  | fds -> failwith (Printf.sprintf "expected one socket in the child, found %d" (List.length fds))

(* A child forked while another fabric is up holds none of that
   fabric's parent ends: it finds its own channel only, and the first
   fabric's children see EOF at once when it shuts down, instead of
   waiting out the grace period and a SIGKILL. *)
let test_second_fabric_isolated () =
  let first = Transport.Proc.fork ~n:2 ~child:echo_child in
  let second =
    Transport.Proc.fork ~n:2 ~child:(fun ~id:_ chan ->
        let n = List.length (sockets ()) in
        send chan (Bytes.of_string (string_of_int n));
        echo_child ~id:0 chan)
  in
  Fun.protect
    ~finally:(fun () ->
      Transport.Proc.shutdown ~grace:2.0 first;
      Transport.Proc.shutdown ~grace:2.0 second)
    (fun () ->
      for i = 0 to 1 do
        let _, n = recv (Transport.Proc.node second i).Transport.Proc.chan in
        Alcotest.(check string) "one socket in the child" "1" (Bytes.to_string n)
      done;
      let t0 = Clock.monotonic_ns () in
      Transport.Proc.shutdown ~grace:2.0 first;
      let took = float_of_int (Clock.monotonic_ns () - t0) /. 1e9 in
      check_bool (Printf.sprintf "closed in %.3f s, well under the 2 s grace" took) true (took < 0.5))

(* Ping/Pong kinds cross the wire like any frame. *)
let test_ping_pong_frames () =
  let fabric = Transport.Proc.fork ~n:1 ~child:echo_child in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      let chan = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      send chan ~kind:Protocol.Ping (Bytes.of_string "hb");
      let kind, payload = recv chan in
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
    rep_pr.Cluster.max_message_bytes;
  check_int "no code in-process" 0 rep_in.Cluster.code_bytes;
  check_bool "code over processes" true (rep_pr.Cluster.code_bytes > 0)

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
    (r, (d.Stats.messages, d.Stats.bytes_sent, d.Stats.code_bytes))
  in
  (* Code bytes are not payload: some over processes, none in-process,
     and the payload traffic is the same either way. *)
  let check_traffic name (m_in, b_in, c_in) (m_pr, b_pr, c_pr) =
    check_int (name ^ " messages") m_in m_pr;
    check_int (name ^ " bytes") b_in b_pr;
    check_int (name ^ " no code in-process") 0 c_in;
    check_bool (name ^ " code over processes") true (c_pr > 0)
  in
  (let d = D.mriq ~seed:11 ~samples:48 ~voxels:96 in
   let r_in, t_in =
     measured (fun () -> Triolet_kernels.Mriq.run_triolet ~ctx:ctx_in d)
   in
   let r_pr, t_pr =
     measured (fun () -> Triolet_kernels.Mriq.run_triolet ~ctx:ctx_pr d)
   in
   check_bool "mri-q agrees" true
     (Triolet_kernels.Mriq.agrees ~eps:0.0 r_in r_pr);
   check_traffic "mri-q" t_in t_pr);
  (let a, b = D.sgemm_matrices ~seed:21 ~m:18 ~k:12 ~n:14 in
   let r_in, t_in =
     measured (fun () -> Triolet_kernels.Sgemm.run_triolet ~ctx:ctx_in a b)
   in
   let r_pr, t_pr =
     measured (fun () -> Triolet_kernels.Sgemm.run_triolet ~ctx:ctx_pr a b)
   in
   check_bool "sgemm agrees" true
     (Triolet_kernels.Sgemm.agrees ~eps:0.0 r_in r_pr);
   check_traffic "sgemm" t_in t_pr);
  (let d = D.tpacf ~seed:31 ~points:32 ~random_sets:3 in
   let r_in, t_in =
     measured (fun () ->
         Triolet_kernels.Tpacf.run_triolet ~ctx:ctx_in ~bins:12 d)
   in
   let r_pr, t_pr =
     measured (fun () ->
         Triolet_kernels.Tpacf.run_triolet ~ctx:ctx_pr ~bins:12 d)
   in
   check_bool "tpacf agrees" true (Triolet_kernels.Tpacf.agrees r_in r_pr);
   check_traffic "tpacf" t_in t_pr);
  let d =
    D.cutcp ~seed:41 ~atoms:32 ~nx:8 ~ny:8 ~nz:8 ~spacing:0.5 ~cutoff:1.5
  in
  let r_in, t_in =
    measured (fun () -> Triolet_kernels.Cutcp.run_triolet ~ctx:ctx_in d)
  in
  let r_pr, t_pr =
    measured (fun () -> Triolet_kernels.Cutcp.run_triolet ~ctx:ctx_pr d)
  in
  check_bool "cutcp agrees" true
    (Triolet_kernels.Cutcp.agrees ~eps:1e-9 r_in r_pr);
  check_traffic "cutcp" t_in t_pr

(* ------------------------------------------------------------------ *)
(* The warm fabric: each process topology forks once; every call after
   the first is a job on the same children, its code shipped as closure
   bytes.  Each case runs over processes, then in-process.              *)

let warm_topo backend = { Cluster.nodes = 2; cores_per_node = 1; backend }

(* Each node's result, in worker order. *)
let per_node topo ~work =
  fst
    (Cluster.run_topology topo
       ~scatter:(fun _ -> Payload.empty)
       ~work:(fun ~node ~pool:_ _ -> work node)
       ~result_codec:Codec.int
       ~merge:(fun acc v -> acc @ [ v ])
       ~init:[])

let on_both f () = List.iter f [ Cluster.Process; Cluster.Inprocess ]

let test_warm_same_pids =
  on_both (fun backend ->
      let topo = warm_topo backend in
      let calls = List.init 5 (fun _ -> per_node topo ~work:(fun _ -> Unix.getpid ())) in
      let first = List.hd calls in
      List.iter (fun pids -> Alcotest.(check (list int)) "the same pids every call" first pids) calls;
      match backend with
      | Cluster.Process ->
          check_bool "children, not the parent" true
            (List.for_all (fun p -> p <> Unix.getpid ()) first);
          check_int "one child per node" 2 (List.length (List.sort_uniq compare first))
      | Cluster.Inprocess | Cluster.Flat ->
          check_bool "inline in the parent" true (List.for_all (( = ) (Unix.getpid ())) first))

(* A node SIGKILLed in one call is respawned before the next, which
   reports no death.  Only a process node can die: inline nodes never
   match the victim. *)
let test_warm_killed_node_back =
  on_both (fun backend ->
      let topo = warm_topo backend in
      let pids = per_node topo ~work:(fun _ -> Unix.getpid ()) in
      let victim = List.nth pids 1 in
      let run_call () =
        Cluster.run_topology topo
          ~scatter:(fun node -> [ Payload.Ints [| node + 1 |] ])
          ~work:(fun ~node:_ ~pool:_ payload ->
            if Cluster.on_node () <> None && Unix.getpid () = victim then
              Unix.kill (Unix.getpid ()) Sys.sigkill;
            match payload with [ Payload.Ints a ] -> a.(0) * 10 | _ -> -1)
          ~result_codec:Codec.int ~merge:( + ) ~init:0
      in
      let r_kill, rep_kill = run_call () in
      check_int "call k: both slices" 30 r_kill;
      check_int "call k: the death"
        (if backend = Cluster.Process then 1 else 0)
        rep_kill.Cluster.crashed_nodes;
      let r_next, rep_next = run_call () in
      check_int "call k+1: both slices" 30 r_next;
      check_int "call k+1: no death" 0 rep_next.Cluster.crashed_nodes;
      check_int "call k+1: no re-issue" 0 rep_next.Cluster.retries;
      let after = per_node topo ~work:(fun _ -> Unix.getpid ()) in
      check_int "node 0 kept its process" (List.hd pids) (List.hd after);
      check_bool "node 1 back"
        (backend = Cluster.Process)
        (List.nth after 1 <> victim))

(* State a closure captures starts from the caller's value on every call:
   a child's mutation in one job never reaches the next. *)
let test_warm_captured_ref =
  on_both (fun backend ->
      let topo = warm_topo backend in
      let r = ref 7 in
      for _ = 1 to 3 do
        let before = !r in
        let seen =
          per_node topo ~work:(fun _ ->
              let v = !r in
              r := v + 100;
              v)
        in
        check_int "node 0 sees the caller's value" before (List.hd seen);
        if backend = Cluster.Process then begin
          Alcotest.(check (list int)) "every node sees it" [ before; before ] seen;
          check_int "the caller's ref is untouched" before !r
        end
      done)

(* A job that returns an [Error] (its work raised) keeps the warm
   session; one the shell raised out of (a reply its codec cannot
   decode) is retired, and the next call forks anew. *)
let test_warm_retired_on_raise () =
  let topo = warm_topo Cluster.Process in
  let pids () = per_node topo ~work:(fun _ -> Unix.getpid ()) in
  let before = pids () in
  (match per_node topo ~work:(fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "work raised"
  | exception Failure _ -> ());
  Alcotest.(check (list int)) "an Error keeps the session" before (pids ());
  let undecodable = { Codec.int with decode = (fun _ -> failwith "undecodable") } in
  (match
     Cluster.run_topology topo
       ~scatter:(fun _ -> Payload.empty)
       ~work:(fun ~node:_ ~pool:_ _ -> 0)
       ~result_codec:undecodable ~merge:(fun () _ -> ()) ~init:()
   with
  | _ -> Alcotest.fail "an undecodable reply decoded"
  | exception Failure _ -> ());
  let after = pids () in
  check_bool "a raise retires it: new children" true
    (List.for_all (fun p -> not (List.mem p before)) after)

(* An iterator pipeline's task code carries no source data: the arrays
   reach the nodes as their block payloads only, not again inside the
   closure bytes. *)
let test_code_carries_no_source () =
  let ctx = Triolet.Exec.make ~nodes:2 ~cores_per_node:1 ~backend:Cluster.Process () in
  let xs = Float.Array.make 100_000 1.0 and ys = Float.Array.make 100_000 2.0 in
  let dot, d =
    Stats.measure (fun () ->
        Triolet.Iter.(sum ~ctx (map (fun (x, y) -> x *. y) (zip (par (of_floatarray xs)) (of_floatarray ys)))))
  in
  Alcotest.(check (float 0.0)) "dot" 200_000.0 dot;
  check_bool
    (Printf.sprintf "%d code bytes against %d payload bytes" d.Stats.code_bytes d.Stats.bytes_sent)
    true
    (d.Stats.code_bytes > 0 && d.Stats.code_bytes * 100 < d.Stats.bytes_sent)

(* mri-q's, tpacf's and cutcp's task code carries no array that
   already ships as payload: the voxel arrays, the random sets and the
   atoms reach the nodes as block payloads, not again inside the [Code]
   frames. *)
let test_kernel_code_carries_no_payload () =
  let module D = Triolet_kernels.Dataset in
  let ctx = Triolet.Exec.make ~nodes:2 ~cores_per_node:1 ~backend:Cluster.Process () in
  let code_bytes f = (snd (Stats.measure f)).Stats.code_bytes in
  let d = D.mriq ~seed:12 ~samples:32 ~voxels:4096 in
  let voxel_bytes = 8 * Float.Array.length d.D.x in
  let c = code_bytes (fun () -> ignore (Triolet_kernels.Mriq.run_triolet ~ctx d)) in
  check_bool
    (Printf.sprintf "mri-q: %d code bytes, under one voxel array's %d" c voxel_bytes)
    true (c > 0 && c < voxel_bytes);
  let d = D.tpacf ~seed:32 ~points:512 ~random_sets:4 in
  let sets_bytes = Array.fold_left (fun n r -> n + (24 * D.catalog_size r)) 0 d.D.randoms in
  let c = code_bytes (fun () -> ignore (Triolet_kernels.Tpacf.run_triolet ~ctx ~bins:12 d)) in
  check_bool
    (Printf.sprintf "tpacf: %d code bytes, under the random sets' %d" c sets_bytes)
    true (c > 0 && c < sets_bytes);
  let d = D.cutcp ~seed:52 ~atoms:2000 ~nx:16 ~ny:16 ~nz:16 ~spacing:0.5 ~cutoff:1.5 in
  let grid, m = Stats.measure (fun () -> Triolet_kernels.Cutcp.run_triolet ~ctx d) in
  let c = m.Stats.code_bytes in
  check_bool (Printf.sprintf "cutcp: %d code bytes, under 8 KB" c) true (c > 0 && c < 8192);
  check_bool "cutcp agrees with run_c" true
    (Triolet_kernels.Cutcp.agrees (Triolet_kernels.Cutcp.run_c d) grid)

(* Task code that cannot cross is refused in the parent, before any
   frame: a closure over a mutex, and one over more than a frame holds
   (a gigabyte never written, so never resident). *)
let test_unshippable_task () =
  let topo = warm_topo Cluster.Process in
  let refused name work =
    let outcome, d =
      Stats.measure (fun () ->
          match per_node topo ~work with
          | _ -> `Ran
          | exception Cluster.Unshippable_task _ -> `Refused)
    in
    check_bool (name ^ " refused") true (outcome = `Refused);
    check_int (name ^ ": no frame sent") 0 (d.Stats.messages + d.Stats.code_bytes)
  in
  let m = Mutex.create () in
  refused "a mutex" (fun _ -> Mutex.protect m (fun () -> 1));
  let big = Bytes.create (Protocol.max_frame_payload + 1) in
  refused "an over-frame closure" (fun _ -> Bytes.length big);
  Alcotest.(check (list int)) "the topology still serves" [ 1; 1 ] (per_node topo ~work:(fun _ -> 1))

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

(* Frames that outlive the link buffer they were read into.  Six slices
   run on two nodes, three replies per link, slice [i]'s reply [i + 1]
   floats long.  Seeded plans delay or duplicate the task frames, or the
   replies.  A delayed reply waits on the engine's late queue while the
   link's next reply is read into the same buffer, so one kept as a view
   of that buffer would read another reply's bytes under its own length
   and fail its checksum.  Every plan gives the fault-free result, with
   no frame dropped as corrupt. *)
let test_frames_outlive_link_buffer () =
  let slices = 6 in
  let expected = List.init slices (fun i -> Float.Array.make (i + 1) (float_of_int i)) in
  let run name faults_of =
    let faults =
      Fault.make (Fault.spec ~seed:11 ~faults_of ~base_timeout:0.05 ~max_timeout:0.2 ())
    in
    let cfg =
      {
        Dispatch.nodes = 2;
        policy = { max_attempts = 8; timeout = Some (50_000_000, 200_000_000) };
        supervision = None;
      }
    in
    let s = Dispatch.lease ~faults ~span:"test" ~cores:1 cfg in
    let result, report =
      Fun.protect
        ~finally:(fun () -> Dispatch.close s)
        (fun () ->
          Dispatch.load s ~result:Codec.floatarray ~work:(fun ~node:_ ~pool:_ ~slice ~resident:_ _ ->
              Float.Array.make (slice + 1) (float_of_int slice));
          Dispatch.run_job s ~slices ~arg:(fun i -> [ Payload.Ints [| i |] ]) ~result:Codec.floatarray ())
    in
    (match result with
    | Ok r ->
        check_bool (name ^ ": fault-free result") true
          (List.for_all2 (fun x y -> Float.Array.to_list x = Float.Array.to_list y) expected (Array.to_list r))
    | Error _ -> Alcotest.fail (name ^ ": the job failed"));
    check_bool (name ^ ": faults fired") true (report.Dispatch.faults_injected > 0);
    check_int (name ^ ": no frame dropped as corrupt") 0 report.Dispatch.corrupt_drops
  in
  let on_tasks f = function Fault.To_node _ -> f | Fault.From_node _ -> Fault.no_faults in
  let on_replies f = function Fault.To_node _ -> Fault.no_faults | Fault.From_node _ -> f in
  let delay = { Fault.no_faults with delay = 0.5 } in
  let duplicate = { Fault.no_faults with duplicate = 0.5 } in
  run "delayed tasks" (on_tasks delay);
  run "duplicated tasks" (on_tasks duplicate);
  run "delayed replies" (on_replies delay);
  run "duplicated replies" (on_replies duplicate)

(* A steady-state sgemm call over two process nodes allocates no
   major-heap frame buffers in the parent.  What it does allocate there
   is B's transpose, the two task frames, the two decoded replies and
   the product: about six times the product's words.  Copying each row
   block out of its matrix, each frame again to put a header before it,
   and each reply into a fresh buffer of its own came to about
   thirteen. *)
let test_sgemm_call_major_words () =
  let n = 256 in
  let a, b = Triolet_kernels.Dataset.sgemm_matrices ~seed:9 ~m:n ~k:n ~n in
  let ctx = Triolet.Exec.make ~nodes:2 ~cores_per_node:1 ~backend:Cluster.Process () in
  let call () = ignore (Triolet_kernels.Sgemm.run_triolet ~ctx a b) in
  call ();
  call ();
  let calls = 4 in
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to calls do
    call ()
  done;
  let per_call = ((Gc.quick_stat ()).Gc.major_words -. w0) /. float_of_int calls in
  let bound = 8.0 *. float_of_int (n * n) in
  check_bool
    (Printf.sprintf "%.0f major words per call, under %.0f" per_call bound)
    true (per_call < bound)

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
  send a (Bytes.of_string "ping");
  let kind, payload = recv b in
  check_bool "data kind" true (kind = Protocol.Data);
  Alcotest.(check string) "payload" "ping" (Bytes.to_string payload);
  send b (Bytes.of_string "pong");
  let _, reply = recv a in
  Alcotest.(check string) "reply" "pong" (Bytes.to_string reply);
  (* Empty frames are legal and keep their boundary. *)
  send a Bytes.empty;
  let kind, payload = recv b in
  check_bool "empty frame kind" true (kind = Protocol.Data);
  check_int "empty frame" 0 (Bytes.length payload);
  Socket.close a;
  Socket.close b

let test_order_and_kinds () =
  let a, b = Socket.connect () in
  send a ~kind:Protocol.Data (Bytes.of_string "1");
  send a ~kind:Protocol.Err (Bytes.of_string "2");
  send a ~kind:Protocol.Nack (Bytes.of_string "3");
  let frames = List.init 3 (fun _ -> recv b) in
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
  let receiver = Thread.create (fun () -> got := Some (recv b)) () in
  send a payload;
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
  send a evil;
  send a good;
  let _, frame1 = recv b in
  check_bool "corrupt frame rejected" true
    (match Codec.of_bytes codec frame1 with
    | _ -> false
    | exception Codec.Checksum_mismatch _ -> true
    | exception Codec.Trailing_bytes _ -> true);
  let _, frame2 = recv b in
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
          match recv b with
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

let spawn_domains () =
  (* Spawn (and immediately retire) a real worker pool: the fork ban is
     permanent, so even a shut-down pool poisons forking. *)
  let p = Pool.create ~workers:2 () in
  Pool.shutdown p;
  check_bool "domains were spawned" true (Pool.domains_ever_spawned ())

let unit_call topo =
  Cluster.run_topology topo
    ~scatter:(fun _ -> Payload.empty)
    ~work:(fun ~node:_ ~pool:_ _ -> ())
    ~result_codec:Codec.unit
    ~merge:(fun () () -> ())
    ~init:()

(* A topology warmed before the first domain forks nothing later, so it
   keeps serving once domains exist. *)
let test_warm_after_domains () =
  let topo = { Cluster.nodes = 4; cores_per_node = 1; backend = Cluster.Process } in
  let pids () = per_node topo ~work:(fun _ -> Unix.getpid ()) in
  let before = pids () in
  spawn_domains ();
  Alcotest.(check (list int)) "same children" before (pids ())

(* A topology no earlier test uses: its first call must fork. *)
let test_process_after_domains_fails () =
  spawn_domains ();
  match unit_call { Cluster.nodes = 5; cores_per_node = 1; backend = Cluster.Process } with
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
          Alcotest.test_case "second fabric isolated" `Quick test_second_fabric_isolated;
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
      ( "warm-fabric",
        [
          Alcotest.test_case "same pids every call" `Quick test_warm_same_pids;
          Alcotest.test_case "killed node back next call" `Quick test_warm_killed_node_back;
          Alcotest.test_case "captured state from the caller" `Quick test_warm_captured_ref;
          Alcotest.test_case "retired only when the shell raised" `Quick test_warm_retired_on_raise;
          Alcotest.test_case "code carries no source data" `Quick test_code_carries_no_source;
          Alcotest.test_case "kernel code carries no payload" `Quick
            test_kernel_code_carries_no_payload;
          Alcotest.test_case "unshippable task refused" `Quick test_unshippable_task;
        ] );
      ( "process-faults",
        [
          Alcotest.test_case "external kill recovered" `Quick
            test_external_kill_recovered;
          Alcotest.test_case "kill without a fault plan recovered" `Quick
            test_clean_kill_recovered;
          Alcotest.test_case "noisy links recovered" `Quick
            test_noisy_faults_recovered;
          Alcotest.test_case "frames outlive the link buffer" `Quick
            test_frames_outlive_link_buffer;
          Alcotest.test_case "sgemm call: no major-heap frame buffers" `Quick
            test_sgemm_call_major_words;
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
          Alcotest.test_case "warm topology serves after domains" `Quick
            test_warm_after_domains;
          Alcotest.test_case "process after domains fails" `Quick
            test_process_after_domains_fails;
        ] );
    ]
