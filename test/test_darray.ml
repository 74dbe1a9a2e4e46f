(* Persistent distributed arrays: the shared envelope codec (qcheck
   roundtrip and fuzz through the fabric's socket reader), the model check of
   the real engine's residency protocol,
   residency byte collapse, content-gated updates and halo versioning, the
   resident kernel variants' exact parity with their non-resident
   paths, and crash replay over the process transport.

   ORDER MATTERS.  Process-mode sessions fork one child per node, and
   OCaml forbids [fork] once any domain has ever been spawned, so every
   process-backend case runs in the first suite.  The Local-mode and
   pure cases that follow may spawn domains freely. *)

open Triolet_runtime
module Codec = Triolet_base.Codec
module Rw = Triolet_base.Rw
module Payload = Triolet_base.Payload
module DM = Triolet_sim.Dispatch_model
module Envelope = Dispatch.Envelope
module Modelcheck = Triolet_sim.Modelcheck
module Exec = Triolet.Exec
module Matrix = Triolet.Matrix
module D = Triolet_kernels.Dataset

(* Keep the parent single-domain so forking stays possible. *)
let () = Pool.set_default_width 1

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?count ~name gen prop)

let topo ?(nodes = 4) backend =
  { Cluster.nodes; cores_per_node = 1; backend }

(* A work closure with a deterministic, order-sensitive result: the
   resident floats are summed left to right and scaled by the argument,
   so a replay that reassembled segments in any other order — or
   against any other version — would produce different bytes. *)
let sum_work ~node:_ ~resident ~arg =
  let s =
    List.fold_left
      (fun acc -> function
        | (Payload.Floats _ | Payload.Slice _) as b ->
            acc +. Float.Array.fold_left ( +. ) 0.0 (Payload.floats_exn b)
        | Payload.Ints a -> acc +. float_of_int (Array.fold_left ( + ) 0 a)
        | Payload.Raw _ -> acc)
      0.0 resident
  in
  let scale =
    match arg with
    | [ Payload.Floats k ] -> Float.Array.get k 0
    | _ -> 1.0
  in
  [ Payload.Floats (Float.Array.make 1 (s *. scale)) ]

let scale_arg v _node = [ Payload.Floats (Float.Array.make 1 v) ]

let merge_sum acc = function
  | [ Payload.Floats f ] -> acc +. Float.Array.get f 0
  | _ -> Alcotest.fail "bad reply payload"

let seg_floats ~len v = [ Payload.Floats (Float.Array.make len v) ]

let expected_sum segs scale =
  scale
  *. Array.fold_left
       (fun acc p ->
         List.fold_left
           (fun acc -> function
             | Payload.Floats f -> acc +. Float.Array.fold_left ( +. ) 0.0 f
             | _ -> acc)
           acc p)
       0.0 segs

(* ------------------------------------------------------------------ *)
(* Process backend: warm reuse, byte collapse, and crash replay.       *)
(* (fork-dependent: must run before any domain exists)                 *)

let test_proc_warm_reuse () =
  let s =
    Darray.create_session ~topology:(topo ~nodes:2 Cluster.Process)
      ~work:sum_work ()
  in
  Fun.protect
    ~finally:(fun () -> Darray.close_session s)
    (fun () ->
      let segs = Array.init 2 (fun i -> seg_floats ~len:10_000 (float_of_int (i + 1))) in
      let d = Darray.create s ~segments:segs in
      let run scale = Darray.run d ~arg:(scale_arg scale) ~merge:merge_sum ~init:0.0 in
      let cold, rc = run 1.0 in
      let warm, rw = run 1.0 in
      Alcotest.(check (float 0.0)) "cold sum" (expected_sum segs 1.0) cold;
      check_bool "warm run bit-identical" true (warm = cold);
      (* Warm rounds ship key-sized reuses plus the argument: two
         orders of magnitude under the cold puts for 10k-float
         segments, and comfortably past the >=90% collapse the issue
         pins. *)
      check_bool
        (Printf.sprintf "process warm bytes collapse (cold %d, warm %d)"
           rc.Cluster.scatter_bytes rw.Cluster.scatter_bytes)
        true
        (rw.Cluster.scatter_bytes * 10 <= rc.Cluster.scatter_bytes);
      (* The work ships once per node, with the cold round. *)
      check_bool "cold round ships the code" true (rc.Cluster.code_bytes > 0);
      check_int "warm round ships no code" 0 rw.Cluster.code_bytes;
      check_int "no respawns in a clean run" 0 (Darray.session_respawns s))

let test_proc_kill_mid_iteration () =
  (* The child sleeps inside [work], a sibling thread SIGKILLs it
     mid-compute, and the supervisor respawns it; the parent replays
     the dead node's segments from its retained encoded bytes and
     re-issues the slice.  The post-crash round must be bit-identical
     to the clean round before it. *)
  let slow_work ~node ~resident ~arg =
    Unix.sleepf 0.15;
    sum_work ~node ~resident ~arg
  in
  let s =
    Darray.create_session ~topology:(topo ~nodes:2 Cluster.Process)
      ~work:slow_work ()
  in
  Fun.protect
    ~finally:(fun () -> Darray.close_session s)
    (fun () ->
      let segs = Array.init 2 (fun i -> seg_floats ~len:5_000 (float_of_int (i + 1))) in
      let d = Darray.create s ~segments:segs in
      let run () = Darray.run d ~arg:(scale_arg 2.0) ~merge:merge_sum ~init:0.0 in
      let clean, cold = run () in
      Alcotest.(check (float 0.0)) "clean round" (expected_sum segs 2.0) clean;
      let victim =
        match Darray.proc_pids s with
        | pid :: _ -> pid
        | [] -> Alcotest.fail "no live children"
      in
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.05;
            try Unix.kill victim Sys.sigkill with Unix.Unix_error _ -> ())
          ()
      in
      let replayed, report = run () in
      Thread.join killer;
      check_bool "post-crash round bit-identical to clean round" true
        (replayed = clean);
      check_bool "supervisor replaced the child" true
        (Darray.session_respawns s >= 1);
      check_bool "crash observed by the run" true
        (report.Cluster.crashed_nodes >= 1);
      (* Of the two nodes, only the respawned one is sent the code again. *)
      check_int "code re-shipped to the respawned node only"
        (cold.Cluster.code_bytes / 2) report.Cluster.code_bytes;
      (* And the fabric is warm again: the next round reuses. *)
      let again, r2 = run () in
      check_bool "next round still exact" true (again = clean);
      check_int "no further crashes" 0 r2.Cluster.crashed_nodes;
      check_int "and no further code" 0 r2.Cluster.code_bytes)

(* A work closure over a mutex cannot cross as closure bytes: a process
   session refuses it before forking anything, and an in-process
   session, which ships no code, runs it. *)
let test_unshippable_work () =
  let m = Mutex.create () in
  let work ~node ~resident ~arg = Mutex.protect m (fun () -> sum_work ~node ~resident ~arg) in
  let ends () = List.length (Atomic.get Transport.Proc.parent_ends) in
  let before = ends () in
  (match Darray.create_session ~topology:(topo ~nodes:2 Cluster.Process) ~work () with
  | s ->
      Darray.close_session s;
      Alcotest.fail "a mutex crossed as task code"
  | exception Cluster.Unshippable_task _ -> ());
  check_int "no child forked" before (ends ());
  let s = Darray.create_session ~topology:(topo ~nodes:2 Cluster.Inprocess) ~work () in
  Fun.protect
    ~finally:(fun () -> Darray.close_session s)
    (fun () ->
      let segs = Array.init 2 (fun i -> seg_floats ~len:4 (float_of_int (i + 1))) in
      let d = Darray.create s ~segments:segs in
      let sum, _ = Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      Alcotest.(check (float 0.0)) "in-process session runs it" (expected_sum segs 1.0) sum)

let test_proc_sgemm_first_round_parity () =
  (* First-iteration results over the process transport are
     byte-identical to the non-resident loop nest: children compute
     from decoded copies either way. *)
  let ctx = Exec.make ~nodes:2 ~cores_per_node:1 ~backend:Cluster.Process () in
  let a, b = D.sgemm_matrices ~seed:41 ~m:24 ~k:10 ~n:12 in
  let r = Triolet_kernels.Sgemm.Resident.create ~ctx a in
  Fun.protect
    ~finally:(fun () -> Triolet_kernels.Sgemm.Resident.close r)
    (fun () ->
      let reference = Triolet_kernels.Sgemm.run_c a b in
      let c1, rep1 = Triolet_kernels.Sgemm.Resident.multiply r b in
      check_bool "first round = run_c exactly" true
        (Triolet_kernels.Sgemm.agrees ~eps:0.0 reference c1);
      let c2, rep2 = Triolet_kernels.Sgemm.Resident.multiply r b in
      check_bool "warm round bit-identical" true
        (Triolet_kernels.Sgemm.agrees ~eps:0.0 c1 c2);
      check_bool "warm round ships fewer bytes" true
        (rep2.Cluster.scatter_bytes < rep1.Cluster.scatter_bytes))

(* Each case runs the process backend first: the in-process runs spawn
   no domain, but forking first keeps the order safe regardless. *)
let both_backends = [ Cluster.Process; Cluster.Inprocess ]

(* Fewer outer elements than nodes: the resident session sizes itself
   to the blocks, so no node is sent a task without a segment. *)
let test_resident_fewer_blocks_than_nodes () =
  List.iter
    (fun backend ->
      let ctx nodes = Exec.make ~nodes ~cores_per_node:1 ~backend () in
      let a, b = D.sgemm_matrices ~seed:3 ~m:2 ~k:5 ~n:3 in
      let r = Triolet_kernels.Sgemm.Resident.create ~ctx:(ctx 4) a in
      Fun.protect
        ~finally:(fun () -> Triolet_kernels.Sgemm.Resident.close r)
        (fun () ->
          let c, _ = Triolet_kernels.Sgemm.Resident.multiply r b in
          check_bool "sgemm m=2 on 4 nodes = run_c exactly" true
            (Triolet_kernels.Sgemm.agrees ~eps:0.0
               (Triolet_kernels.Sgemm.run_c a b) c));
      let data = D.tpacf ~seed:5 ~points:2 ~random_sets:2 in
      let bins = 6 in
      let r = Triolet_kernels.Tpacf.Resident.create ~ctx:(ctx 4) ~bins data.D.observed in
      Fun.protect
        ~finally:(fun () -> Triolet_kernels.Tpacf.Resident.close r)
        (fun () ->
          let dr, _ = Triolet_kernels.Tpacf.Resident.dr r data.D.randoms in
          Alcotest.(check (array int)) "tpacf 2 points on 4 nodes = run_c DR"
            (Triolet_kernels.Tpacf.run_c ~bins data).Triolet_kernels.Tpacf.dr dr);
      List.iter
        (fun (nodes, nz) ->
          let data =
            D.cutcp ~seed:11 ~atoms:12 ~nx:6 ~ny:6 ~nz ~spacing:0.5 ~cutoff:1.5
          in
          let r = Triolet_kernels.Cutcp.Resident.create ~ctx:(ctx nodes) data in
          Fun.protect
            ~finally:(fun () -> Triolet_kernels.Cutcp.Resident.close r)
            (fun () ->
              let g, _ = Triolet_kernels.Cutcp.Resident.potential r in
              check_bool
                (Printf.sprintf "cutcp nz=%d on %d nodes agrees with run_c" nz nodes)
                true
                (Triolet_kernels.Cutcp.agrees ~eps:1e-9
                   (Triolet_kernels.Cutcp.run_c data) g)))
        [ (4, 2); (2, 1) ])
    both_backends

(* The resident wire bytes, pinned exactly: a 256x256 A over 2 nodes
   against a 256x8 B.  Cold rounds put both row blocks, warm rounds
   ship key-only reuses, and a one-element update re-puts one block;
   every round ships one task frame per node. *)
let test_sgemm_resident_wire_bytes () =
  List.iter
    (fun backend ->
      let ctx = Exec.make ~nodes:2 ~cores_per_node:1 ~backend () in
      let a, b = D.sgemm_matrices ~seed:13 ~m:256 ~k:256 ~n:8 in
      let r = Triolet_kernels.Sgemm.Resident.create ~ctx a in
      Fun.protect
        ~finally:(fun () -> Triolet_kernels.Sgemm.Resident.close r)
        (fun () ->
          let round () = snd (Triolet_kernels.Sgemm.Resident.multiply r b) in
          let cold = round () in
          let warm = round () in
          let a' = Matrix.copy_rows a 0 (Matrix.rows a) in
          Matrix.set a' 200 17 42.0;
          check_int "one block changed" 1
            (Triolet_kernels.Sgemm.Resident.update_a r a');
          let dirty = round () in
          let bytes r = (r.Cluster.scatter_bytes, r.Cluster.scatter_messages) in
          Alcotest.(check (pair int int)) "cold round" (557_464, 4) (bytes cold);
          Alcotest.(check (pair int int)) "warm round" (33_092, 4) (bytes warm);
          Alcotest.(check (pair int int)) "after update_a" (295_278, 4) (bytes dirty)))
    both_backends

(* Two resident arrays in turn on one topology: the second leases the
   session the first returned, and must never take the first's
   resident segments for its own.  Its cold round puts every block —
   the first cold round's bytes exactly — and computes on its own
   matrix; and a darray id is never handed out twice by a warm
   session. *)
let test_resident_fresh_across_leases () =
  List.iter
    (fun backend ->
      let ctx = Exec.make ~nodes:2 ~cores_per_node:1 ~backend () in
      let cold a b =
        let r = Triolet_kernels.Sgemm.Resident.create ~ctx a in
        Fun.protect
          ~finally:(fun () -> Triolet_kernels.Sgemm.Resident.close r)
          (fun () -> Triolet_kernels.Sgemm.Resident.multiply r b)
      in
      let a1, b = D.sgemm_matrices ~seed:17 ~m:24 ~k:10 ~n:6 in
      let a2, _ = D.sgemm_matrices ~seed:18 ~m:24 ~k:10 ~n:6 in
      let _, r1 = cold a1 b in
      let c2, r2 = cold a2 b in
      check_bool "second array = run_c A2 b exactly" true
        (Triolet_kernels.Sgemm.agrees ~eps:0.0 (Triolet_kernels.Sgemm.run_c a2 b) c2);
      check_int "its cold round puts every block" r1.Cluster.scatter_bytes r2.Cluster.scatter_bytes)
    both_backends;
  let did () =
    let cfg = { Dispatch.nodes = 2; policy = { max_attempts = 1; timeout = None }; supervision = None } in
    let s = Dispatch.lease ~span:"test" ~cores:1 cfg in
    Fun.protect
      ~finally:(fun () -> Dispatch.close s)
      (fun () ->
        Dispatch.load s ~result:Codec.int ~work:(fun ~node:_ ~pool:_ ~slice:_ ~resident:_ _ -> 0);
        Dispatch.fresh_did s)
  in
  let first = did () in
  check_bool "no darray id twice across leases" true (did () <> first)

(* One set of nodes: a cluster call, a resident array and a service on
   one process topology run on the same children, forked once. *)
let test_one_fabric () =
  let nodes = 3 in
  let ends () = List.length (Atomic.get Transport.Proc.parent_ends) in
  let before = ends () in
  let topo = { Cluster.nodes; cores_per_node = 1; backend = Cluster.Process } in
  let cluster_pids, _ =
    Cluster.run_topology topo
      ~scatter:(fun _ -> [])
      ~work:(fun ~node:_ ~pool:_ _ -> Unix.getpid ())
      ~result_codec:Codec.int
      ~merge:(fun acc p -> acc @ [ p ])
      ~init:[]
  in
  check_int "the first caller forks one child per node" (before + nodes) (ends ());
  let a, b = D.sgemm_matrices ~seed:19 ~m:12 ~k:4 ~n:3 in
  let r = Triolet_kernels.Sgemm.Resident.create ~ctx:(Exec.make ~nodes ~cores_per_node:1 ~backend:Cluster.Process ()) a in
  Fun.protect
    ~finally:(fun () -> Triolet_kernels.Sgemm.Resident.close r)
    (fun () ->
      let c, _ = Triolet_kernels.Sgemm.Resident.multiply r b in
      check_bool "resident product exact" true
        (Triolet_kernels.Sgemm.agrees ~eps:0.0 (Triolet_kernels.Sgemm.run_c a b) c));
  check_int "the resident array forks nothing" (before + nodes) (ends ());
  let svc =
    Service.create
      ~cfg:{ Service.default_config with nodes; cores_per_node = 1 }
      ~work:(fun ~node:_ ~pool:_ _ -> [ Payload.Ints [| Unix.getpid () |] ])
      ()
  in
  let service_pids = Array.to_list (Service.node_pids svc) in
  let served = Service.submit svc (Array.make nodes []) in
  Service.shutdown svc;
  check_int "the service forks nothing" (before + nodes) (ends ());
  Alcotest.(check (list int)) "the service runs on the cluster's children" cluster_pids service_pids;
  match served with
  | Ok replies ->
      let pids = Array.to_list (Array.map (function [ Payload.Ints [| p |] ] -> p | _ -> -1) replies) in
      check_bool "the service's replies come from those children" true
        (List.for_all (fun p -> List.mem p cluster_pids) pids)
  | Error e -> Alcotest.fail (Service.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Wire codecs: qcheck roundtrip, socket frame reader, corruption.     *)

let payload_gen : Payload.t QCheck2.Gen.t =
  QCheck2.Gen.(
    list_size (int_range 1 4)
      (oneof
         [
           map
             (fun l -> Payload.Floats (Float.Array.of_list l))
             (list_size (int_bound 20) (float_range (-1000.) 1000.));
           map (fun l -> Payload.Ints (Array.of_list l)) (small_list int);
           map (fun s -> Payload.Raw s) (string_size (int_bound 30));
         ]))

let key_gen = QCheck2.Gen.(triple (int_bound 1000) (int_bound 1000) (int_bound 1000))

(* Every darray frame rides the shared checksummed envelope. *)
let env c = Envelope.codec c

let roundtrips c v =
  let c = env c and v = (3, 7, v) in
  Codec.of_bytes c (Codec.to_bytes c v) = v
  && c.Codec.size v = Bytes.length (Codec.to_bytes c v)

(* A frame as the fabric writes it: the envelope after the header's
   room. *)
let frame c v = Envelope.encode c ~slice:0 ~seq:0 v

let prop_key_roundtrip =
  qtest "key codec roundtrips" key_gen (roundtrips Envelope.key)

let prop_put_roundtrip =
  qtest "put codec roundtrips"
    QCheck2.Gen.(pair key_gen payload_gen)
    (roundtrips Envelope.put)

let prop_reuse_roundtrip =
  qtest "reuse codec roundtrips" key_gen (fun k ->
      roundtrips Envelope.key k
      && Envelope.tag (Protocol.view (Codec.to_bytes (env Envelope.key) (3, 7, k))) = Some (3, 7))

let prop_free_roundtrip =
  qtest "free codec roundtrips"
    QCheck2.Gen.(int_bound 10_000)
    (roundtrips Codec.int)

let prop_task_roundtrip =
  qtest "task codec roundtrips"
    QCheck2.Gen.(
      triple (list_size (int_bound 6) key_gen) (int_bound 10_000) payload_gen)
    (roundtrips Envelope.task)

let prop_reply_roundtrip =
  qtest "reply codec roundtrips"
    QCheck2.Gen.(pair (int_bound 10_000) payload_gen)
    (fun (slice, p) ->
      let b = Protocol.view (Codec.to_bytes (env Payload.codec) (slice, 1, p)) in
      Envelope.tag b = Some (slice, 1)
      && Envelope.body Payload.codec b = p)

(* Every Seg_* frame kind carries its codec's bytes through a real
   socket and the fabric's frame reader, written in chunks cut at
   arbitrary boundaries: kinds and decoded values must both survive. *)
let seg_frame_gen =
  QCheck2.Gen.(
    list_size (1 -- 6)
      (oneof
         [
           map
             (fun (k, p) -> (Protocol.Seg_put, frame Envelope.put (k, p)))
             (pair key_gen payload_gen);
           map
             (fun k -> (Protocol.Seg_reuse, frame Envelope.key k))
             key_gen;
           map
             (fun did -> (Protocol.Seg_free, frame Codec.int did))
             (int_bound 1000);
         ]))

let prop_seg_frames_chunked =
  qtest "Seg_* frames survive chunked delivery"
    QCheck2.Gen.(pair seg_frame_gen (list_size (0 -- 20) (int_range 1 13)))
    (fun (frames, cuts) ->
      let stream =
        String.concat ""
          (List.map
             (fun (kind, (f : Protocol.frame)) ->
               let start = Protocol.write_header f kind in
               Bytes.sub_string f.buf start (Protocol.header_len + f.len))
             frames)
      in
      Socket_stream.replay (Socket_stream.chunks ~cuts stream) Socket_stream.frames
      = List.map (fun (k, f) -> (k, Bytes.to_string (Protocol.to_bytes f))) frames)

(* The checksummed envelope refuses corruption: any single-byte flip in
   a put frame raises a typed error instead of decoding garbage into a
   child's segment table, and the engine's tag check refuses it too. *)
let prop_corrupt_put_refused =
  qtest "corrupted put frame always refused"
    QCheck2.Gen.(
      triple (pair key_gen payload_gen) (int_bound 100_000) (int_range 1 255))
    (fun (v, posseed, mask) ->
      let b = Protocol.to_bytes (frame Envelope.put v) in
      let pos = posseed mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      Envelope.tag (Protocol.view b) = None
      &&
      match Codec.of_bytes (env Envelope.put) b with
      | _ -> false
      | exception
          ( Codec.Checksum_mismatch _ | Codec.Trailing_bytes _ | Rw.Underflow
          | Invalid_argument _ | Out_of_memory ) ->
          true)

(* ------------------------------------------------------------------ *)
(* The residency protocol: the real engine and node handler, checked. *)

let test_segment_model_clean () =
  let r = DM.check_residency () in
  check_bool "no violation" true (r.Modelcheck.violation = None);
  check_bool "explored seriously" true (r.Modelcheck.states > 100)

let test_segment_model_catches_stale_reuse () =
  let r = DM.check_residency ~bug:DM.Stale_reuse () in
  match r.Modelcheck.violation with
  | None -> Alcotest.fail "stale-reuse bug not caught"
  | Some v -> check_bool "message" true (String.length v.Modelcheck.message > 0)

let test_segment_model_catches_skipped_check () =
  let r = DM.check_residency ~bug:DM.Skip_version_check () in
  match r.Modelcheck.violation with
  | None -> Alcotest.fail "skipped version check not caught"
  | Some v -> check_bool "message" true (String.length v.Modelcheck.message > 0)

(* ------------------------------------------------------------------ *)
(* Local mode: byte collapse, updates, geometry, ghosts, free.         *)

let with_local_session ?(nodes = 4) f =
  let s =
    Darray.create_session ~topology:(topo ~nodes Cluster.Inprocess)
      ~work:sum_work ()
  in
  Fun.protect ~finally:(fun () -> Darray.close_session s) (fun () -> f s)

(* The issue's headline acceptance: once warm, a run over an unchanged
   view ships >=90% fewer scatter bytes than the cold install. *)
let test_warm_bytes_collapse () =
  with_local_session (fun s ->
      let segs =
        Array.init 4 (fun i -> seg_floats ~len:50_000 (float_of_int (i + 1)))
      in
      let d = Darray.create s ~segments:segs in
      let run () = Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      let cold, rc = run () in
      let warm, rw = run () in
      Alcotest.(check (float 0.0)) "sum" (expected_sum segs 1.0) cold;
      check_bool "warm bit-identical" true (warm = cold);
      check_bool
        (Printf.sprintf ">=90%% fewer warm scatter bytes (cold %d, warm %d)"
           rc.Cluster.scatter_bytes rw.Cluster.scatter_bytes)
        true
        (rw.Cluster.scatter_bytes * 10 <= rc.Cluster.scatter_bytes))

let test_update_reships_only_changed () =
  with_local_session (fun s ->
      let segs = Array.init 4 (fun _ -> seg_floats ~len:10_000 1.0) in
      let d = Darray.create s ~segments:segs in
      let run () = Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      let _, cold = run () in
      let _, warm = run () in
      check_bool "update changed" true (Darray.update d 2 (seg_floats ~len:10_000 5.0));
      check_int "version bumped" 2 (Darray.segment_version d 2);
      let after, dirty = run () in
      Alcotest.(check (float 0.0)) "result reflects the update"
        (3.0 *. 10_000.0 +. 5.0 *. 10_000.0)
        after;
      (* One dirty segment: strictly more than a fully-warm round but
         about a quarter of the cold install. *)
      check_bool "dirty > warm" true
        (dirty.Cluster.scatter_bytes > warm.Cluster.scatter_bytes);
      check_bool "dirty ships ~one segment, not four" true
        (dirty.Cluster.scatter_bytes * 2 < cold.Cluster.scatter_bytes))

let test_ghost_versioning () =
  with_local_session ~nodes:2 (fun s ->
      let d = Darray.create s ~segments:(Array.init 2 (fun _ -> seg_floats ~len:10 1.0)) in
      check_bool "no ghost yet" true (Darray.ghost_version d 0 = None);
      check_bool "first install changes" true
        (Darray.set_ghost d 0 (seg_floats ~len:4 9.0));
      check_bool "v1" true (Darray.ghost_version d 0 = Some 1);
      check_bool "identical content keeps version" false
        (Darray.set_ghost d 0 (seg_floats ~len:4 9.0));
      check_bool "still v1" true (Darray.ghost_version d 0 = Some 1);
      check_bool "changed content bumps" true
        (Darray.set_ghost d 0 (seg_floats ~len:4 7.0));
      check_bool "v2" true (Darray.ghost_version d 0 = Some 2);
      (* Primary segments follow the same rule through [update]. *)
      check_bool "identical update keeps version" false
        (Darray.update d 1 (seg_floats ~len:10 1.0));
      check_int "segment still v1" 1 (Darray.segment_version d 1);
      check_bool "changed update bumps" true
        (Darray.update d 1 (seg_floats ~len:10 2.0));
      check_int "segment v2" 2 (Darray.segment_version d 1);
      (* exchange_halo counts exactly the ghosts that changed. *)
      check_int "converged halo ships nothing new" 1
        (Darray.exchange_halo d ~compute:(fun i ->
             if i = 0 then seg_floats ~len:4 7.0 else seg_floats ~len:4 3.0));
      check_int "fully converged" 0
        (Darray.exchange_halo d ~compute:(fun i ->
             if i = 0 then seg_floats ~len:4 7.0 else seg_floats ~len:4 3.0));
      (* Ghost contents ride with the owner's resident concatenation. *)
      let total, _ = Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      Alcotest.(check (float 0.0)) "primaries + ghosts summed"
        (10.0 +. 20.0 +. (4.0 *. 7.0) +. (4.0 *. 3.0))
        total)

(* The content gate compares float bits: structural equality would
   keep a sign-flipped zero's old version ([-0.0 = 0.0]), leaving the
   nodes on stale bits, and re-ship identical NaNs ([nan <> nan]).
   [sign_work] sums the sign of every resident float. *)
let sign_work ~node:_ ~resident ~arg:_ =
  let s =
    List.fold_left
      (fun acc -> function
        | (Payload.Floats _ | Payload.Slice _) as b ->
            Float.Array.fold_left
              (fun acc x -> acc +. Float.copy_sign 1.0 x)
              acc (Payload.floats_exn b)
        | Payload.Ints _ | Payload.Raw _ -> acc)
      0.0 resident
  in
  [ Payload.Floats (Float.Array.make 1 s) ]

let test_update_sees_zero_sign () =
  let s =
    Darray.create_session ~topology:(topo ~nodes:2 Cluster.Inprocess)
      ~work:sign_work ()
  in
  Fun.protect ~finally:(fun () -> Darray.close_session s) (fun () ->
      let d = Darray.create s ~segments:(Array.init 2 (fun _ -> seg_floats ~len:8 0.0)) in
      let run () = Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      Alcotest.(check (float 0.0)) "all +0.0" 16.0 (fst (run ()));
      check_bool "-0.0 is a change" true (Darray.update d 1 (seg_floats ~len:8 (-0.0)));
      check_int "version bumped" 2 (Darray.segment_version d 1);
      Alcotest.(check (float 0.0)) "nodes see the new sign" 0.0 (fst (run ())))

let test_update_identical_nan_keeps_version () =
  with_local_session ~nodes:2 (fun s ->
      let d = Darray.create s ~segments:(Array.init 2 (fun _ -> seg_floats ~len:1_000 Float.nan)) in
      let run () = Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      let _ = run () in
      let _, warm = run () in
      check_bool "same NaN bits are no change" false
        (Darray.update d 0 (seg_floats ~len:1_000 Float.nan));
      check_int "version kept" 1 (Darray.segment_version d 0);
      let _, next = run () in
      check_int "next round ships key-only" warm.Cluster.scatter_bytes
        next.Cluster.scatter_bytes)

let test_free_refuses_further_use () =
  with_local_session (fun s ->
      let d = Darray.create s ~segments:(Array.init 2 (fun _ -> seg_floats ~len:10 1.0)) in
      let _ = Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      Darray.free d;
      Darray.free d;
      (* idempotent *)
      let raises f =
        match f () with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      check_bool "update refused" true
        (raises (fun () -> Darray.update d 0 (seg_floats ~len:10 2.0)));
      check_bool "run refused" true
        (raises (fun () ->
             Darray.run d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0)))

(* ------------------------------------------------------------------ *)
(* Resident kernels: exact parity with the non-resident paths.         *)

let test_sgemm_resident_parity () =
  let ctx = Exec.make ~nodes:3 ~cores_per_node:1 ~backend:Cluster.Inprocess () in
  let a, b = D.sgemm_matrices ~seed:7 ~m:30 ~k:14 ~n:18 in
  let r = Triolet_kernels.Sgemm.Resident.create ~ctx a in
  Fun.protect
    ~finally:(fun () -> Triolet_kernels.Sgemm.Resident.close r)
    (fun () ->
      let reference = Triolet_kernels.Sgemm.run_c a b in
      let c1, rep1 = Triolet_kernels.Sgemm.Resident.multiply r b in
      check_bool "first multiply = run_c exactly" true
        (Triolet_kernels.Sgemm.agrees ~eps:0.0 reference c1);
      let c2, rep2 = Triolet_kernels.Sgemm.Resident.multiply r b in
      check_bool "warm multiply bit-identical" true
        (Triolet_kernels.Sgemm.agrees ~eps:0.0 c1 c2);
      check_bool "warm collapse" true
        (rep2.Cluster.scatter_bytes < rep1.Cluster.scatter_bytes);
      (* update_a: an unchanged A re-ships nothing; a one-row change
         re-ships exactly the blocks that hold it. *)
      check_int "identity update ships nothing" 0
        (Triolet_kernels.Sgemm.Resident.update_a r a);
      let a' = Matrix.init (Matrix.rows a) (Matrix.cols a) (fun i j ->
          if i = 0 && j = 0 then 42.0 else Matrix.get a i j)
      in
      check_int "one-element change dirties one block" 1
        (Triolet_kernels.Sgemm.Resident.update_a r a');
      let c3, _ = Triolet_kernels.Sgemm.Resident.multiply r b in
      check_bool "post-update multiply = run_c on new A" true
        (Triolet_kernels.Sgemm.agrees ~eps:0.0
           (Triolet_kernels.Sgemm.run_c a' b)
           c3))

let test_tpacf_resident_parity () =
  let ctx = Exec.make ~nodes:3 ~cores_per_node:1 ~backend:Cluster.Inprocess () in
  let data = D.tpacf ~seed:19 ~points:40 ~random_sets:3 in
  let bins = 10 in
  let reference = Triolet_kernels.Tpacf.run_c ~bins data in
  let r = Triolet_kernels.Tpacf.Resident.create ~ctx ~bins data.D.observed in
  Fun.protect
    ~finally:(fun () -> Triolet_kernels.Tpacf.Resident.close r)
    (fun () ->
      let dr1, reports = Triolet_kernels.Tpacf.Resident.dr r data.D.randoms in
      Alcotest.(check (array int)) "resident DR = run_c DR exactly"
        reference.Triolet_kernels.Tpacf.dr dr1;
      check_int "one report per round" (Array.length data.D.randoms)
        (Array.length reports);
      check_bool "later rounds cheaper than round 0" true
        (reports.(1).Cluster.scatter_bytes < reports.(0).Cluster.scatter_bytes);
      (* A second DR pass over the same randoms is fully warm. *)
      let dr2, _ = Triolet_kernels.Tpacf.Resident.dr r data.D.randoms in
      Alcotest.(check (array int)) "second pass identical" dr1 dr2)

let test_cutcp_resident_halo () =
  let ctx = Exec.make ~nodes:3 ~cores_per_node:1 ~backend:Cluster.Inprocess () in
  let data =
    D.cutcp ~seed:23 ~atoms:40 ~nx:8 ~ny:8 ~nz:12 ~spacing:0.5 ~cutoff:1.5
  in
  let reference = Triolet_kernels.Cutcp.run_c data in
  let r = Triolet_kernels.Cutcp.Resident.create ~ctx data in
  Fun.protect
    ~finally:(fun () -> Triolet_kernels.Cutcp.Resident.close r)
    (fun () ->
      let g1, rep1 = Triolet_kernels.Cutcp.Resident.potential r in
      check_bool "agrees with run_c" true
        (Triolet_kernels.Cutcp.agrees ~eps:1e-9 reference g1);
      let g2, rep2 = Triolet_kernels.Cutcp.Resident.potential r in
      check_bool "warm round bit-identical" true (g1 = g2);
      check_bool "warm collapse" true
        (rep2.Cluster.scatter_bytes < rep1.Cluster.scatter_bytes);
      (* Converged halos: nothing to re-ship. *)
      let slabs, halos = Triolet_kernels.Cutcp.Resident.resync r in
      check_int "no slab changed" 0 slabs;
      check_int "no halo changed" 0 halos;
      (* Displace one atom within its slab: the resync re-ships a
         handful of segments, and the new potential matches a fresh
         non-resident run on the displaced dataset. *)
      Triolet_kernels.Cutcp.Resident.displace r ~atom:0 ~dx:0.05 ~dy:0.05
        ~dz:0.0;
      let slabs', halos' = Triolet_kernels.Cutcp.Resident.resync r in
      (* dz = 0: the atom stays in its slab, so exactly one slab's
         payload changes; only the neighbours' halos can follow. *)
      check_int "exactly one slab re-ships" 1 slabs';
      check_bool "halos bounded by the neighbourhood" true
        (halos' >= 0 && halos' <= 2);
      let g3, _ = Triolet_kernels.Cutcp.Resident.potential r in
      check_bool "displaced potential differs" true (not (g3 = g1)))

let () =
  Alcotest.run "darray"
    [
      ( "process-backend",
        [
          Alcotest.test_case "warm reuse over the wire" `Quick
            test_proc_warm_reuse;
          Alcotest.test_case "kill mid-iteration replays exactly" `Quick
            test_proc_kill_mid_iteration;
          Alcotest.test_case "unshippable work refused" `Quick
            test_unshippable_work;
          Alcotest.test_case "sgemm first-round parity" `Quick
            test_proc_sgemm_first_round_parity;
          Alcotest.test_case "resident kernels on fewer blocks than nodes" `Quick
            test_resident_fewer_blocks_than_nodes;
          Alcotest.test_case "sgemm resident wire bytes pinned" `Quick
            test_sgemm_resident_wire_bytes;
          Alcotest.test_case "no stale residency across leases" `Quick
            test_resident_fresh_across_leases;
          Alcotest.test_case "one set of nodes for every caller" `Quick test_one_fabric;
        ] );
      ( "codecs",
        [
          prop_key_roundtrip;
          prop_put_roundtrip;
          prop_reuse_roundtrip;
          prop_free_roundtrip;
          prop_task_roundtrip;
          prop_reply_roundtrip;
          prop_seg_frames_chunked;
          prop_corrupt_put_refused;
        ] );
      ( "segment model",
        [
          Alcotest.test_case "clean protocol passes" `Quick
            test_segment_model_clean;
          Alcotest.test_case "stale reuse caught" `Quick
            test_segment_model_catches_stale_reuse;
          Alcotest.test_case "skipped version check caught" `Quick
            test_segment_model_catches_skipped_check;
        ] );
      ( "residency",
        [
          Alcotest.test_case "warm bytes collapse >=90%" `Quick
            test_warm_bytes_collapse;
          Alcotest.test_case "update reships only changed" `Quick
            test_update_reships_only_changed;
          Alcotest.test_case "ghost versioning" `Quick test_ghost_versioning;
          Alcotest.test_case "update sees a zero's sign" `Quick
            test_update_sees_zero_sign;
          Alcotest.test_case "identical NaN update ships key-only" `Quick
            test_update_identical_nan_keeps_version;
          Alcotest.test_case "free refuses further use" `Quick
            test_free_refuses_further_use;
        ] );
      ( "resident kernels",
        [
          Alcotest.test_case "sgemm exact parity + update_a" `Quick
            test_sgemm_resident_parity;
          Alcotest.test_case "tpacf DR exact parity" `Quick
            test_tpacf_resident_parity;
          Alcotest.test_case "cutcp halo exchange" `Quick
            test_cutcp_resident_halo;
        ] );
    ]
