(* Persistent distributed arrays: the shared envelope codec (qcheck
   roundtrip and fuzz through the frame decoder), the model check of
   the real engine's residency protocol,
   residency byte collapse, geometry-checked zip, halo versioning, the
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
        | Payload.Floats f -> acc +. Float.Array.fold_left ( +. ) 0.0 f
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
      let run scale = Darray.run1 d ~arg:(scale_arg scale) ~merge:merge_sum ~init:0.0 in
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
      let run () = Darray.run1 d ~arg:(scale_arg 2.0) ~merge:merge_sum ~init:0.0 in
      let clean, _ = run () in
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
      (* And the fabric is warm again: the next round reuses. *)
      let again, r2 = run () in
      check_bool "next round still exact" true (again = clean);
      check_int "no further crashes" 0 r2.Cluster.crashed_nodes)

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

(* ------------------------------------------------------------------ *)
(* Wire codecs: qcheck roundtrip, frame decoder, corruption.           *)

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
let env c = Envelope.codec ~crc:true c

let roundtrips c v =
  let c = env c and v = (3, 7, v) in
  Codec.of_bytes c (Codec.to_bytes c v) = v
  && c.Codec.size v = Bytes.length (Codec.to_bytes c v)

let frame c v = Codec.to_bytes (env c) (0, 0, v)

let prop_key_roundtrip =
  qtest "key codec roundtrips" key_gen (roundtrips Envelope.key)

let prop_put_roundtrip =
  qtest "put codec roundtrips"
    QCheck2.Gen.(pair key_gen payload_gen)
    (roundtrips Envelope.put)

let prop_reuse_roundtrip =
  qtest "reuse codec roundtrips" key_gen (fun k ->
      roundtrips Envelope.key k
      && Envelope.tag ~crc:true (Codec.to_bytes (env Envelope.key) (3, 7, k)) = Some (3, 7))

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
      let b = Codec.to_bytes (env Payload.codec) (slice, 1, p) in
      Envelope.tag ~crc:true b = Some (slice, 1)
      && Envelope.body ~crc:true Payload.codec b = p)

(* Every Seg_* frame kind carries its codec's bytes through the
   incremental frame decoder, cut at arbitrary chunk boundaries:
   kinds and decoded values must both survive. *)
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
             (fun (kind, payload) ->
               Bytes.to_string (Protocol.encode_frame ~kind payload))
             frames)
      in
      let d = Protocol.Decoder.create () in
      let pos = ref 0 in
      let cuts = if cuts = [] then [ 5 ] else cuts in
      let rec feed i =
        if !pos < String.length stream then begin
          let n =
            min (List.nth cuts (i mod List.length cuts))
              (String.length stream - !pos)
          in
          Protocol.Decoder.feed d (Bytes.of_string (String.sub stream !pos n));
          pos := !pos + n;
          feed (i + 1)
        end
      in
      feed 0;
      let out = ref [] in
      let rec drain () =
        match Protocol.Decoder.pop d with
        | Some (k, p) ->
            out := (k, Bytes.to_string p) :: !out;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !out = List.map (fun (k, p) -> (k, Bytes.to_string p)) frames
      && Protocol.Decoder.consumed d = String.length stream)

(* The checksummed envelope refuses corruption: any single-byte flip in
   a put frame raises a typed error instead of decoding garbage into a
   child's segment table, and the engine's tag check refuses it too. *)
let prop_corrupt_put_refused =
  qtest "corrupted put frame always refused"
    QCheck2.Gen.(
      triple (pair key_gen payload_gen) (int_bound 100_000) (int_range 1 255))
    (fun (v, posseed, mask) ->
      let bytes = frame Envelope.put v in
      let b = Bytes.copy bytes in
      let pos = posseed mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      Envelope.tag ~crc:true b = None
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
      let run () = Darray.run1 d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
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
      let run () = Darray.run1 d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      let _, cold = run () in
      let _, warm = run () in
      Darray.update d 2 (seg_floats ~len:10_000 5.0);
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

let test_zip_geometry_checked () =
  with_local_session (fun s ->
      let d4 = Darray.create s ~segments:(Array.init 4 (fun _ -> seg_floats ~len:100 1.0)) in
      let d4b = Darray.create s ~segments:(Array.init 4 (fun _ -> seg_floats ~len:100 2.0)) in
      let d3 = Darray.create s ~segments:(Array.init 3 (fun _ -> seg_floats ~len:100 1.0)) in
      let dshort = Darray.create s ~segments:(Array.init 4 (fun _ -> seg_floats ~len:99 1.0)) in
      (* A well-formed zip runs: each node sees both arrays' segments. *)
      let total, _ =
        Darray.run (Darray.zip2 d4 d4b) ~arg:(scale_arg 1.0) ~merge:merge_sum
          ~init:0.0
      in
      Alcotest.(check (float 0.0)) "zipped sum" (400.0 +. 800.0) total;
      let raises f =
        match f () with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      check_bool "segment count mismatch refused" true
        (raises (fun () -> Darray.zip2 d4 d3));
      check_bool "element count mismatch refused" true
        (raises (fun () -> Darray.zip2 d4 dshort));
      (* Cross-session zip refused too. *)
      with_local_session (fun s2 ->
          let foreign =
            Darray.create s2 ~segments:(Array.init 4 (fun _ -> seg_floats ~len:100 1.0))
          in
          check_bool "cross-session zip refused" true
            (raises (fun () -> Darray.zip2 d4 foreign))))

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
      (* exchange_halo counts exactly the ghosts that changed. *)
      check_int "converged halo ships nothing new" 1
        (Darray.exchange_halo d ~compute:(fun i ->
             if i = 0 then seg_floats ~len:4 7.0 else seg_floats ~len:4 3.0));
      check_int "fully converged" 0
        (Darray.exchange_halo d ~compute:(fun i ->
             if i = 0 then seg_floats ~len:4 7.0 else seg_floats ~len:4 3.0));
      (* Ghost contents ride with the owner's resident concatenation. *)
      let total, _ = Darray.run1 d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
      Alcotest.(check (float 0.0)) "primaries + ghosts summed"
        (20.0 +. (4.0 *. 7.0) +. (4.0 *. 3.0))
        total)

let test_free_refuses_further_use () =
  with_local_session (fun s ->
      let d = Darray.create s ~segments:(Array.init 2 (fun _ -> seg_floats ~len:10 1.0)) in
      let _ = Darray.run1 d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0 in
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
             Darray.run1 d ~arg:(scale_arg 1.0) ~merge:merge_sum ~init:0.0)))

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
          Alcotest.test_case "sgemm first-round parity" `Quick
            test_proc_sgemm_first_round_parity;
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
          Alcotest.test_case "zip geometry checked" `Quick
            test_zip_geometry_checked;
          Alcotest.test_case "ghost versioning" `Quick test_ghost_versioning;
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
