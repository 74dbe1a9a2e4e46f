(* Fault-tolerance tests: the checksummed codec envelope, the
   deterministic fault injector, and recovery in
   the cluster runtime — including the four kernels computing correct
   results under injected crashes, corruption, drops, duplicates and
   stragglers. *)

open Triolet_runtime
module Codec = Triolet_base.Codec
module Rw = Triolet_base.Rw
module Payload = Triolet_base.Payload

(* This suite spawns multi-domain pools and then runs ambient-context
   distributed pipelines, which the process backend's fork requirement
   forbids; ignore TRIOLET_BACKEND so the suite behaves identically
   under it (test_transport covers the process backend). *)
let () = Unix.putenv "TRIOLET_BACKEND" ""
let () = Pool.set_default_width 2

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?count ~name gen prop)

let with_pool w f =
  let p = Pool.create ~workers:w () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Fast fault plans so retry rounds take milliseconds. *)
let fast ?drop ?duplicate ?corrupt ?delay ?faults_of ?crash ?stragglers
    ?(max_attempts = 8) ~seed () =
  Fault.spec ?drop ?duplicate ?corrupt ?delay ?faults_of ?crash ?stragglers
    ~max_attempts ~base_timeout:0.002 ~max_timeout:0.02 ~seed ()

(* ------------------------------------------------------------------ *)
(* Codec: checksummed envelope and whole-buffer decoding               *)

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

let test_checksummed_roundtrip () =
  let c = Codec.checksummed (Codec.pair Codec.int Codec.string) in
  Alcotest.(check (pair int string))
    "roundtrip" (42, "hello")
    (Codec.roundtrip c (42, "hello"));
  check_int "size = 12 + inner"
    (12 + Codec.(pair int string).Codec.size (42, "hello"))
    (c.Codec.size (42, "hello"));
  check_int "wire size matches size"
    (c.Codec.size (42, "hello"))
    (Bytes.length (Codec.to_bytes c (42, "hello")))

let test_checksummed_detects_flip () =
  let c = Codec.checksummed Codec.(pair int float) in
  let bytes = Codec.to_bytes c (7, 3.14) in
  (* flip one payload byte: must raise Checksum_mismatch *)
  let b = Bytes.copy bytes in
  let pos = Bytes.length b - 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  check_bool "flip detected" true
    (match Codec.of_bytes c b with
    | _ -> false
    | exception Codec.Checksum_mismatch _ -> true)

let test_of_bytes_rejects_trailing () =
  let bytes = Codec.to_bytes Codec.int 5 in
  let padded = Bytes.cat bytes (Bytes.make 3 'x') in
  check_bool "trailing garbage raises" true
    (match Codec.of_bytes Codec.int padded with
    | _ -> false
    | exception Codec.Trailing_bytes 3 -> true);
  (* the exact buffer still decodes *)
  check_int "exact buffer ok" 5 (Codec.of_bytes Codec.int bytes)

(* Property: a checksummed envelope NEVER silently decodes a corrupted
   byte stream — any single-byte change raises. *)
let prop_checksummed_never_decodes_corruption =
  qtest "corrupted checksummed stream always raises"
    QCheck2.Gen.(triple payload_gen (int_bound 10_000) (int_range 1 255))
    (fun (p, posseed, mask) ->
      let c = Codec.checksummed Payload.codec in
      let bytes = Codec.to_bytes c p in
      let pos = posseed mod Bytes.length bytes in
      let b = Bytes.copy bytes in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      match Codec.of_bytes c b with
      | _ -> false (* silent decode of corruption: the bug we forbid *)
      | exception
          ( Codec.Checksum_mismatch _ | Codec.Trailing_bytes _ | Rw.Underflow
          | Invalid_argument _ | Out_of_memory ) ->
          true)

let prop_plain_codec_roundtrip_still_exact =
  qtest "checksummed roundtrips arbitrary payloads" payload_gen (fun p ->
      let c = Codec.checksummed Payload.codec in
      Codec.of_bytes c (Codec.to_bytes c p) = p)

(* ------------------------------------------------------------------ *)
(* Fault injector determinism                                          *)

(* The fate of each of 50 frames, as drawn by [Fault.fate] — the one
   decision point [Dispatch.through] routes every frame through. *)
let run_schedule seed =
  let f = Fault.make (fast ~drop:0.3 ~duplicate:0.3 ~corrupt:0.3 ~delay:0.3 ~seed ()) in
  let fates =
    List.init 50 (fun i ->
        Fault.fate f ~link:(Fault.To_node (i mod 4)) ~len:16)
  in
  (Fault.counters f, fates)

let test_injector_deterministic () =
  let a = run_schedule 7 and b = run_schedule 7 and c = run_schedule 8 in
  check_bool "same seed, same schedule" true (a = b);
  check_bool "different seed, different schedule" true (a <> c)

(* Service-fault injection points: seeded, deterministic, and inert at
   rate zero. *)

let inject_schedule ~heartbeat_loss ~crash_on_respawn ~seed n =
  let f =
    Fault.make (Fault.spec ~heartbeat_loss ~crash_on_respawn ~seed ())
  in
  List.init n (fun i ->
      if i mod 2 = 0 then Fault.inject f Fault.Heartbeat_loss ~node:(i mod 4)
      else Fault.inject f Fault.Crash_on_respawn ~node:(i mod 4))

let test_inject_deterministic () =
  let sched seed = inject_schedule ~heartbeat_loss:0.4 ~crash_on_respawn:0.3 ~seed 200 in
  (* Bit-for-bit: the same seed yields the same boolean sequence. *)
  check_bool "same seed, same injections" true (sched 13 = sched 13);
  check_bool "different seed, different injections" true (sched 13 <> sched 14);
  (* Rates actually bite, and the counters match the fired decisions. *)
  let f = Fault.make (Fault.spec ~heartbeat_loss:1.0 ~crash_on_respawn:0.0 ~seed:3 ()) in
  for i = 0 to 9 do
    check_bool "rate 1 always fires" true (Fault.inject f Fault.Heartbeat_loss ~node:i);
    check_bool "rate 0 never fires" false (Fault.inject f Fault.Crash_on_respawn ~node:i)
  done;
  let c = Fault.counters f in
  check_int "losses counted" 10 c.Fault.heartbeat_losses;
  check_int "no respawn crashes" 0 c.Fault.respawn_crashes

(* Zero-rate service faults must consume no randomness: a pre-existing
   plan's link-fault schedule is bit-identical whether or not the (new,
   zero) service-fault points are interrogated between messages. *)
let test_inject_zero_rate_inert () =
  let schedule ~interrogate seed =
    let f = Fault.make (fast ~drop:0.3 ~duplicate:0.3 ~corrupt:0.3 ~delay:0.3 ~seed ()) in
    let fates =
      List.init 50 (fun i ->
          if interrogate then begin
            check_bool "zero heartbeat_loss" false
              (Fault.inject f Fault.Heartbeat_loss ~node:(i mod 4));
            check_bool "zero crash_on_respawn" false
              (Fault.inject f Fault.Crash_on_respawn ~node:(i mod 4))
          end;
          Fault.fate f ~link:(Fault.To_node (i mod 4)) ~len:16)
    in
    (Fault.counters f, fates)
  in
  check_bool "schedule unmoved by zero-rate probes" true
    (schedule ~interrogate:false 7 = schedule ~interrogate:true 7)

(* ------------------------------------------------------------------ *)
(* Cluster under faults                                                *)

let cfg nodes = { Cluster.nodes; cores_per_node = 1; backend = Cluster.Inprocess }
let ctx nodes = Triolet.Exec.make ~nodes ~cores_per_node:1 ()

(* A distributed sum whose merge is order-sensitive enough to catch
   double or missing merges: each node contributes its id-tagged
   slice sum. *)
let sum_run ?faults pool nodes =
  let data = Float.Array.init 120 float_of_int in
  let blocks = Partition.blocks ~parts:nodes 120 in
  Cluster.run_topology ~pool ?faults (cfg nodes)
    ~scatter:(fun node ->
      let off, len = blocks.(node) in
      [ Payload.Floats (Float.Array.sub data off len) ])
    ~work:(fun ~node:_ ~pool:_ payload ->
      match payload with
      | [ Payload.Floats f ] -> Float.Array.fold_left ( +. ) 0.0 f
      | _ -> Alcotest.fail "bad payload")
    ~result_codec:Codec.float ~merge:( +. ) ~init:0.0

let expected_sum = 120.0 *. 119.0 /. 2.0

let test_clean_report_unchanged () =
  (* Without faults the report's fault fields are zero and byte/message
     accounting is exactly the legacy protocol's. *)
  with_pool 2 (fun pool ->
      let total, r = sum_run pool 4 in
      Alcotest.(check (float 1e-9)) "sum" expected_sum total;
      check_int "scatter msgs" 4 r.Cluster.scatter_messages;
      check_int "gather msgs" 4 r.Cluster.gather_messages;
      check_int "retries" 0 r.Cluster.retries;
      check_int "redeliveries" 0 r.Cluster.redeliveries;
      check_int "corrupt drops" 0 r.Cluster.corrupt_drops;
      check_int "crashed nodes" 0 r.Cluster.crashed_nodes;
      check_int "faults" 0 r.Cluster.faults_injected;
      check_int "recovery" 0 r.Cluster.recovery_ns)

let test_crash_each_phase_recovers () =
  with_pool 2 (fun pool ->
      List.iter
        (fun phase ->
          let faults = fast ~seed:1 ~crash:(1, phase) () in
          let total, r = sum_run ~faults pool 4 in
          Alcotest.(check (float 1e-9)) "sum survives crash" expected_sum total;
          check_int "one crash" 1 r.Cluster.crashed_nodes;
          check_bool "retried" true (r.Cluster.retries > 0))
        [ Fault.Before_work; Fault.During_work; Fault.After_work ])

let test_duplicate_replies_deduped () =
  with_pool 2 (fun pool ->
      let faults =
        fast ~seed:2
          ~faults_of:(function
            | Fault.From_node _ -> { Fault.no_faults with duplicate = 1.0 }
            | Fault.To_node _ -> Fault.no_faults)
          ()
      in
      let total, r = sum_run ~faults pool 4 in
      Alcotest.(check (float 1e-9)) "merged at most once" expected_sum total;
      check_bool "redeliveries counted" true (r.Cluster.redeliveries >= 4))

let test_straggler_recovered () =
  with_pool 2 (fun pool ->
      let faults = fast ~seed:3 ~stragglers:[ 2 ] () in
      let total, r = sum_run ~faults pool 4 in
      Alcotest.(check (float 1e-9)) "sum" expected_sum total;
      check_bool "straggler forced a retry" true (r.Cluster.retries > 0);
      check_bool "late reply discarded" true (r.Cluster.redeliveries > 0))

let test_corrupt_link_detected () =
  with_pool 2 (fun pool ->
      (* every reply corrupted on its first delivery would loop forever;
         corrupt only node 1's link and let retries win eventually *)
      let faults =
        fast ~seed:4
          ~faults_of:(function
            | Fault.From_node 1 -> { Fault.no_faults with corrupt = 0.7 }
            | _ -> Fault.no_faults)
          ()
      in
      let total, r = sum_run ~faults pool 4 in
      Alcotest.(check (float 1e-9)) "sum" expected_sum total;
      check_bool "corruption detected" true (r.Cluster.corrupt_drops > 0);
      check_bool "retried" true (r.Cluster.retries > 0))

let test_recovery_exhausted () =
  with_pool 2 (fun pool ->
      (* node 1 never delivers anything: attempts must run out *)
      let faults =
        fast ~seed:5 ~max_attempts:3
          ~faults_of:(function
            | Fault.To_node 1 -> { Fault.no_faults with drop = 1.0 }
            | _ -> Fault.no_faults)
          ()
      in
      check_bool "recovery exhausted raises" true
        (match sum_run ~faults pool 4 with
        | _ -> false
        | exception Cluster.Recovery_exhausted { worker = 1; attempts = 3 } ->
            true))

let test_work_exception_reraised () =
  with_pool 2 (fun pool ->
      (* a deterministic exception in [work] survives retries and is
         re-raised once recovery gives up *)
      let faults = fast ~seed:6 ~max_attempts:2 () in
      check_bool "work exception re-raised" true
        (match
           Cluster.run_topology ~pool ~faults (cfg 3)
             ~scatter:(fun _ -> Payload.empty)
             ~work:(fun ~node ~pool:_ _ ->
               if node = 1 then failwith "boom" else node)
             ~result_codec:Codec.int ~merge:( + ) ~init:0
         with
        | _ -> false
        | exception Failure msg -> msg = "boom"))

let test_merge_worker_order_under_faults () =
  with_pool 2 (fun pool ->
      (* a non-commutative merge: recovery must still fold worker 0
         first even though worker 1 crashed and resolved last *)
      let faults = fast ~seed:7 ~crash:(1, Fault.During_work) () in
      let order, _ =
        Cluster.run_topology ~pool ~faults (cfg 4)
          ~scatter:(fun node -> [ Payload.Ints [| node |] ])
          ~work:(fun ~node:_ ~pool:_ payload ->
            match payload with
            | [ Payload.Ints a ] -> a.(0)
            | _ -> -1)
          ~result_codec:Codec.int
          ~merge:(fun acc v -> acc @ [ v ])
          ~init:[]
      in
      Alcotest.(check (list int)) "worker order" [ 0; 1; 2; 3 ] order)

let deterministic_part (r : Cluster.report) =
  ( ( r.Cluster.scatter_bytes,
      r.Cluster.gather_bytes,
      r.Cluster.scatter_messages,
      r.Cluster.gather_messages,
      r.Cluster.max_message_bytes ),
    ( r.Cluster.retries,
      r.Cluster.redeliveries,
      r.Cluster.corrupt_drops,
      r.Cluster.crashed_nodes,
      r.Cluster.faults_injected ) )

let test_seeded_run_reproducible () =
  (* Same seed: bit-for-bit identical result and identical fault
     schedule (every deterministic report field).  Different seed:
     still the correct sum. *)
  with_pool 2 (fun pool ->
      let spec =
        fast ~seed:11 ~drop:0.15 ~duplicate:0.15 ~corrupt:0.15 ~delay:0.15
          ~crash:(2, Fault.During_work) ()
      in
      let t1, r1 = sum_run ~faults:spec pool 4 in
      let t2, r2 = sum_run ~faults:spec pool 4 in
      check_bool "results bit-for-bit equal" true (t1 = t2);
      check_bool "fault schedule reproduced" true
        (deterministic_part r1 = deterministic_part r2);
      check_bool "still correct" true (t1 = expected_sum);
      check_bool "nonzero recovery activity" true (r1.Cluster.retries > 0))

let test_encode_once_under_drops () =
  (* The retry loop re-sends cached bytes: even when injected drops
     force several delivery attempts per node, each (node, slice) pair
     is serialized exactly once.  Re-encoding inside the retry loop was
     a real regression — this pins the hoisted serialization. *)
  with_pool 2 (fun pool ->
      let faults =
        fast ~seed:21
          ~faults_of:(function
            | Fault.To_node _ -> { Fault.no_faults with drop = 0.5 }
            | Fault.From_node _ -> Fault.no_faults)
          ()
      in
      Stats.reset_encode_count ();
      let total, r = sum_run ~faults pool 4 in
      Alcotest.(check (float 1e-9)) "sum survives the drops" expected_sum total;
      check_bool "drops actually forced retries" true (r.Cluster.retries > 0);
      check_int "each (node, slice) encoded exactly once" 4
        (Stats.encode_count ()))

let prop_faulty_sum_correct =
  qtest ~count:15 "random seeds: faulty run = fault-free result"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      with_pool 2 (fun pool ->
          let faults =
            fast ~seed ~drop:0.1 ~duplicate:0.1 ~corrupt:0.1 ~delay:0.1 ()
          in
          let total, _ = sum_run ~faults pool 3 in
          total = expected_sum))

(* ------------------------------------------------------------------ *)
(* Kernels under the acceptance scenario: a single-node crash plus     *)
(* corruption and drops on every link, fixed seed                      *)

module D = Triolet_kernels.Dataset

let acceptance_spec seed =
  Fault.spec ~drop:0.05 ~corrupt:0.05 ~crash:(1, Fault.During_work)
    ~base_timeout:0.002 ~max_timeout:0.02 ~seed ()

let kernel_cases =
  [
    ( "mri-q",
      fun () ->
        let d = D.mriq ~seed:101 ~samples:48 ~voxels:120 in
        let reference = Triolet_kernels.Mriq.run_triolet d in
        fun () ->
          Triolet_kernels.Mriq.agrees ~eps:0.0 reference
            (Triolet_kernels.Mriq.run_triolet d) );
    ( "sgemm",
      fun () ->
        let a, b = D.sgemm_matrices ~seed:102 ~m:18 ~k:12 ~n:14 in
        let reference = Triolet_kernels.Sgemm.run_triolet a b in
        fun () ->
          Triolet_kernels.Sgemm.agrees ~eps:0.0 reference
            (Triolet_kernels.Sgemm.run_triolet a b) );
    ( "tpacf",
      fun () ->
        let d = D.tpacf ~seed:103 ~points:32 ~random_sets:3 in
        let reference = Triolet_kernels.Tpacf.run_triolet ~bins:12 d in
        fun () ->
          Triolet_kernels.Tpacf.agrees reference
            (Triolet_kernels.Tpacf.run_triolet ~bins:12 d) );
    (* cutcp accumulates float histograms as chunks complete on the
       work-stealing pool, so even fault-free runs differ in the last
       ulp: compare at the kernel's standard tolerance. *)
    ( "cutcp",
      fun () ->
        let d =
          D.cutcp ~seed:104 ~atoms:32 ~nx:8 ~ny:8 ~nz:8 ~spacing:0.5
            ~cutoff:1.5
        in
        let reference = Triolet_kernels.Cutcp.run_triolet d in
        fun () ->
          Triolet_kernels.Cutcp.agrees ~eps:1e-9 reference
            (Triolet_kernels.Cutcp.run_triolet d) );
  ]

let test_kernels_survive_fault_matrix () =
  Triolet.Exec.with_context (ctx 3) (fun () ->
      List.iter
        (fun (name, setup) ->
          let check = setup () in
          let ok, delta =
            Stats.measure (fun () ->
                Triolet.Exec.with_context
                  (Triolet.Exec.make ~faults:(Some (acceptance_spec 42)) ())
                  check)
          in
          check_bool (name ^ " equals fault-free result") true ok;
          check_bool (name ^ " recovered from the crash") true
            (delta.Stats.crashed_nodes > 0);
          check_bool (name ^ " shows retries") true (delta.Stats.retries > 0))
        kernel_cases)

let test_kernels_reproducible_under_seed () =
  Triolet.Exec.with_context (ctx 3) (fun () ->
      let name, setup = List.hd kernel_cases in
      ignore name;
      let check = setup () in
      let run () =
        Stats.measure (fun () ->
            Triolet.Exec.with_context
              (Triolet.Exec.make ~faults:(Some (acceptance_spec 7)) ())
              check)
      in
      let ok1, d1 = run () in
      let ok2, d2 = run () in
      check_bool "both correct" true (ok1 && ok2);
      check_int "same retries" d1.Stats.retries d2.Stats.retries;
      check_int "same redeliveries" d1.Stats.redeliveries d2.Stats.redeliveries;
      check_int "same corrupt drops" d1.Stats.corrupt_drops
        d2.Stats.corrupt_drops;
      check_int "same faults" d1.Stats.faults_injected d2.Stats.faults_injected;
      check_int "same crashes" d1.Stats.crashed_nodes d2.Stats.crashed_nodes)

let () =
  Alcotest.run "fault"
    [
      ( "codec",
        [
          Alcotest.test_case "checksummed roundtrip" `Quick
            test_checksummed_roundtrip;
          Alcotest.test_case "checksummed detects flip" `Quick
            test_checksummed_detects_flip;
          Alcotest.test_case "of_bytes rejects trailing" `Quick
            test_of_bytes_rejects_trailing;
          prop_checksummed_never_decodes_corruption;
          prop_plain_codec_roundtrip_still_exact;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic schedule" `Quick
            test_injector_deterministic;
          Alcotest.test_case "service injection deterministic" `Quick
            test_inject_deterministic;
          Alcotest.test_case "zero-rate service faults inert" `Quick
            test_inject_zero_rate_inert;
        ] );
      ( "cluster-recovery",
        [
          Alcotest.test_case "clean report unchanged" `Quick
            test_clean_report_unchanged;
          Alcotest.test_case "crash each phase" `Quick
            test_crash_each_phase_recovers;
          Alcotest.test_case "duplicates deduped" `Quick
            test_duplicate_replies_deduped;
          Alcotest.test_case "straggler" `Quick test_straggler_recovered;
          Alcotest.test_case "corrupt link" `Quick test_corrupt_link_detected;
          Alcotest.test_case "recovery exhausted" `Quick test_recovery_exhausted;
          Alcotest.test_case "work exception re-raised" `Quick
            test_work_exception_reraised;
          Alcotest.test_case "merge in worker order" `Quick
            test_merge_worker_order_under_faults;
          Alcotest.test_case "seeded run reproducible" `Quick
            test_seeded_run_reproducible;
          Alcotest.test_case "encode once under drops" `Quick
            test_encode_once_under_drops;
          prop_faulty_sum_correct;
        ] );
      ( "kernels-under-faults",
        [
          Alcotest.test_case "fault matrix correctness" `Quick
            test_kernels_survive_fault_matrix;
          Alcotest.test_case "seeded reproducibility" `Quick
            test_kernels_reproducible_under_seed;
        ] );
    ]
