(* Wire-protocol spec, framing codec (fuzzed), conformance trackers,
   and the model check of the real dispatch engine's supervision. *)

module Protocol = Triolet_runtime.Protocol
module Transport = Triolet_runtime.Transport
module DM = Triolet_sim.Dispatch_model
module Modelcheck = Triolet_sim.Modelcheck

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen prop)

(* --- framing ------------------------------------------------------ *)

let test_frame_roundtrip () =
  List.iter
    (fun kind ->
      let payload = Bytes.of_string "hello, fabric" in
      let frame = Protocol.encode_frame ~kind payload in
      let len, k = Protocol.decode_header frame 0 in
      check_int "len" (Bytes.length payload) len;
      check_bool "kind" true (k = kind);
      Alcotest.(check string)
        "payload" "hello, fabric"
        (Bytes.sub_string frame Protocol.header_len len))
    Protocol.all_kinds

let test_bad_frames () =
  (* Unknown kind byte. *)
  (try
     ignore (Protocol.kind_of_byte '\xff');
     Alcotest.fail "kind_of_byte accepted 0xff"
   with Protocol.Bad_frame _ -> ());
  (* Absurd length claim. *)
  let hdr = Bytes.make Protocol.header_len '\xff' in
  (try
     ignore (Protocol.decode_header hdr 0);
     Alcotest.fail "decode_header accepted absurd length"
   with Protocol.Bad_frame _ -> ());
  (* The transport's kind parser raises the typed exception too. *)
  try
    ignore (Transport.kind_of_byte '\x7f');
    Alcotest.fail "Transport.kind_of_byte accepted 0x7f"
  with Protocol.Bad_frame _ -> ()

(* Transport's kind constructors are the protocol's (a type equation,
   but pin the byte codec to the shared table as well). *)
let test_transport_shares_codec () =
  List.iter
    (fun k ->
      check_bool "byte" true
        (Transport.kind_to_byte k = Protocol.kind_to_byte k))
    [ Transport.Data; Transport.Err; Transport.Nack; Transport.Ping;
      Transport.Pong ]

(* Feed a stream of well-formed frames cut at arbitrary chunk
   boundaries; the decoder must reproduce exactly the input frame
   sequence. *)
let gen_frames =
  QCheck2.Gen.(
    list_size (1 -- 8)
      (pair (int_range 0 4) (string_size (0 -- 64))))

let kind_of_int i = List.nth Protocol.all_kinds i

let test_decoder_roundtrip =
  qtest "decoder roundtrip under arbitrary chunking"
    QCheck2.Gen.(pair gen_frames (list_size (0 -- 20) (int_range 1 13)))
    (fun (frames, cuts) ->
      let stream =
        String.concat ""
          (List.map
             (fun (ki, payload) ->
               Bytes.to_string
                 (Protocol.encode_frame ~kind:(kind_of_int ki)
                    (Bytes.of_string payload)))
             frames)
      in
      let d = Protocol.Decoder.create () in
      (* Cut the stream using the cut list as successive chunk sizes,
         cycling; then feed the remainder. *)
      let pos = ref 0 in
      let cuts = if cuts = [] then [ 7 ] else cuts in
      let rec feed_chunks i =
        if !pos < String.length stream then begin
          let n =
            min (List.nth cuts (i mod List.length cuts))
              (String.length stream - !pos)
          in
          Protocol.Decoder.feed d (Bytes.of_string (String.sub stream !pos n));
          pos := !pos + n;
          feed_chunks (i + 1)
        end
      in
      feed_chunks 0;
      let out = ref [] in
      let rec drain () =
        match Protocol.Decoder.pop d with
        | Some (k, p) ->
            out := (k, Bytes.to_string p) :: !out;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !out
      = List.map (fun (ki, p) -> (kind_of_int ki, p)) frames
      && Protocol.Decoder.consumed d = String.length stream)

(* Adversarial fuzz: a decoder fed arbitrary garbage must either
   produce frames, ask for more bytes, or raise the typed Bad_frame —
   never any other exception, never loop. *)
let test_decoder_fuzz =
  qtest "decoder never crashes on garbage"
    QCheck2.Gen.(list_size (0 -- 12) (string_size (0 -- 40)))
    (fun chunks ->
      let d = Protocol.Decoder.create () in
      let ok = ref true in
      (try
         List.iter
           (fun c ->
             Protocol.Decoder.feed d (Bytes.of_string c);
             let rec drain () =
               match Protocol.Decoder.pop d with
               | Some _ -> drain ()
               | None -> ()
             in
             drain ())
           chunks
       with
      | Protocol.Bad_frame _ -> ()
      | _ -> ok := false);
      !ok)

(* --- the spec ----------------------------------------------------- *)

let test_spec_is_closed () =
  check_int "no issues" 0 (List.length (Protocol.check Protocol.spec))

(* Seed the classic drift bug: the child may send Err, but the parent's
   live state has no rule for receiving it.  The audit must object. *)
let seeded_hole =
  let spec = Protocol.spec in
  {
    spec with
    Protocol.name = "seeded-hole";
    rules =
      List.filter
        (fun (r : Protocol.rule) ->
          not
            (r.role = Protocol.Parent && r.state = "live"
           && r.event = Protocol.Recv Protocol.Err))
        spec.rules;
  }

let test_seeded_unhandled_kind () =
  let issues = Protocol.check seeded_hole in
  check_bool "audit found the hole" true (issues <> []);
  check_bool "names the kind" true
    (List.exists
       (fun (i : Protocol.issue) ->
         i.issue_kind = Some Protocol.Err && i.issue_state = "live")
       issues);
  (* And through the analyzer pass, as error findings. *)
  let fs = Triolet_analysis.Protocol_lint.check_spec seeded_hole in
  check_bool "lint reports errors" true
    (Triolet_analysis.Passes.has_errors fs)

let test_action_lookup () =
  let act state ev =
    Protocol.action_for Protocol.spec ~role:Protocol.Parent ~state ev
  in
  check_bool "live pong" true (act "live" (Protocol.Recv Protocol.Pong) <> None);
  check_bool "live eof -> backoff" true
    (act "live" Protocol.Eof = Some (Protocol.Goto "backoff"));
  check_bool "backoff elapsed -> live" true
    (act "backoff" Protocol.Backoff_elapsed = Some (Protocol.Goto "live"));
  (* Miss_limit has no meaning while backed off — that hole is real and
     the tracker counts it as a violation if ever exercised. *)
  check_bool "backoff miss unruled" true (act "backoff" Protocol.Miss_limit = None)

(* --- runtime conformance trackers --------------------------------- *)

let test_tracker_follows_spec () =
  Protocol.reset_violations ();
  let t = Protocol.make_tracker Protocol.Parent ~id:"t0" in
  Alcotest.(check string) "initial" "live" (Protocol.tracker_state t);
  Protocol.step t (Protocol.Recv Protocol.Pong);
  Protocol.step t Protocol.Eof;
  Alcotest.(check string) "after eof" "backoff" (Protocol.tracker_state t);
  Protocol.step t Protocol.Backoff_elapsed;
  Alcotest.(check string) "respawned" "live" (Protocol.tracker_state t);
  check_int "no violations" 0 (Protocol.violations ())

let test_tracker_counts_violations () =
  Protocol.reset_violations ();
  let was_debug = Protocol.debug () in
  Protocol.set_debug false;
  let t = Protocol.make_tracker Protocol.Parent ~id:"t1" in
  Protocol.step t Protocol.Eof;
  (* backoff + Miss_limit: no rule *)
  Protocol.step t Protocol.Miss_limit;
  check_int "counted" 1 (Protocol.violations ());
  Protocol.set_debug true;
  (try
     Protocol.step t Protocol.Miss_limit;
     Alcotest.fail "debug step off-spec did not raise"
   with Protocol.Violation _ -> ());
  Protocol.set_debug was_debug;
  Protocol.reset_violations ()

(* --- the dispatch engine: a failed job keeps what its step did ----- *)

module D = Triolet_runtime.Dispatch

let engine ?timeout ?(supervised = true) ~nodes ~max_attempts () =
  D.create ~now:0
    {
      D.nodes;
      crc = true;
      policy = { max_attempts; timeout };
      supervision =
        (if supervised then
           Some { hb_interval = 1_000_000; miss_threshold = 4; backoff_base = 5; backoff_max = 20 }
         else None);
    }

let submit t n = D.step t (D.Submit { plans = List.init n (fun _ -> []); deadline = 0; pinned = false })
let failed acts = List.exists (function D.Job_failed _ -> true | _ -> false) acts
let task_seqs acts = List.filter_map (function D.Send (_, D.Task { seq; _ }) -> Some seq | _ -> None) acts

(* The EOF that exhausts a slice is still a death: the node backs off
   and is respawned, rather than staying "live" with no EOF to come. *)
let test_failed_eof_keeps_death () =
  let t, _ = submit (engine ~nodes:1 ~max_attempts:1 ()) 1 in
  let t, acts = D.step t (D.Eof 0) in
  check_bool "job failed" true (failed acts && t.D.job = None);
  let n = List.hd t.D.nodes in
  Alcotest.(check string) "node backs off" "backoff" n.D.proto;
  match n.D.respawn_at with
  | None -> Alcotest.fail "no respawn scheduled"
  | Some at ->
      let _, acts = D.step t (D.Tick at) in
      check_bool "respawned" true (List.mem (D.Respawn 0) acts)

(* Slice 0 is re-issued and slice 1 exhausts in the same tick: the seq
   spent on slice 0 stays spent, so a late reply to it can never pass
   for a slice of the next job. *)
let test_failed_tick_keeps_seqs () =
  let t, sent = submit (engine ~supervised:false ~timeout:(10, 10) ~nodes:2 ~max_attempts:2 ()) 2 in
  let nack = D.Envelope.(encode ~crc:true key ~slice:1 ~seq:1 (0, 0, 0)) in
  let t, renack = D.step t (D.Frame (1, Protocol.Nack, nack)) in
  let t, acts = D.step t (D.Tick 10) in
  check_bool "job failed" true (failed acts);
  check_bool "slice 0 re-issued first" true (task_seqs acts <> []);
  List.iter
    (fun seq -> check_bool (Printf.sprintf "seq %d spent" seq) true (seq < t.D.next_seq))
    (task_seqs (sent @ renack @ acts));
  let _, acts = submit t 2 in
  check_bool "next job's seqs are fresh" true (List.for_all (fun s -> s >= 4) (task_seqs acts))

(* A respawn performed in the tick that fails the job is not repeated. *)
let test_failed_tick_keeps_respawn () =
  let t, _ = submit (engine ~timeout:(10, 10) ~nodes:2 ~max_attempts:1 ()) 1 in
  let t, _ = D.step t (D.Eof 1) in
  let t, acts = D.step t (D.Tick 10) in
  check_bool "respawned and failed" true (List.mem (D.Respawn 1) acts && failed acts);
  let n = List.nth t.D.nodes 1 in
  check_bool "respawn consumed" true (n.D.respawn_at = None && n.D.proto = "live");
  let _, acts = D.step t (D.Tick 20) in
  check_bool "no second respawn" false (List.mem (D.Respawn 1) acts)

(* --- the dispatch engine, model-checked ---------------------------- *)

let test_heartbeat_clean () =
  let r = DM.check_supervision () in
  check_bool "no violation" true (r.Modelcheck.violation = None);
  check_bool "explored seriously" true (r.Modelcheck.states > 1000)

let test_heartbeat_catches_forget_inflight () =
  let r = DM.check_supervision ~bug:DM.Forget_inflight () in
  match r.Modelcheck.violation with
  | None -> Alcotest.fail "lost-slice bug not caught"
  | Some v ->
      check_bool "message" true
        (String.length v.Modelcheck.message > 0
        && v.Modelcheck.trace <> [])

let test_heartbeat_catches_stale_reply () =
  let r = DM.check_supervision ~bug:DM.No_stale_filter () in
  match r.Modelcheck.violation with
  | None -> Alcotest.fail "double-complete bug not caught"
  | Some v ->
      (* BFS reports a minimal witness; the shortest double-complete
         needs only: submit, handle, early timeout re-issue, handle,
         deliver, deliver — pin a tight bound so witness quality cannot
         silently regress. *)
      check_bool "minimal witness" true (List.length v.Modelcheck.trace <= 8)

(* Failure is explored, not forbidden: the clean engine passes, and a
   step that drops its own state changes when it fails the job is caught
   reusing a seq within five steps (submit, kill, EOF, timeout, submit). *)
let test_failure_clean () =
  let r = DM.check_failure () in
  check_bool "no violation" true (r.Modelcheck.violation = None);
  check_bool "explored seriously" true (r.Modelcheck.states > 1000)

let test_failure_catches_forgotten_step () =
  match (DM.check_failure ~bug:DM.Forget_failed_step ()).Modelcheck.violation with
  | None -> Alcotest.fail "forgotten failed step not caught"
  | Some v -> check_bool "minimal witness" true (List.length v.Modelcheck.trace <= 5)

let () =
  Alcotest.run "protocol"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip all kinds" `Quick test_frame_roundtrip;
          Alcotest.test_case "bad frames are typed" `Quick test_bad_frames;
          Alcotest.test_case "transport shares codec" `Quick
            test_transport_shares_codec;
          test_decoder_roundtrip;
          test_decoder_fuzz;
        ] );
      ( "spec",
        [
          Alcotest.test_case "live spec is closed" `Quick test_spec_is_closed;
          Alcotest.test_case "seeded unhandled kind caught" `Quick
            test_seeded_unhandled_kind;
          Alcotest.test_case "action lookup" `Quick test_action_lookup;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "tracker follows spec" `Quick
            test_tracker_follows_spec;
          Alcotest.test_case "tracker counts violations" `Quick
            test_tracker_counts_violations;
        ] );
      ( "engine failure",
        [
          Alcotest.test_case "exhausting EOF still a death" `Quick test_failed_eof_keeps_death;
          Alcotest.test_case "failed tick keeps spent seqs" `Quick test_failed_tick_keeps_seqs;
          Alcotest.test_case "failed tick keeps its respawn" `Quick test_failed_tick_keeps_respawn;
          Alcotest.test_case "failure model passes" `Slow test_failure_clean;
          Alcotest.test_case "forgotten failed step caught" `Quick test_failure_catches_forgotten_step;
        ] );
      ( "heartbeat model",
        [
          Alcotest.test_case "clean protocol passes" `Slow test_heartbeat_clean;
          Alcotest.test_case "forgotten in-flight slices caught" `Quick
            test_heartbeat_catches_forget_inflight;
          Alcotest.test_case "stale replies caught" `Quick
            test_heartbeat_catches_stale_reply;
        ] );
    ]
