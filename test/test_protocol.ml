(* Framing codec (fuzzed through the fabric's socket reader), the
   dispatch engine's handling of every frame kind in every node state,
   its failure and retry paths, and the model check of the real
   engine's supervision. *)

module Protocol = Triolet_runtime.Protocol
module Socket = Triolet_runtime.Transport.Socket
module DM = Triolet_sim.Dispatch_model
module Modelcheck = Triolet_sim.Modelcheck
module Payload = Triolet_base.Payload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen prop)

(* --- framing ------------------------------------------------------ *)

(* The bytes a frame of [payload] puts on the wire: the frame writer's
   buffer from its header on. *)
let wire kind payload =
  let f = Protocol.of_bytes payload in
  let start = Protocol.write_header f kind in
  Bytes.sub f.Protocol.buf start (Protocol.header_len + f.Protocol.len)

let test_frame_roundtrip () =
  List.iter
    (fun kind ->
      let payload = Bytes.of_string "hello, fabric" in
      let frame = wire kind payload in
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
  (* The fabric's socket reader raises the typed exception too. *)
  check_bool "socket reader rejects kind 0x7f" true
    (Socket_stream.replay [ "\000\000\000\004\x7fabcd" ] (fun b ->
         match Socket.recv b with
         | _ -> false
         | exception Protocol.Bad_frame _ -> true))

(* The socket transport puts exactly the protocol's frame bytes on the
   wire: header codec and kind bytes come from the shared table. *)
let test_transport_shares_codec () =
  let a, b = Socket.connect () in
  Fun.protect
    ~finally:(fun () -> Socket.close a; Socket.close b)
    (fun () ->
      List.iter
        (fun kind ->
          let payload = Bytes.of_string (Protocol.kind_name kind) in
          let expected = wire kind payload in
          Socket.send a ~kind (Protocol.of_bytes payload);
          check_bool (Protocol.kind_name kind) true
            (Socket.read_exactly b (Bytes.length expected) = Some expected))
        Protocol.all_kinds)

(* Write a stream of well-formed frames into a socket cut at arbitrary
   chunk boundaries; the fabric's reader must reproduce exactly the
   input frame sequence, then a clean EOF. *)
let gen_frames =
  QCheck2.Gen.(
    list_size (1 -- 8)
      (pair (int_range 0 (List.length Protocol.all_kinds - 1)) (string_size (0 -- 64))))

let kind_of_int i = List.nth Protocol.all_kinds i

let prop_chunked_roundtrip =
  qtest "decoder roundtrip under arbitrary chunking"
    QCheck2.Gen.(pair gen_frames (list_size (0 -- 20) (int_range 1 13)))
    (fun (frames, cuts) ->
      let stream =
        String.concat ""
          (List.map
             (fun (ki, payload) ->
               Bytes.to_string (wire (kind_of_int ki) (Bytes.of_string payload)))
             frames)
      in
      Socket_stream.replay (Socket_stream.chunks ~cuts stream) Socket_stream.frames
      = List.map (fun (ki, p) -> (kind_of_int ki, p)) frames)

(* Adversarial fuzz: the fabric's reader fed arbitrary garbage must
   either produce frames, reach EOF, or raise the typed Bad_frame —
   never any other exception, never hang. *)
let prop_garbage_fuzz =
  qtest "decoder never crashes on garbage"
    QCheck2.Gen.(list_size (0 -- 12) (string_size (0 -- 40)))
    (fun chunks ->
      match Socket_stream.replay chunks Socket_stream.frames with
      | _ -> true
      | exception (Protocol.Bad_frame _ | Triolet_runtime.Transport.Closed) -> true
      | exception _ -> false)

(* --- the dispatch engine: a failed job keeps what its step did ----- *)

module D = Triolet_runtime.Dispatch

let engine ?timeout ?(supervised = true) ~nodes ~max_attempts () =
  D.create ~now:0
    {
      D.nodes;
      policy = { max_attempts; timeout };
      supervision =
        (if supervised then
           Some { hb_interval = 1_000_000; miss_threshold = 4; backoff_base = 5; backoff_max = 20 }
         else None);
    }

let submit t n = D.step t (D.Submit { plans = List.init n (fun _ -> []); deadline = 0; pinned = false; code = None })
let failed acts = List.exists (function D.Job_failed _ -> true | _ -> false) acts
let task_seqs acts = List.filter_map (function D.Send (_, D.Task { seq; _ }) -> Some seq | _ -> None) acts

(* The EOF that exhausts a slice is still a death: the node backs off
   and is respawned, rather than staying "live" with no EOF to come. *)
let test_failed_eof_keeps_death () =
  let t, _ = submit (engine ~nodes:1 ~max_attempts:1 ()) 1 in
  let t, acts = D.step t (D.Eof 0) in
  check_bool "job failed" true (failed acts && t.D.job = None);
  let n = List.hd t.D.nodes in
  check_bool "node backs off" true (n.D.proto = D.Backoff);
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
  let nack = D.Envelope.(encode key ~slice:1 ~seq:1 (0, 0, 0)) in
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
  check_bool "respawn consumed" true (n.D.respawn_at = None && n.D.proto = D.Live);
  let _, acts = D.step t (D.Tick 20) in
  check_bool "no second respawn" false (List.mem (D.Respawn 1) acts)

(* --- every frame kind in every node state ---------------------------- *)

(* One node with one slice in flight and one ping unanswered, driven
   with a frame of every kind while live and while backed off, and with
   EOF, the miss verdict and the respawn.  A live node handles what a
   node sends and drops what only the parent sends; a backed-off node
   drops everything until its respawn.  Which kinds exist is the
   compiler's to check: [frame] and [on_live] match them exhaustively. *)
let spec_cfg =
  {
    D.nodes = 1;
    policy = { max_attempts = 4; timeout = None };
    supervision = Some { hb_interval = 10; miss_threshold = 1; backoff_base = 5; backoff_max = 20 };
  }

let spec_live () =
  let t, _ = submit (D.create spec_cfg ~now:0) 1 in
  let live, acts = D.step t (D.Tick 10) in
  check_bool "ping sent" true (acts = [ D.Send (0, D.Ping) ]);
  live

let spec_frame =
  let enc c v = D.Envelope.encode c ~slice:0 ~seq:0 v in
  let key = (0, 0, 0) in
  function
  | Protocol.Data -> enc Payload.codec [ Payload.Ints [| 1 |] ]
  | Err -> enc D.Envelope.err (Some "boom")
  | Nack | Seg_reuse -> enc D.Envelope.key key
  | Seg_put -> enc D.Envelope.put (key, [])
  | Seg_free -> enc Triolet_base.Codec.int 0
  | Ping | Pong -> Protocol.empty ()
  | Code -> Protocol.of_bytes (Bytes.of_string "code")

let spec_reissued = [ D.Send (0, D.Task { slice = 0; seq = 1 }); D.Note (D.Retry { slice = 0; node = 0 }) ]

let spec_node (t : D.t) = List.hd t.nodes

let spec_pin label t ev ~proto ~acts =
  let t', got = D.step t ev in
  check_bool (label ^ ": state") true ((spec_node t').D.proto = proto);
  check_bool (label ^ ": actions") true (got = acts);
  t'

let spec_eof live =
  let dead =
    spec_pin "live eof" live (D.Eof 0) ~proto:D.Backoff
      ~acts:[ D.Note (D.Death { node = 0; backoff = Some 5 }) ]
  in
  Alcotest.(check (option int)) "respawn scheduled" (Some 15) (spec_node dead).D.respawn_at;
  dead

(* A live node: every kind, and the miss verdict. *)
let test_spec_live () =
  let live = spec_live () in
  let on_live = function
    | Protocol.Data -> [ D.Slice_done (0, spec_frame Data) ]
    | Err -> [ D.Job_failed (D.Raised { slice = 0; msg = "boom" }) ]
    | Nack -> spec_reissued
    | Pong | Ping | Seg_put | Seg_reuse | Seg_free | Code -> []
  in
  List.iter
    (fun k ->
      let name = Protocol.kind_name k in
      let t' =
        spec_pin ("live " ^ name) live (D.Frame (0, k, spec_frame k)) ~proto:D.Live ~acts:(on_live k)
      in
      match k with
      | Pong -> check_int "pong answers the ping" 0 (spec_node t').D.unanswered
      | Ping | Seg_put | Seg_reuse | Seg_free | Code -> check_bool (name ^ " dropped") true (t' = live)
      | Data | Err | Nack -> ())
    Protocol.all_kinds;
  ignore (spec_pin "live miss verdict" live (D.Tick 20) ~proto:D.Live ~acts:[ D.Note (D.Miss 0); D.Kill 0 ])

(* A backed-off node: EOF put it there, and every kind and a second EOF
   are dropped. *)
let test_spec_backoff () =
  let dead = spec_eof (spec_live ()) in
  List.iter
    (fun k ->
      let name = Protocol.kind_name k in
      let t' = spec_pin ("backoff " ^ name) dead (D.Frame (0, k, spec_frame k)) ~proto:D.Backoff ~acts:[] in
      check_bool (name ^ " dropped while backed off") true (t' = dead))
    Protocol.all_kinds;
  check_bool "backoff eof dropped" true (spec_pin "backoff eof" dead (D.Eof 0) ~proto:D.Backoff ~acts:[] = dead)

(* The whole path: live, backed off until the respawn is due, live again
   with the lost slice re-issued. *)
let test_spec_live_backoff_live () =
  let dead = spec_eof (spec_live ()) in
  ignore (spec_pin "backoff before its respawn" dead (D.Tick 14) ~proto:D.Backoff ~acts:[]);
  let back = spec_pin "backoff respawn" dead (D.Tick 15) ~proto:D.Live ~acts:(D.Respawn 0 :: spec_reissued) in
  check_bool "respawn consumed" true ((spec_node back).D.respawn_at = None)

(* --- the dispatch engine's retry timer ------------------------------ *)

(* One slice whose node never answers is re-issued at base, 2·base,
   4·base… after each send, growing until the cap and then staying
   there: the timer is the engine's own, driven step by step. *)
let test_retry_backoff () =
  let base = 10 and cap = 50 in
  let t, acts = submit (engine ~supervised:false ~timeout:(base, cap) ~nodes:1 ~max_attempts:8 ()) 1 in
  check_int "first send" 1 (List.length (task_seqs acts));
  ignore
    (List.fold_left
      (fun (t, now) gap ->
        let due = now + gap in
        Alcotest.(check (option int)) "next deadline" (Some due) (D.next_deadline t);
        let t, early = D.step t (D.Tick (due - 1)) in
        check_int (Printf.sprintf "no re-issue before %d" due) 0 (List.length (task_seqs early));
        let t, acts = D.step t (D.Tick due) in
        check_int (Printf.sprintf "re-issued at %d" due) 1 (List.length (task_seqs acts));
        (t, due))
      (t, 0)
      [ base; 2 * base; 4 * base; cap; cap; cap ])

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

(* The warm fabric's jobs ship code: the clean engine passes, and code
   shipped with a session's first job only is caught as soon as the
   second job's first task runs on the first job's code. *)
(* A node that answers a ping with a ping puts a kind on the wire that
   only the parent sends.  The engine would drop it and later kill the
   node for silence, so nothing but the direction check objects. *)
let test_heartbeat_catches_ping_echo () =
  match (DM.check_supervision ~bug:DM.Ping_echo ()).Modelcheck.violation with
  | None -> Alcotest.fail "a node sending Ping not caught"
  | Some v -> Alcotest.(check string) "names the frame" "n0 sends Ping" v.Modelcheck.message

let test_cluster_clean () =
  let r = DM.check_cluster () in
  check_bool "no violation" true (r.Modelcheck.violation = None);
  check_bool "explored seriously" true (r.Modelcheck.states > 1000)

let test_cluster_catches_code_once () =
  match (DM.check_cluster ~bug:DM.Code_once ()).Modelcheck.violation with
  | None -> Alcotest.fail "stale task code not caught"
  | Some v ->
      check_bool "names the code" true
        (Str.string_match (Str.regexp ".*without its job's code") v.Modelcheck.message 0)

(* Session-lifetime code (Darray, Service): a node whose EOF does not
   clear its code generation has a replacement that is never sent the
   code, caught when that replacement runs its first task. *)
let test_failure_catches_code_kept_on_death () =
  match (DM.check_failure ~bug:DM.Code_kept_on_death ()).Modelcheck.violation with
  | None -> Alcotest.fail "code kept across a death not caught"
  | Some v ->
      check_bool "names the code" true
        (Str.string_match (Str.regexp ".*without its job's code") v.Modelcheck.message 0)

let () =
  Alcotest.run "protocol"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip all kinds" `Quick test_frame_roundtrip;
          Alcotest.test_case "bad frames are typed" `Quick test_bad_frames;
          Alcotest.test_case "transport shares codec" `Quick
            test_transport_shares_codec;
          prop_chunked_roundtrip;
          prop_garbage_fuzz;
        ] );
      ( "spec",
        [
          Alcotest.test_case "live spec is closed" `Quick test_spec_live;
          Alcotest.test_case "action lookup" `Quick test_spec_backoff;
        ] );
      ( "conformance",
        [ Alcotest.test_case "tracker follows spec" `Quick test_spec_live_backoff_live ] );
      ( "engine failure",
        [
          Alcotest.test_case "exhausting EOF still a death" `Quick test_failed_eof_keeps_death;
          Alcotest.test_case "failed tick keeps spent seqs" `Quick test_failed_tick_keeps_seqs;
          Alcotest.test_case "failed tick keeps its respawn" `Quick test_failed_tick_keeps_respawn;
          Alcotest.test_case "failure model passes" `Slow test_failure_clean;
          Alcotest.test_case "forgotten failed step caught" `Quick test_failure_catches_forgotten_step;
          Alcotest.test_case "code kept on death caught" `Quick test_failure_catches_code_kept_on_death;
        ] );
      ( "engine retry",
        [ Alcotest.test_case "timeout backoff doubles to cap" `Quick test_retry_backoff ] );
      ( "cluster model",
        [
          Alcotest.test_case "clean protocol passes" `Quick test_cluster_clean;
          Alcotest.test_case "code shipped once caught" `Quick test_cluster_catches_code_once;
        ] );
      ( "heartbeat model",
        [
          Alcotest.test_case "clean protocol passes" `Slow test_heartbeat_clean;
          Alcotest.test_case "forgotten in-flight slices caught" `Quick
            test_heartbeat_catches_forget_inflight;
          Alcotest.test_case "stale replies caught" `Quick
            test_heartbeat_catches_stale_reply;
          Alcotest.test_case "ping echo caught" `Quick test_heartbeat_catches_ping_echo;
        ] );
    ]
