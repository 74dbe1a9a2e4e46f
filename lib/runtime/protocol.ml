(** The runtime's wire protocol, reified as data.

    Everything the fabric puts on a socket — frame kinds, the
    length-prefixed framing, and the supervisor/child heartbeat and
    request lifecycle — used to live implicitly in {!Transport},
    {!Service} and the supervisor as pattern matches that could silently
    drift apart.  This module is the single source all of them (and the
    analyzer, and the model checker) consume:

    - {b frame kinds and framing}: {!kind}, the byte tags, and the
      5-byte header codec {!Transport.Socket} writes and reads.  A
      malformed header is the typed {!Bad_frame}, never a crash or a
      mis-split; the tests fuzz that property through the socket
      reader itself.
    - {b the state machine} ({!spec}): per-role states and the rule
      table saying, for every state and every event (frame arrival,
      EOF, heartbeat-miss verdict, respawn-backoff expiry), what the
      protocol does.  {!check} audits a spec for completeness — every
      frame kind a role can send must have a handler in {b every} state
      of the peer — which is what [triolet analyze --protocol] gates.
    - {b conformance} ({!tracker}): the runtime replays its real events
      through the spec.  A step the spec has no rule for increments
      {!violations} (and raises {!Violation} when {!set_debug}[ true],
      as the test suite runs), so the shipped code cannot quietly
      diverge from the checked machine.
    - {b one reader}: {!action_for} is the lookup the dispatch engine
      ({!Dispatch.step}) advances its per-node state with, so the
      model-checked engine and the running code read the same table. *)

(* ------------------------------------------------------------------ *)
(* Frame kinds.                                                        *)

(** [Data] carries protocol payload; [Err] a remote failure report;
    [Nack] a rejected frame (e.g. a corrupt envelope); [Ping]/[Pong]
    are the supervision heartbeat.  [Seg_put] installs a distributed
    array segment's bytes in a child's resident table; [Seg_reuse]
    names an already-resident [(darray, segment, version)] so an
    unchanged segment ships only its key; [Seg_free] evicts a
    darray's segments when the array is released.  [Code] carries a
    job's task code — the node's serve function marshalled with its
    closures — to a child of the same binary. *)
type kind = Data | Err | Nack | Ping | Pong | Seg_put | Seg_reuse | Seg_free | Code

(* New kinds append at the end: generators index this list. *)
let all_kinds = [ Data; Err; Nack; Ping; Pong; Seg_put; Seg_reuse; Seg_free; Code ]

let kind_name = function
  | Data -> "Data"
  | Err -> "Err"
  | Nack -> "Nack"
  | Ping -> "Ping"
  | Pong -> "Pong"
  | Seg_put -> "Seg_put"
  | Seg_reuse -> "Seg_reuse"
  | Seg_free -> "Seg_free"
  | Code -> "Code"

exception Bad_frame of string
(** A frame that cannot be on the wire: unknown kind byte or a
    negative payload length.  The typed rejection every decoder in the
    runtime raises — callers absorb it like a corrupt envelope, they
    never see [Invalid_argument]. *)

let () =
  Printexc.register_printer (function
    | Bad_frame msg -> Some (Printf.sprintf "Protocol.Bad_frame(%s)" msg)
    | _ -> None)

let kind_to_byte = function
  | Data -> '\000'
  | Err -> '\001'
  | Nack -> '\002'
  | Ping -> '\003'
  | Pong -> '\004'
  | Seg_put -> '\005'
  | Seg_reuse -> '\006'
  | Seg_free -> '\007'
  | Code -> '\008'

let kind_of_byte = function
  | '\000' -> Data
  | '\001' -> Err
  | '\002' -> Nack
  | '\003' -> Ping
  | '\004' -> Pong
  | '\005' -> Seg_put
  | '\006' -> Seg_reuse
  | '\007' -> Seg_free
  | '\008' -> Code
  | c -> raise (Bad_frame (Printf.sprintf "unknown kind byte %d" (Char.code c)))

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian payload length, 1 kind byte, payload.    *)

let header_len = 5
let max_frame_payload = 1 lsl 30

let encode_frame ?(kind = Data) payload =
  let len = Bytes.length payload in
  let frame = Bytes.create (header_len + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.set frame 4 (kind_to_byte kind);
  Bytes.blit payload 0 frame header_len len;
  frame

(** [decode_header buf off] reads one header at [off]; the payload
    occupies the next [len] bytes.  Raises {!Bad_frame} on an unknown
    kind byte or a length outside [0, max_frame_payload] — a negative
    32-bit field or an absurd length means the stream is not framed
    data, and treating it as a count would over-read. *)
let decode_header buf off =
  if off < 0 || off + header_len > Bytes.length buf then
    invalid_arg "Protocol.decode_header: out of bounds";
  let len = Int32.to_int (Bytes.get_int32_be buf off) in
  if len < 0 || len > max_frame_payload then
    raise (Bad_frame (Printf.sprintf "bad payload length %d" len));
  let kind = kind_of_byte (Bytes.get buf (off + 4)) in
  (len, kind)

(* ------------------------------------------------------------------ *)
(* The supervision/request state machine, as data.                     *)

(** [Parent] is the supervisor's view of one child connection; [Child]
    is a forked worker's view of its channel to the parent. *)
type role = Parent | Child

let role_name = function Parent -> "parent" | Child -> "child"
let peer = function Parent -> Child | Child -> Parent

type event =
  | Recv of kind  (** a frame of this kind arrived *)
  | Eof  (** the channel reached end-of-file (peer process gone) *)
  | Miss_limit  (** heartbeat misses hit the threshold: death verdict *)
  | Backoff_elapsed  (** the respawn backoff timer fired *)

let event_name = function
  | Recv k -> "recv " ^ kind_name k
  | Eof -> "eof"
  | Miss_limit -> "miss-limit"
  | Backoff_elapsed -> "backoff-elapsed"

(** What a rule does: move to another state, stay (the frame was
    consumed by the protocol), or drop the input as harmless noise
    (stale traffic from a dead incarnation, a kind this role only
    sends).  An event with {e no} rule is a conformance violation. *)
type action = Goto of string | Stay | Drop

type rule = { role : role; state : string; event : event; action : action }

type spec = {
  name : string;
  parent_states : string list;
  child_states : string list;
  parent_initial : string;
  child_initial : string;
  rules : rule list;
  sends : (role * string * kind list) list;
      (** which kinds a role may put on the wire in which state *)
}

let states spec = function
  | Parent -> spec.parent_states
  | Child -> spec.child_states

let initial spec = function
  | Parent -> spec.parent_initial
  | Child -> spec.child_initial

let lookup spec ~role ~state event =
  List.find_map
    (fun r ->
      if r.role = role && r.state = state && r.event = event then
        Some r.action
      else None)
    spec.rules


(** The fabric's actual protocol.

    Parent-side states (per child): ["live"] — the child's socket is
    open and pings are being answered; ["backoff"] — the child is dead
    (EOF seen) and a respawn is scheduled.  [Miss_limit] in ["live"]
    does not change state by itself: the verdict is realized as a
    SIGKILL whose EOF comes back through the one death path.

    Child-side states: ["serving"] — echo pings, compute data frames;
    ["stopped"] — channel closed, nothing further.  A child drops
    [Err]/[Nack]/[Pong] (kinds only it sends); a parent drops [Ping]
    and the parent-only [Seg_*] kinds likewise, and drops everything in
    ["backoff"] (stale frames of a dead incarnation).

    The segment kinds ride the same channel as everything else: a
    serving child consumes [Seg_put] (install bytes), [Seg_reuse]
    (assert residency of a version) and [Seg_free] (evict) in place;
    it answers with plain [Data]/[Nack] frames, so no new child-side
    send kinds appear.  [Code] is parent-sent too: a serving child
    installs the task code it carries and answers nothing. *)
let spec =
  let parent_rules =
    List.map
      (fun k -> { role = Parent; state = "live"; event = Recv k; action = Stay })
      [ Data; Err; Nack; Pong ]
    @ List.map
        (fun k ->
          { role = Parent; state = "live"; event = Recv k; action = Drop })
        [ Ping; Seg_put; Seg_reuse; Seg_free; Code ]
    @ [
        { role = Parent; state = "live"; event = Eof; action = Goto "backoff" };
        { role = Parent; state = "live"; event = Miss_limit; action = Stay };
        { role = Parent; state = "backoff"; event = Eof; action = Drop };
        {
          role = Parent;
          state = "backoff";
          event = Backoff_elapsed;
          action = Goto "live";
        };
      ]
    @ List.map
        (fun k ->
          { role = Parent; state = "backoff"; event = Recv k; action = Drop })
        all_kinds
  in
  let child_rules =
    List.map
      (fun k ->
        { role = Child; state = "serving"; event = Recv k; action = Stay })
      [ Ping; Data; Seg_put; Seg_reuse; Seg_free; Code ]
    @ [
        { role = Child; state = "serving"; event = Eof; action = Goto "stopped" };
      ]
    @ List.map
        (fun k ->
          { role = Child; state = "serving"; event = Recv k; action = Drop })
        [ Err; Nack; Pong ]
    @ List.map
        (fun k ->
          { role = Child; state = "stopped"; event = Recv k; action = Drop })
        all_kinds
  in
  {
    name = "fabric";
    parent_states = [ "live"; "backoff" ];
    child_states = [ "serving"; "stopped" ];
    parent_initial = "live";
    child_initial = "serving";
    rules = parent_rules @ child_rules;
    sends =
      [
        (Parent, "live", [ Ping; Data; Seg_put; Seg_reuse; Seg_free; Code ]);
        (Child, "serving", [ Pong; Data; Err; Nack ]);
      ];
  }

(* The engine consults the live spec on every frame: index it once. *)
let index =
  lazy
    (let tbl = Hashtbl.create 64 in
     List.iter (fun r -> Hashtbl.replace tbl (r.role, r.state, r.event) r.action) spec.rules;
     tbl)

let action_for s ~role ~state event =
  if s == spec then Hashtbl.find_opt (Lazy.force index) (role, state, event)
  else lookup s ~role ~state event

(* ------------------------------------------------------------------ *)
(* Spec audit.                                                         *)

type issue = {
  issue_role : role;  (** whose state machine is incomplete *)
  issue_state : string;
  issue_kind : kind option;  (** the unhandled kind, when that's the hole *)
  issue_msg : string;
}

let issue_to_string i =
  Printf.sprintf "protocol %s/%s: %s" (role_name i.issue_role) i.issue_state
    i.issue_msg

(** Audit [spec] as data: every frame kind any state of a role can
    send must have a [Recv] rule in {e every} state of the peer (a
    frame can arrive whenever the socket is open, whatever the
    receiver thinks is going on); every rule must name declared
    states; no (role, state, event) may have two rules.  Returns the
    holes — the empty list is what the [analyze] gate requires. *)
let check spec =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let declared role st = List.mem st (states spec role) in
  (* initial states exist *)
  List.iter
    (fun role ->
      if not (declared role (initial spec role)) then
        add
          {
            issue_role = role;
            issue_state = initial spec role;
            issue_kind = None;
            issue_msg = "initial state not declared";
          })
    [ Parent; Child ];
  (* rules name declared states, gotos land on declared states *)
  List.iter
    (fun r ->
      if not (declared r.role r.state) then
        add
          {
            issue_role = r.role;
            issue_state = r.state;
            issue_kind = None;
            issue_msg =
              Printf.sprintf "rule on undeclared state (event %s)"
                (event_name r.event);
          };
      match r.action with
      | Goto st when not (declared r.role st) ->
          add
            {
              issue_role = r.role;
              issue_state = r.state;
              issue_kind = None;
              issue_msg =
                Printf.sprintf "rule for %s goes to undeclared state %s"
                  (event_name r.event) st;
            }
      | _ -> ())
    spec.rules;
  (* determinism *)
  let rec dup_scan = function
    | [] -> ()
    | r :: rest ->
        if
          List.exists
            (fun r' ->
              r'.role = r.role && r'.state = r.state && r'.event = r.event)
            rest
        then
          add
            {
              issue_role = r.role;
              issue_state = r.state;
              issue_kind = None;
              issue_msg =
                Printf.sprintf "duplicate rule for %s" (event_name r.event);
            };
        dup_scan rest
  in
  dup_scan spec.rules;
  (* completeness: peer handles every sendable kind in every state *)
  List.iter
    (fun (sender, _, kinds) ->
      let receiver = peer sender in
      List.iter
        (fun k ->
          List.iter
            (fun st ->
              match action_for spec ~role:receiver ~state:st (Recv k) with
              | Some _ -> ()
              | None ->
                  add
                    {
                      issue_role = receiver;
                      issue_state = st;
                      issue_kind = Some k;
                      issue_msg =
                        Printf.sprintf
                          "no handler for frame kind %s (sendable by %s)"
                          (kind_name k) (role_name sender);
                    })
            (states spec receiver))
        kinds)
    spec.sends;
  List.rev !issues

(** [sendable spec role k]: may [role] ever put a [k] frame on the
    wire?  The analyzer's drift check compares this against the kinds
    the runtime source actually sends. *)
let sendable spec role k =
  List.exists (fun (r, _, ks) -> r = role && List.mem k ks) spec.sends

(* ------------------------------------------------------------------ *)
(* Runtime conformance.                                                *)

exception Violation of string

let violation_count = Atomic.make 0

(** Events stepped through a tracker that the spec had no rule for,
    process-wide.  Always counted, raised only in debug mode — the
    release runtime absorbs a conformance bug like any other fault. *)
let violations () = Atomic.get violation_count

let reset_violations () = Atomic.set violation_count 0

let debug_flag =
  ref
    (match Sys.getenv_opt "TRIOLET_PROTOCOL_DEBUG" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_debug b = debug_flag := b
let debug () = !debug_flag

(** Record one off-spec event: counted always, raised under {!debug}. *)
let violation msg =
  Atomic.incr violation_count;
  if !debug_flag then raise (Violation msg)

(** One endpoint's live position in the state machine.  The runtime
    owns one per real connection end (the supervisor: one [Parent]
    tracker per child slot; a forked worker: one [Child] tracker). *)
type tracker = {
  t_role : role;
  t_id : string;
  t_spec : spec;
  mutable t_state : string;
}

let make_tracker ?(spec = spec) role ~id =
  { t_role = role; t_id = id; t_spec = spec; t_state = initial spec role }

let tracker_state t = t.t_state

(** Replay one real event through the spec.  [Goto]/[Stay]/[Drop] are
    conformance; a missing rule is counted in {!violations} and raised
    as {!Violation} under {!debug}. *)
let step t event =
  match action_for t.t_spec ~role:t.t_role ~state:t.t_state event with
  | Some (Goto st) -> t.t_state <- st
  | Some (Stay | Drop) -> ()
  | None ->
      violation
        (Printf.sprintf "%s[%s] in state %s: no rule for %s" (role_name t.t_role)
           t.t_id t.t_state (event_name event))
