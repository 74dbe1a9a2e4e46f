(** The runtime's wire protocol, reified as data.

    One source of truth for the frame kinds, the length-prefixed
    framing, and the supervisor/child state machine.  {!Transport}
    encodes and decodes through it; the dispatch engine advances its
    per-node state with {!action_for}; child serve loops replay their
    events through {!tracker}s; and [triolet analyze --protocol] gates
    on {!check} returning no holes. *)

(** {1 Frame kinds and framing} *)

type kind = Data | Err | Nack | Ping | Pong | Seg_put | Seg_reuse | Seg_free
(** [Seg_put] installs a distributed-array segment's bytes in a child's
    resident table; [Seg_reuse] names an already-resident
    [(darray, segment, version)] key so an unchanged segment ships no
    bytes; [Seg_free] evicts a darray's segments.  All three are
    parent-sent only. *)

exception Bad_frame of string
(** Typed rejection for anything that cannot be a frame: unknown kind
    byte, negative or absurd payload length.  Replaces the old
    [Invalid_argument] from the transport's kind parser. *)

val all_kinds : kind list
val kind_name : kind -> string

val kind_to_byte : kind -> char

val kind_of_byte : char -> kind
(** Raises {!Bad_frame} on an unknown byte. *)

val header_len : int
(** Bytes of frame header: 4-byte big-endian payload length + 1 kind
    byte. *)

val max_frame_payload : int
(** Upper bound on a sane payload length; longer claims are treated as
    stream corruption ({!Bad_frame}), not allocation requests. *)

val encode_frame : ?kind:kind -> Bytes.t -> Bytes.t
(** [encode_frame ?kind payload] is the full wire frame
    (header + payload).  [kind] defaults to [Data]. *)

val decode_header : Bytes.t -> int -> int * kind
(** [decode_header buf off] decodes the header at [off], returning
    [(payload_len, kind)].  Raises {!Bad_frame} on a malformed header
    and [Invalid_argument] if [buf] does not hold {!header_len} bytes
    at [off]. *)

(** Pure incremental frame decoder: feed byte chunks cut at arbitrary
    boundaries, pop whole frames.  Exists so the framing contract can
    be fuzzed without sockets. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> unit

  val pop : t -> (kind * Bytes.t) option
  (** Next complete frame, or [None] if more bytes are needed.  Raises
      {!Bad_frame} as soon as a buffered header is malformed. *)

  val buffered : t -> int
  (** Bytes fed but not yet popped as part of a whole frame. *)

  val consumed : t -> int
  (** Total bytes returned as whole frames so far. *)
end

(** {1 The state machine, as data} *)

type role = Parent | Child

val role_name : role -> string
val peer : role -> role

type event =
  | Recv of kind  (** a frame of this kind arrived *)
  | Eof  (** channel end-of-file: the peer process is gone *)
  | Miss_limit  (** heartbeat misses reached the threshold *)
  | Backoff_elapsed  (** the respawn backoff timer fired *)

val event_name : event -> string

(** [Goto s] moves to state [s]; [Stay] consumes the event in place;
    [Drop] discards it as harmless noise.  No rule at all is a
    conformance violation. *)
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
}

val spec : spec
(** The fabric's actual protocol: parent states ["live"]/["backoff"],
    child states ["serving"]/["stopped"], heartbeat + respawn
    lifecycle. *)

val states : spec -> role -> string list
val initial : spec -> role -> string
val action_for : spec -> role:role -> state:string -> event -> action option

val sendable : spec -> role -> kind -> bool
(** May [role] ever put a frame of this kind on the wire? *)

(** {1 Spec audit} *)

type issue = {
  issue_role : role;
  issue_state : string;
  issue_kind : kind option;  (** the unhandled kind, when that's the hole *)
  issue_msg : string;
}

val issue_to_string : issue -> string

val check : spec -> issue list
(** Audit the spec: initial states declared, rules and [Goto] targets
    on declared states, no duplicate (role, state, event) rules, and —
    the drift check — every kind any role can send has a [Recv] rule
    in {e every} state of the peer.  [[]] means the spec is closed. *)

(** {1 Runtime conformance} *)

exception Violation of string

val violations : unit -> int
(** Process-wide count of events stepped with no matching rule. *)

val reset_violations : unit -> unit

val violation : string -> unit
(** Record one off-spec event: counted in {!violations}, raised as
    {!Violation} under {!debug}. *)

val set_debug : bool -> unit
(** In debug mode a missing rule raises {!Violation} instead of only
    counting.  Initialized from [TRIOLET_PROTOCOL_DEBUG=1]. *)

val debug : unit -> bool

type tracker
(** One endpoint's live position in the state machine. *)

val make_tracker : ?spec:spec -> role -> id:string -> tracker
val tracker_state : tracker -> string

val step : tracker -> event -> unit
(** Replay one real event.  Counts (and, under {!debug}, raises) on a
    missing rule; otherwise follows the spec. *)
