(** The cluster's one wire: length-prefixed byte frames over OS sockets.

    {!Socket} writes each frame to a [socketpair] as its {!Protocol}
    header and body, in one write from the buffer the frame was built
    in, and reads each into the link's own grow-only receive buffer.
    {!Proc} is the process fabric the multi-process backend builds on:
    one forked child per node with a socket channel back to the parent,
    replies multiplexed with [select], children torn down with an
    EOF-then-SIGKILL grace protocol.  Frame headers are transport
    framing, not payload: byte accounting counts bodies only, so the
    in-process and process backends report identical traffic for
    identical work.  OCaml cannot fork once any domain has been
    spawned, so a fabric must be forked (and a dead node respawned)
    before the first domain — see DESIGN.md, Transports. *)

exception Closed
(** The endpoint (or its peer) is closed: no further frames will ever
    arrive.  A socket EOF. *)

module Socket : sig
  type t
  (** One end of a link, with its receive buffer. *)

  val connect : unit -> t * t
  (** A linked endpoint pair: frames sent on one arrive on the other,
      whole and in order. *)

  val of_fd : Unix.file_descr -> t

  val send : t -> ?kind:Protocol.kind -> Protocol.frame -> unit
  (** Ship one frame ([kind] defaults to [Data]): its header into the
      room before its body ({!Protocol.write_header}), then header and
      body in one write.  Raises {!Closed} if the channel is down. *)

  val recv : t -> Protocol.kind * Protocol.frame
  (** Blocking receive of the next whole frame: a view of the receive
      buffer, which the next receive on [t] overwrites.  Raises
      {!Closed} once the channel is closed or the peer is gone, and
      [Protocol.Bad_frame] on a malformed header. *)

  val try_recv : t -> (Protocol.kind * Protocol.frame) option
  (** {!recv}, with [None] for a clean EOF at a frame boundary. *)

  val write_all : t -> Bytes.t -> unit
  (** Raw bytes, unframed: a test's hand-made stream. *)

  val read_exactly : t -> int -> Bytes.t option
  (** Exactly that many raw bytes, in a fresh buffer; [None] on a clean
      EOF before the first. *)

  val close : t -> unit
  (** Tear the endpoint down; the peer reads EOF once it has drained
      the frames already buffered.  Idempotent. *)
end

module Proc : sig
  type node = private {
    id : int;
    mutable pid : int;  (** current incarnation; replaced on respawn *)
    mutable chan : Socket.t;  (** parent-side endpoint *)
    mutable alive : bool;
        (** false once the parent saw EOF or a malformed frame *)
    mutable reaped : bool;  (** the current [pid] has been waited for *)
  }

  type t

  val node : t -> int -> node
  val pid : t -> int -> int
  val is_alive : t -> int -> bool
  val alive_ids : t -> int list

  val parent_ends : Socket.t list Atomic.t
  (** Every parent-side endpoint of every live fabric in this process,
      which every forked child closes first. *)

  val on_fork_child : (unit -> unit) -> unit
  (** Forget, in every forked child, state it must not inherit. *)

  val fork : n:int -> child:(id:int -> Socket.t -> unit) -> t
  (** Fork [n] children.  Each closes every descriptor except its own
      channel, runs [child ~id chan], and [_exit]s.  Must be called
      before any domain has been spawned in this process. *)

  val recv_any :
    ?wake:Unix.file_descr ->
    t ->
    timeout:float ->
    [ `Msg of int * Protocol.kind * Protocol.frame
    | `Eof of int
    | `Timeout
    | `No_nodes
    | `Wake ]
  (** The next frame from any live child (a view of that link's receive
      buffer), that child's EOF, a timeout, or [`Wake] once [wake] is
      readable.  EOF and a malformed header both mark the node dead and
      close its channel. *)

  val kill : t -> int -> unit
  (** SIGKILL node [i]'s current incarnation; its EOF surfaces in
      {!recv_any}. *)

  val respawn : t -> int -> child:(id:int -> Socket.t -> unit) -> unit
  (** Replace dead node [i] with a fresh child.  Same fork rule as
      {!fork}. *)

  val shutdown : ?grace:float -> t -> unit
  (** Close every channel and reap every child, escalating to SIGKILL
      after [grace] seconds.  Idempotent; never raises. *)
end
