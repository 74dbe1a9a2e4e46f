(** The runtime's wire protocol: the frame kinds and the
    length-prefixed framing {!Transport} encodes and decodes through.
    The handling of each kind is the dispatch engine's and the node
    program's, in exhaustive matches over {!kind}. *)

type kind = Data | Err | Nack | Ping | Pong | Seg_put | Seg_reuse | Seg_free | Code
(** [Seg_put] installs a distributed-array segment's bytes in a child's
    resident table; [Seg_reuse] names an already-resident
    [(darray, segment, version)] key so an unchanged segment ships no
    bytes; [Seg_free] evicts a darray's segments.  [Code] carries a
    job's task code as closure bytes.  All four are parent-sent
    only. *)

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

(** {1 Frames} *)

type frame = private { buf : Bytes.t; off : int; len : int }
(** A frame's body in place: the [len] bytes of [buf] from [off].  A
    frame built to be sent ({!writer}, {!of_bytes}, {!copy}) has
    {!header_len} bytes of room before its body; a frame read from a
    socket is a view of the link's receive buffer, valid until the
    link's next read. *)

val view : ?off:int -> ?len:int -> Bytes.t -> frame
(** [view ~off ~len b] names bytes of [b] in place (defaults: all of
    them).  Raises [Invalid_argument] on a range outside [b]. *)

val writer : int -> Triolet_base.Rw.writer
(** A writer for a body of the given size, after {!header_len} reserved
    bytes: {!of_writer} hands its buffer over without a copy when the
    body fills it exactly. *)

val of_writer : Triolet_base.Rw.writer -> frame
(** The body a {!writer} holds; the writer must not be used again. *)

val of_bytes : Bytes.t -> frame
(** A copy of the bytes, with room for the header. *)

val copy : frame -> frame
(** A copy of the body, with room for the header: how a frame outlives
    the buffer it was read into. *)

val to_bytes : frame -> Bytes.t
(** A copy of the body alone. *)

val empty : unit -> frame
(** A fresh empty body, with room for the header. *)

val write_header : frame -> kind -> int
(** Writes the frame's header into the {!header_len} bytes before its
    body and returns where the whole frame starts in [buf]: on the wire
    it is the [header_len + len] bytes from there.  Raises
    [Invalid_argument] when the frame has no such room. *)

val decode_header : Bytes.t -> int -> int * kind
(** [decode_header buf off] decodes the header at [off], returning
    [(payload_len, kind)].  Raises {!Bad_frame} on a malformed header
    and [Invalid_argument] if [buf] does not hold {!header_len} bytes
    at [off]. *)
