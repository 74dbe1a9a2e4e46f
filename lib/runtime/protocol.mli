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

val encode_frame : ?kind:kind -> Bytes.t -> Bytes.t
(** [encode_frame ?kind payload] is the full wire frame
    (header + payload).  [kind] defaults to [Data]. *)

val decode_header : Bytes.t -> int -> int * kind
(** [decode_header buf off] decodes the header at [off], returning
    [(payload_len, kind)].  Raises {!Bad_frame} on a malformed header
    and [Invalid_argument] if [buf] does not hold {!header_len} bytes
    at [off]. *)
