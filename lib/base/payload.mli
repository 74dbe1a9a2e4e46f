(** Heterogeneous data payloads shipped between cluster nodes.

    A payload is the serializable image of an iterator slice's data
    source (paper, section 3.5): the list of buffers a remote task
    needs, extracted by slicing and rebuilt on the receiving side. *)

type buf =
  | Floats of floatarray  (** pointer-free array: block-copied *)
  | Slice of floatarray * int * int
      (** [Slice (a, off, len)]: elements [off, off+len) of [a], named
          in place so extracting a block copies nothing.  Encoded
          exactly as the [Floats] of those elements, and decoded as
          one.  Raises [Invalid_argument] at encoding if the range is
          outside [a]. *)
  | Ints of int array
  | Raw of string  (** opaque pre-encoded bytes *)

type t = buf list

val codec : t Codec.t

val size : t -> int
(** Exact serialized size in bytes. *)

val empty : t

val equal : t -> t -> bool
(** Bitwise content equality: float buffers compare by bit pattern (so
    [-0.0 <> 0.0] and a NaN equals the same NaN bits), ints and raw
    bytes by value.  A [Slice] equals the [Floats] of its elements. *)

(** {1 Layout accessors}

    Rebuild functions state the layout they expect; a mismatch raises
    [Invalid_argument] and indicates a slicing bug. *)

val floats_exn : buf -> floatarray
(** A [Slice] of a whole array is that array itself; any other slice
    is copied out. *)

val ints_exn : buf -> int array
val raw_exn : buf -> string

val ship : t -> t * int
(** [ship p] forces [p] through the wire format and returns the decoded
    copy together with its size in bytes — equivalent to a send plus
    receive on a real network, including the fresh-buffer guarantee. *)
