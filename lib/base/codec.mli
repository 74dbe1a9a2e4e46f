(** Composable serialization codecs.

    Triolet's compiler generates serialization code from algebraic data
    type definitions (paper, section 3.4); this module provides the
    equivalent as combinators.  A ['a t] couples an encoder, a decoder,
    and an exact wire-size function used for byte accounting by the
    cluster runtime and the simulator. *)

type 'a t = {
  encode : Rw.writer -> 'a -> unit;
  decode : Rw.reader -> 'a;
  size : 'a -> int;  (** exact encoded size, without encoding *)
}

val make :
  encode:(Rw.writer -> 'a -> unit) ->
  decode:(Rw.reader -> 'a) ->
  size:('a -> int) ->
  'a t

(** {1 Primitive codecs} *)

val unit : unit t
val int : int t
val float : float t
val bool : bool t
val string : string t

val floatarray : floatarray t
(** Flat block of 8-byte words: the compact wire format of pointer-free
    arrays. *)

val int_array : int array t

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t

val array : 'a t -> 'a array t
(** Length header plus per-element encoding (boxed representation —
    contrast with {!floatarray}). *)

val list : 'a t -> 'a list t

val map : inj:('a -> 'b) -> proj:('b -> 'a) -> 'a t -> 'b t
(** Codec for an isomorphic type. *)

(** {1 Whole-value helpers} *)

exception Trailing_bytes of int
(** Raised by {!of_bytes} (and the {!checksummed} envelope) when a
    decode leaves the given number of bytes unconsumed: the buffer was
    not produced by this codec. *)

val to_bytes : 'a t -> 'a -> Bytes.t

val of_bytes : 'a t -> Bytes.t -> 'a
(** Decodes the whole buffer; raises {!Trailing_bytes} if the codec
    stops short of the end instead of silently ignoring the excess. *)

val roundtrip : 'a t -> 'a -> 'a
(** [roundtrip c v] encodes then decodes [v], producing a structurally
    fresh value; used by tests and to force genuine copies across node
    boundaries. *)

exception Checksum_mismatch of { expected : int32; got : int32 }

val checksummed : 'a t -> 'a t
(** Integrity envelope: payload length plus a CRC-32 over the encoded
    payload, verified on decode *before* the inner decoder runs.
    Corrupted bytes raise {!Checksum_mismatch} (or {!Trailing_bytes} /
    [Rw.Underflow] for damaged framing) instead of decoding garbage;
    the fault-tolerant cluster path wraps every message in this. *)

val checksum_header : int
(** Bytes a {!checksummed} encoding carries before its payload. *)

val checksummed_intact : ?pos:int -> ?len:int -> Bytes.t -> bool
(** Whether the [len] bytes of a buffer from [pos] (defaults: the whole
    buffer) are a {!checksummed} encoding whose length field and CRC-32
    agree with its payload (which starts {!checksum_header} bytes in).
    Lets a caller check a frame once and then read its payload in
    place, without a second CRC pass. *)

exception Version_mismatch of { expected : int; got : int }

val versioned : version:int -> 'a t -> 'a t
(** Envelope with a magic byte and a version tag, validated on decode:
    stale or foreign byte streams fail loudly ([Rw.Underflow] on bad
    magic, {!Version_mismatch} on a version change) instead of decoding
    garbage. *)
