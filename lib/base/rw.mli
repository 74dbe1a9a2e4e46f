(** Low-level byte-buffer reader/writer.

    All multi-byte quantities are little-endian.  The writer grows its
    backing buffer geometrically; the reader walks a [Bytes.t] with a
    mutable cursor. *)

exception Underflow
(** Raised when a read runs past the end of the buffer. *)

type writer
(** Growable output buffer. *)

type reader
(** Input cursor over immutable bytes. *)

val create_writer : ?capacity:int -> unit -> writer

val writer_length : writer -> int
(** Bytes written so far. *)

val write_u8 : writer -> int -> unit
(** Writes the low 8 bits of the argument. *)

val write_i64 : writer -> int64 -> unit
val write_int : writer -> int -> unit
val write_f64 : writer -> float -> unit

val write_u32 : writer -> int32 -> unit
(** Little-endian 32-bit word (checksum slots). *)

val patch_u32 : writer -> pos:int -> int32 -> unit
(** Overwrites the 4 bytes at [pos] (already written) with a 32-bit
    word — back-fills a checksum slot reserved before its payload. *)

val write_bytes : writer -> Bytes.t -> int -> int -> unit
(** [write_bytes w b off len] appends [len] raw bytes of [b] from
    [off]. *)

val write_string : writer -> string -> unit
(** Length-prefixed string. *)

val write_floatarray : writer -> floatarray -> int -> int -> unit
(** [write_floatarray w a off len]: length prefix followed by one
    contiguous block of 8-byte little-endian words — the block-copy
    serialization of pointer-free arrays (paper, section 3.4), moved by
    one block copy.  Raises [Invalid_argument] unless
    [0 <= off], [0 <= len] and [off + len <= Float.Array.length a]. *)

val contents : writer -> Bytes.t
(** Copy of the bytes written so far. *)

val detach : writer -> Bytes.t
(** The bytes written so far, handing over the backing buffer without a
    copy when it is exactly full (the case for exactly-sized writers,
    e.g. those preallocated from [Codec.size]).  The writer must not be
    written to afterwards. *)

val reader_of_bytes : ?pos:int -> Bytes.t -> reader
(** A reader over [b], starting at [pos] (default 0). *)

val reader_of_writer : writer -> reader
(** Zero-copy reader over the writer's backing buffer, bounded by the
    bytes written so far.  The writer must be treated as frozen while
    the reader is in use: further writes may be observed by the reader
    or lost to it entirely when the buffer grows. *)

val remaining : reader -> int
(** Bytes left to read. *)

val reader_pos : reader -> int
(** Bytes consumed so far. *)

(** {1 Integrity}

    CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges; the
    checksummed codec envelope uses these to detect corrupted
    messages. *)

val crc32 : Bytes.t -> int -> int -> int32
(** [crc32 b off len] checksums [len] bytes of [b] from [off].  On
    x86-64 hosts with PCLMULQDQ a C stub folds 64 bytes per step by
    carry-less multiplication (Intel's "Fast CRC Computation for
    Generic Polynomials Using PCLMULQDQ") and Barrett-reduces the
    remainder; other hosts, buffers shorter than 64 bytes and tails
    shorter than 16 take a C table loop sliced by 8.  Both give the same
    value.  Raises [Invalid_argument] unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length b]. *)

val crc32_portable : Bytes.t -> int -> int -> int32
(** The table-driven fallback of {!crc32} on its own, whatever the
    host: the path hosts without PCLMULQDQ take.  Exposed so it is
    tested on hosts that have the fold; same range check. *)

val crc32_range : writer -> pos:int -> len:int -> int32
(** Checksum over a range already written to the writer. *)

val crc32_next : reader -> int -> int32
(** Checksum of the next [n] unread bytes without advancing the cursor;
    raises {!Underflow} if fewer than [n] remain. *)

val read_u8 : reader -> int
val read_u32 : reader -> int32
val read_i64 : reader -> int64
val read_int : reader -> int
(** Inverse of {!write_int}.  Raises {!Underflow} on a word outside the
    native int range, which {!write_int} never writes. *)

val read_f64 : reader -> float
val read_string : reader -> string

val read_floatarray : reader -> floatarray
(** Inverse of {!write_floatarray}; allocates a fresh array. *)
