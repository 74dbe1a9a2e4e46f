(** Low-level byte-buffer reader/writer.

    All multi-byte quantities are little-endian.  The writer grows its
    backing buffer geometrically; the reader walks a [Bytes.t] with a
    mutable cursor and raises {!Underflow} when data runs out. *)

exception Underflow

type writer = {
  mutable buf : Bytes.t;
  mutable len : int;
}

type reader = {
  data : Bytes.t;
  mutable pos : int;
  limit : int;
}

let create_writer ?(capacity = 256) () =
  { buf = Bytes.create (max 1 capacity); len = 0 }

let writer_length w = w.len

let ensure w extra =
  let needed = w.len + extra in
  if needed > Bytes.length w.buf then begin
    let cap = ref (Bytes.length w.buf * 2) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let buf = Bytes.create !cap in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let write_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let write_i64 w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let write_int w v = write_i64 w (Int64.of_int v)

let write_f64 w v = write_i64 w (Int64.bits_of_float v)

let write_bytes w b off len =
  ensure w len;
  Bytes.blit b off w.buf w.len len;
  w.len <- w.len + len

let write_string w s =
  write_int w (String.length s);
  ensure w (String.length s);
  Bytes.blit_string s 0 w.buf w.len (String.length s);
  w.len <- w.len + String.length s

(* Pointer-free float arrays are written as one contiguous block of
   8-byte words, mirroring Triolet's block-copy serialization of unboxed
   arrays (paper, section 3.4).  The copies are C stubs ([rw_stubs.c]):
   a [memcpy] on little-endian hosts, a per-word byte swap on big-endian
   ones.  They check nothing, so every caller checks its range first. *)
external blit_floats_to_bytes :
  floatarray -> int -> Bytes.t -> int -> int -> unit
  = "triolet_rw_floats_to_bytes"
[@@noalloc]

external blit_bytes_to_floats :
  Bytes.t -> int -> floatarray -> int -> int -> unit
  = "triolet_rw_bytes_to_floats"
[@@noalloc]

let write_floatarray w (a : floatarray) off len =
  if off < 0 || len < 0 || off > Float.Array.length a - len then
    invalid_arg "Rw.write_floatarray";
  write_int w len;
  ensure w (8 * len);
  blit_floats_to_bytes a off w.buf w.len len;
  w.len <- w.len + (8 * len)

let reserve w n =
  if n < 0 then invalid_arg "Rw.reserve";
  ensure w n;
  Bytes.fill w.buf w.len n '\000';
  w.len <- w.len + n

let write_u32 w v =
  ensure w 4;
  Bytes.set_int32_le w.buf w.len v;
  w.len <- w.len + 4

(* Back-patch a 32-bit slot reserved earlier (e.g. a checksum computed
   only after the payload it covers has been written). *)
let patch_u32 w ~pos v =
  if pos < 0 || pos + 4 > w.len then invalid_arg "Rw.patch_u32";
  Bytes.set_int32_le w.buf pos v

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum of
   zlib and Ethernet frames, computed by C stubs ([rw_stubs.c]): a
   carry-less-multiply fold on x86-64 hosts with PCLMULQDQ, a table
   sliced by 8 elsewhere and for short tails.  [crc32_init] builds the
   table and picks the path while this module initializes, before any
   other domain can call in.  The stubs check nothing, so every caller
   checks its range first; the value fits in 32 bits of a native int. *)
external crc32_init : unit -> unit = "triolet_rw_crc32_init" [@@noalloc]

external crc32_unchecked : Bytes.t -> int -> int -> int = "triolet_rw_crc32"
[@@noalloc]

external crc32_table_unchecked : Bytes.t -> int -> int -> int
  = "triolet_rw_crc32_portable"
[@@noalloc]

let () = crc32_init ()

let crc32 b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Rw.crc32";
  Int32.of_int (crc32_unchecked b off len)

let crc32_portable b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Rw.crc32_portable";
  Int32.of_int (crc32_table_unchecked b off len)

let crc32_range w ~pos ~len =
  if pos < 0 || len < 0 || pos + len > w.len then invalid_arg "Rw.crc32_range";
  crc32 w.buf pos len

let contents w = Bytes.sub w.buf 0 w.len

(* Serialization sized by [Codec.size] fills its buffer exactly, so the
   common case hands the backing buffer over without the final copy. *)
let detach w = if w.len = Bytes.length w.buf then w.buf else contents w

let reader_of_bytes ?(pos = 0) ?len b =
  let len = Option.value len ~default:(Bytes.length b - pos) in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Rw.reader_of_bytes";
  { data = b; pos; limit = pos + len }

(* Zero copy: the reader aliases the writer's backing buffer, bounded by
   the bytes written so far.  Writes to [w] after this call may be
   observed by (or invisible to, after a growth reallocation) the
   reader, so treat the writer as frozen while the reader is live. *)
let reader_of_writer w = { data = w.buf; pos = 0; limit = w.len }

let remaining r = r.limit - r.pos

let reader_pos r = r.pos

let check r n = if r.pos + n > r.limit then raise Underflow

(* Checksum of the next [len] unread bytes, without advancing. *)
let crc32_next r len =
  if len < 0 then raise Underflow;
  check r len;
  crc32 r.data r.pos len

let read_u8 r =
  check r 1;
  let v = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let read_u32 r =
  check r 4;
  let v = Bytes.get_int32_le r.data r.pos in
  r.pos <- r.pos + 4;
  v

let read_i64 r =
  check r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

(* A native int has 63 bits, so [write_int] always writes a word whose
   top two bits agree.  Any other word is corrupt (a flipped length
   header, say) and fails as a short read instead of losing bit 63. *)
let read_int r =
  let v = read_i64 r in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then raise Underflow;
  i

let read_f64 r = Int64.float_of_bits (read_i64 r)

let read_string r =
  let n = read_int r in
  if n < 0 then raise Underflow;
  check r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_floatarray r =
  let n = read_int r in
  (* Bounded by the bytes left before multiplying: a corrupt length
     above [max_int / 8] would overflow [8 * n] past the check. *)
  if n < 0 || n > remaining r / 8 then raise Underflow;
  let a = Float.Array.create n in
  blit_bytes_to_floats r.data r.pos a 0 n;
  r.pos <- r.pos + (8 * n);
  a
