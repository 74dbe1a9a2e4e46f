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
   zlib and Ethernet frames, sliced by 8: [crc_table] holds eight
   256-entry tables back to back, table [k] advancing a byte's CRC
   through [k] further zero bytes, so one step folds 8 input bytes with
   8 lookups.  Values are native ints masked to 32 bits, so nothing in
   the loop is boxed. *)
let crc_table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* [Int32.to_int] sign-extends; the mask keeps the word's 32 bits. *)
let get_u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let crc32 b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Rw.crc32";
  let t = crc_table in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let lo = get_u32 b !i lxor !c in
    let hi = get_u32 b (!i + 4) in
    c :=
      t.((7 * 256) + (lo land 0xff))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xff))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor t.(256 + ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b j)) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32_range w ~pos ~len =
  if pos < 0 || len < 0 || pos + len > w.len then invalid_arg "Rw.crc32_range";
  crc32 w.buf pos len

let contents w = Bytes.sub w.buf 0 w.len

(* Serialization sized by [Codec.size] fills its buffer exactly, so the
   common case hands the backing buffer over without the final copy. *)
let detach w = if w.len = Bytes.length w.buf then w.buf else contents w

let reader_of_bytes ?(pos = 0) b =
  if pos < 0 || pos > Bytes.length b then invalid_arg "Rw.reader_of_bytes";
  { data = b; pos; limit = Bytes.length b }

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

let read_int r = Int64.to_int (read_i64 r)

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
