(** Composable serialization codecs.

    Triolet's compiler generates serialization code from algebraic data
    type definitions (paper, section 3.4).  OCaml has no such hook, so we
    provide the equivalent as combinators: a ['a t] couples an encoder
    and a decoder, and [size] reports the exact wire size without
    encoding — the cluster runtime and the simulator both use it for
    byte accounting. *)

type 'a t = {
  encode : Rw.writer -> 'a -> unit;
  decode : Rw.reader -> 'a;
  size : 'a -> int;
}

let make ~encode ~decode ~size = { encode; decode; size }

let unit =
  { encode = (fun _ () -> ()); decode = (fun _ -> ()); size = (fun () -> 0) }

let int =
  { encode = Rw.write_int; decode = Rw.read_int; size = (fun _ -> 8) }

let float =
  { encode = Rw.write_f64; decode = Rw.read_f64; size = (fun _ -> 8) }

let bool =
  {
    encode = (fun w b -> Rw.write_u8 w (if b then 1 else 0));
    decode = (fun r -> Rw.read_u8 r <> 0);
    size = (fun _ -> 1);
  }

let string =
  {
    encode = Rw.write_string;
    decode = Rw.read_string;
    size = (fun s -> 8 + String.length s);
  }

let floatarray =
  {
    encode = (fun w a -> Rw.write_floatarray w a 0 (Float.Array.length a));
    decode = Rw.read_floatarray;
    size = (fun a -> 8 + (8 * Float.Array.length a));
  }

let pair a b =
  {
    encode = (fun w (x, y) -> a.encode w x; b.encode w y);
    decode = (fun r -> let x = a.decode r in let y = b.decode r in (x, y));
    size = (fun (x, y) -> a.size x + b.size y);
  }

let triple a b c =
  {
    encode = (fun w (x, y, z) -> a.encode w x; b.encode w y; c.encode w z);
    decode =
      (fun r ->
        let x = a.decode r in
        let y = b.decode r in
        let z = c.decode r in
        (x, y, z));
    size = (fun (x, y, z) -> a.size x + b.size y + c.size z);
  }

let option a =
  {
    encode =
      (fun w v ->
        match v with
        | None -> Rw.write_u8 w 0
        | Some x -> Rw.write_u8 w 1; a.encode w x);
    decode =
      (fun r -> if Rw.read_u8 r = 0 then None else Some (a.decode r));
    size = (fun v -> match v with None -> 1 | Some x -> 1 + a.size x);
  }

(* Boxed arrays pay a length header plus a per-element encode; contrast
   with [floatarray]'s flat block of words.  The bench harness uses the
   difference to quantify the paper's block-copy claim. *)
let array a =
  {
    encode =
      (fun w v ->
        Rw.write_int w (Array.length v);
        Array.iter (a.encode w) v);
    decode =
      (fun r ->
        let n = Rw.read_int r in
        if n < 0 then raise Rw.Underflow;
        Array.init n (fun _ -> a.decode r));
    size =
      (fun v -> Array.fold_left (fun acc x -> acc + a.size x) 8 v);
  }

let list a =
  {
    encode =
      (fun w v ->
        Rw.write_int w (List.length v);
        List.iter (a.encode w) v);
    decode =
      (fun r ->
        let n = Rw.read_int r in
        if n < 0 then raise Rw.Underflow;
        List.init n (fun _ -> a.decode r));
    size = (fun v -> List.fold_left (fun acc x -> acc + a.size x) 8 v);
  }

let int_array =
  {
    encode =
      (fun w v ->
        Rw.write_int w (Array.length v);
        Array.iter (Rw.write_int w) v);
    decode =
      (fun r ->
        let n = Rw.read_int r in
        (* each element is 8 bytes: a corrupt length fails here rather
           than in [Array.init] *)
        if n < 0 || n > Rw.remaining r / 8 then raise Rw.Underflow;
        Array.init n (fun _ -> Rw.read_int r));
    size = (fun v -> 8 + (8 * Array.length v));
  }

let map ~inj ~proj a =
  {
    encode = (fun w v -> a.encode w (proj v));
    decode = (fun r -> inj (a.decode r));
    size = (fun v -> a.size (proj v));
  }

(* The writer is preallocated at the exact wire size, so [Rw.detach]
   hands its buffer over without the final copy — the cluster's hot
   path serializes every scatter/gather message through here. *)
let to_bytes c v =
  let w = Rw.create_writer ~capacity:(max 1 (c.size v)) () in
  c.encode w v;
  Rw.detach w

exception Trailing_bytes of int
(** Raised by {!of_bytes} when decoding leaves unconsumed bytes. *)

(* A decode that stops short of the buffer's end means the bytes were
   not produced by this codec (truncated copy of a larger message,
   corrupted length field, wrong codec): fail loudly rather than return
   a value reconstructed from a prefix. *)
let of_bytes c b =
  let r = Rw.reader_of_bytes b in
  let v = c.decode r in
  (match Rw.remaining r with 0 -> () | n -> raise (Trailing_bytes n));
  v

(** [roundtrip c v] encodes then decodes [v]; used by tests and by the
    cluster runtime to force a genuine copy across a node boundary.  The
    decoder reads straight over the writer's buffer ({!Rw.reader_of_writer}),
    so the value is copied once (encode) rather than twice. *)
let roundtrip c v =
  let w = Rw.create_writer ~capacity:(max 1 (c.size v)) () in
  c.encode w v;
  c.decode (Rw.reader_of_writer w)

exception Version_mismatch of { expected : int; got : int }
(** Raised when decoding a {!versioned} value whose tag disagrees. *)

(** Wrap a codec in a versioned envelope: a magic byte plus a version
    tag is written before the value and validated on decode, so stale
    or foreign byte streams fail loudly instead of decoding garbage. *)
exception Checksum_mismatch of { expected : int32; got : int32 }
(** Raised when a {!checksummed} envelope's CRC disagrees with its
    payload — the bytes were damaged in transit. *)

(* The header {!checksummed} writes before the payload: the payload
   length (8 bytes), then its CRC-32 (4 bytes). *)
let checksum_header = 12

(** Wrap a codec in an integrity envelope: an 8-byte payload length and
    a CRC-32 over the encoded payload precede the value.  The decoder
    verifies the checksum *before* handing bytes to the inner decoder
    (corruption fails with {!Checksum_mismatch} instead of decoding
    garbage), and verifies afterwards that the inner decoder consumed
    exactly the declared payload ({!Trailing_bytes} otherwise).  The
    cluster runtime uses this for every message when fault injection is
    on, so a corrupted link triggers redelivery rather than a wrong
    result. *)
let checksummed inner =
  {
    encode =
      (fun w v ->
        Rw.write_int w (inner.size v);
        let crc_pos = Rw.writer_length w in
        Rw.write_u32 w 0l;
        let start = Rw.writer_length w in
        inner.encode w v;
        let len = Rw.writer_length w - start in
        Rw.patch_u32 w ~pos:crc_pos (Rw.crc32_range w ~pos:start ~len));
    decode =
      (fun r ->
        let len = Rw.read_int r in
        if len < 0 then raise Rw.Underflow;
        let expected = Rw.read_u32 r in
        let got = Rw.crc32_next r len in
        if got <> expected then raise (Checksum_mismatch { expected; got });
        let start = Rw.reader_pos r in
        let v = inner.decode r in
        let used = Rw.reader_pos r - start in
        if used <> len then raise (Trailing_bytes (len - used));
        v);
    size = (fun v -> checksum_header + inner.size v);
  }

let checksummed_intact ?(pos = 0) ?len b =
  let len = Option.value len ~default:(Bytes.length b - pos) in
  len >= checksum_header
  &&
  let r = Rw.reader_of_bytes ~pos ~len b in
  match Rw.read_int r with
  | exception Rw.Underflow -> false
  | len ->
      let expected = Rw.read_u32 r in
      len = Rw.remaining r && Rw.crc32_next r len = expected

let versioned ~version inner =
  if version < 0 || version > 0xFF then invalid_arg "Codec.versioned";
  let magic = 0xB7 in
  {
    encode =
      (fun w v ->
        Rw.write_u8 w magic;
        Rw.write_u8 w version;
        inner.encode w v);
    decode =
      (fun r ->
        let m = Rw.read_u8 r in
        if m <> magic then raise Rw.Underflow;
        let got = Rw.read_u8 r in
        if got <> version then raise (Version_mismatch { expected = version; got });
        inner.decode r);
    size = (fun v -> 2 + inner.size v);
  }
