(** Heterogeneous data payloads shipped between cluster nodes.

    A payload is the serializable image of an iterator slice's data
    source (paper, section 3.5).  Slicing an iterator produces a payload
    holding exactly the subarrays a remote task needs; the cluster
    runtime serializes it, ships the bytes, and the task rebuilds its
    data from the decoded payload on the remote side. *)

type buf =
  | Floats of floatarray      (** pointer-free array: block-copied *)
  | Slice of floatarray * int * int
      (** [Slice (a, off, len)]: elements [off, off+len) of [a], named
          in place; on the wire exactly a [Floats] of those elements *)
  | Ints of int array
  | Raw of string             (** opaque pre-encoded bytes *)

type t = buf list

let buf_codec : buf Codec.t =
  let encode w = function
    | Floats a -> Rw.write_u8 w 0; Codec.floatarray.Codec.encode w a
    | Slice (a, off, len) -> Rw.write_u8 w 0; Rw.write_floatarray w a off len
    | Ints a -> Rw.write_u8 w 1; Codec.int_array.Codec.encode w a
    | Raw s -> Rw.write_u8 w 2; Rw.write_string w s
  in
  let decode r =
    match Rw.read_u8 r with
    | 0 -> Floats (Codec.floatarray.Codec.decode r)
    | 1 -> Ints (Codec.int_array.Codec.decode r)
    | 2 -> Raw (Rw.read_string r)
    | _ -> raise Rw.Underflow
  in
  let size = function
    | Floats a -> 1 + Codec.floatarray.Codec.size a
    | Slice (_, _, len) -> 1 + 8 + (8 * len)
    | Ints a -> 1 + Codec.int_array.Codec.size a
    | Raw s -> 1 + Codec.string.Codec.size s
  in
  Codec.make ~encode ~decode ~size

let codec : t Codec.t = Codec.list buf_codec

let size (p : t) = codec.Codec.size p

let empty : t = []

(* A float buffer as [(array, offset, length)]. *)
let span = function
  | Floats a -> Some (a, 0, Float.Array.length a)
  | Slice (a, off, len) -> Some (a, off, len)
  | Ints _ | Raw _ -> None

(* Float buffers compare by bit pattern: [-0.0] differs from [0.0], and
   a NaN equals the same NaN bits.  A [Slice] equals the [Floats] of its
   elements, as it does on the wire. *)
let floats_equal (a, ao, n) (b, bo, m) =
  let rec go i =
    i >= n
    || Int64.bits_of_float (Float.Array.get a (ao + i))
       = Int64.bits_of_float (Float.Array.get b (bo + i))
       && go (i + 1)
  in
  n = m && go 0

let buf_equal a b =
  match (a, b, span a, span b) with
  | _, _, Some x, Some y -> floats_equal x y
  | Ints x, Ints y, _, _ -> x = y
  | Raw x, Raw y, _, _ -> String.equal x y
  | (Floats _ | Slice _ | Ints _ | Raw _), _, _, _ -> false

let equal (a : t) (b : t) = List.equal buf_equal a b

(* Accessors used by rebuild functions: they state the expected layout
   and fail loudly on a mismatch, which would indicate a slicing bug. *)

(* A slice of a whole array is that array; any other slice is copied
   out, as decoding it would. *)
let floats_exn = function
  | Floats a -> a
  | Slice (a, 0, len) when len = Float.Array.length a -> a
  | Slice (a, off, len) -> Float.Array.sub a off len
  | Ints _ | Raw _ -> invalid_arg "Payload.floats_exn: expected Floats"

let ints_exn = function
  | Ints a -> a
  | Floats _ | Slice _ | Raw _ -> invalid_arg "Payload.ints_exn: expected Ints"

let raw_exn = function
  | Raw s -> s
  | Floats _ | Slice _ | Ints _ -> invalid_arg "Payload.raw_exn: expected Raw"

(** Force a payload through the wire format, producing structurally
    fresh buffers.  Equivalent to a send + receive on a real network. *)
let ship (p : t) : t * int =
  let bytes = Codec.to_bytes codec p in
  (Codec.of_bytes codec bytes, Bytes.length bytes)
