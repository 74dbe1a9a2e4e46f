(** Heterogeneous data payloads shipped between cluster nodes.

    A payload is the serializable image of an iterator slice's data
    source (paper, section 3.5).  Slicing an iterator produces a payload
    holding exactly the subarrays a remote task needs; the cluster
    runtime serializes it, ships the bytes, and the task rebuilds its
    data from the decoded payload on the remote side. *)

type buf =
  | Floats of floatarray      (** pointer-free array: block-copied *)
  | Ints of int array
  | Raw of string             (** opaque pre-encoded bytes *)

type t = buf list

let buf_codec : buf Codec.t =
  let encode w = function
    | Floats a -> Rw.write_u8 w 0; Codec.floatarray.Codec.encode w a
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
    | Ints a -> 1 + Codec.int_array.Codec.size a
    | Raw s -> 1 + Codec.string.Codec.size s
  in
  Codec.make ~encode ~decode ~size

let codec : t Codec.t = Codec.list buf_codec

let size (p : t) = codec.Codec.size p

let empty : t = []

(* Float buffers compare by bit pattern: [-0.0] differs from [0.0], and
   a NaN equals the same NaN bits. *)
let floats_equal a b =
  let n = Float.Array.length a in
  let rec go i =
    i >= n
    || Int64.bits_of_float (Float.Array.get a i)
       = Int64.bits_of_float (Float.Array.get b i)
       && go (i + 1)
  in
  n = Float.Array.length b && go 0

let buf_equal a b =
  match (a, b) with
  | Floats x, Floats y -> floats_equal x y
  | Ints x, Ints y -> x = y
  | Raw x, Raw y -> String.equal x y
  | (Floats _ | Ints _ | Raw _), _ -> false

let equal (a : t) (b : t) = List.equal buf_equal a b

(* Accessors used by rebuild functions: they state the expected layout
   and fail loudly on a mismatch, which would indicate a slicing bug. *)

let floats_exn = function
  | Floats a -> a
  | Ints _ | Raw _ -> invalid_arg "Payload.floats_exn: expected Floats"

let ints_exn = function
  | Ints a -> a
  | Floats _ | Raw _ -> invalid_arg "Payload.ints_exn: expected Ints"

let raw_exn = function
  | Raw s -> s
  | Floats _ | Ints _ -> invalid_arg "Payload.raw_exn: expected Raw"

(** Force a payload through the wire format, producing structurally
    fresh buffers.  Equivalent to a send + receive on a real network. *)
let ship (p : t) : t * int =
  let bytes = Codec.to_bytes codec p in
  (Codec.of_bytes codec bytes, Bytes.length bytes)
