(** The runtime's wire protocol: frame kinds and framing.

    Every frame the fabric puts on a socket is a 5-byte header — a
    4-byte big-endian payload length and one kind byte — followed by
    the payload.  A {!frame} is a body in place in a buffer: one built
    to be sent has the header's bytes reserved before it, so
    {!Transport.Socket} writes the header there ({!write_header}) and
    the whole frame with one write; one read from a socket is a view of
    the link's receive buffer.  Reads go through {!decode_header}; a
    malformed header is the typed {!Bad_frame}, never a crash or a
    mis-split, and the tests fuzz that property through the socket
    reader itself.

    What each side does with each kind lives in the code that does it:
    the dispatch engine ({!Dispatch.step}) and the node program
    ({!Dispatch.Node}) match on {!kind} exhaustively, so a new kind
    does not compile until every state of both handles it, and
    [Triolet_sim.Dispatch_model] model-checks those handlers. *)

(* ------------------------------------------------------------------ *)
(* Frame kinds.                                                        *)

(** [Data] carries protocol payload; [Err] a remote failure report;
    [Nack] a rejected frame (e.g. a corrupt envelope); [Ping]/[Pong]
    are the supervision heartbeat.  [Seg_put] installs a distributed
    array segment's bytes in a child's resident table; [Seg_reuse]
    names an already-resident [(darray, segment, version)] so an
    unchanged segment ships only its key; [Seg_free] evicts a
    darray's segments when the array is released.  [Code] carries a
    job's task code — the node's serve function marshalled with its
    closures — to a child of the same binary. *)
type kind = Data | Err | Nack | Ping | Pong | Seg_put | Seg_reuse | Seg_free | Code

(* New kinds append at the end: generators index this list. *)
let all_kinds = [ Data; Err; Nack; Ping; Pong; Seg_put; Seg_reuse; Seg_free; Code ]

let kind_name = function
  | Data -> "Data"
  | Err -> "Err"
  | Nack -> "Nack"
  | Ping -> "Ping"
  | Pong -> "Pong"
  | Seg_put -> "Seg_put"
  | Seg_reuse -> "Seg_reuse"
  | Seg_free -> "Seg_free"
  | Code -> "Code"

exception Bad_frame of string
(** A frame that cannot be on the wire: unknown kind byte or a
    negative payload length.  The typed rejection every decoder in the
    runtime raises — callers absorb it like a corrupt envelope, they
    never see [Invalid_argument]. *)

let () =
  Printexc.register_printer (function
    | Bad_frame msg -> Some (Printf.sprintf "Protocol.Bad_frame(%s)" msg)
    | _ -> None)

let kind_to_byte = function
  | Data -> '\000'
  | Err -> '\001'
  | Nack -> '\002'
  | Ping -> '\003'
  | Pong -> '\004'
  | Seg_put -> '\005'
  | Seg_reuse -> '\006'
  | Seg_free -> '\007'
  | Code -> '\008'

let kind_of_byte = function
  | '\000' -> Data
  | '\001' -> Err
  | '\002' -> Nack
  | '\003' -> Ping
  | '\004' -> Pong
  | '\005' -> Seg_put
  | '\006' -> Seg_reuse
  | '\007' -> Seg_free
  | '\008' -> Code
  | c -> raise (Bad_frame (Printf.sprintf "unknown kind byte %d" (Char.code c)))

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian payload length, 1 kind byte, payload.    *)

let header_len = 5
let max_frame_payload = 1 lsl 30

module Rw = Triolet_base.Rw

type frame = { buf : Bytes.t; off : int; len : int }

let view ?(off = 0) ?len buf =
  let len = Option.value len ~default:(Bytes.length buf - off) in
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg "Protocol.view";
  { buf; off; len }

(* A writer sized for a body of [size] bytes after the header's room:
   a body that fills it exactly is handed over without a copy. *)
let writer size =
  let w = Rw.create_writer ~capacity:(header_len + size) () in
  Rw.reserve w header_len;
  w

let of_writer w =
  let buf = Rw.detach w in
  { buf; off = header_len; len = Bytes.length buf - header_len }

let blit_frame buf off len =
  let w = writer len in
  Rw.write_bytes w buf off len;
  of_writer w

let of_bytes b = blit_frame b 0 (Bytes.length b)
let copy f = blit_frame f.buf f.off f.len
let to_bytes f = Bytes.sub f.buf f.off f.len
let empty () = of_bytes Bytes.empty

(* The header goes in the bytes before the body, so the frame leaves in
   one write.  Rewriting it is harmless: a frame resent (a retried
   task, one node's code sent to another) gets the same header again. *)
let write_header f kind =
  let start = f.off - header_len in
  if start < 0 then invalid_arg "Protocol.write_header: no room for the header";
  Bytes.set_int32_be f.buf start (Int32.of_int f.len);
  Bytes.set f.buf (start + 4) (kind_to_byte kind);
  start

(** [decode_header buf off] reads one header at [off]; the payload
    occupies the next [len] bytes.  Raises {!Bad_frame} on an unknown
    kind byte or a length outside [0, max_frame_payload] — a negative
    32-bit field or an absurd length means the stream is not framed
    data, and treating it as a count would over-read. *)
let decode_header buf off =
  if off < 0 || off + header_len > Bytes.length buf then
    invalid_arg "Protocol.decode_header: out of bounds";
  let len = Int32.to_int (Bytes.get_int32_be buf off) in
  if len < 0 || len > max_frame_payload then
    raise (Bad_frame (Printf.sprintf "bad payload length %d" len));
  let kind = kind_of_byte (Bytes.get buf (off + 4)) in
  (len, kind)
