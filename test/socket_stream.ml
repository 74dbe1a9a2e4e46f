(* Replay a byte stream through a real socket pair, cut into chunks,
   and read it back with the fabric's own frame reader: the framing
   properties in test_protocol and test_darray run against the code
   that carries every process-backend frame. *)

module Transport = Triolet_runtime.Transport
module Socket = Transport.Socket

(* [chunks ~cuts stream] cuts [stream] into successive pieces of the
   sizes in [cuts] (cycling; [[]] means one piece). *)
let chunks ~cuts stream =
  let cuts = Array.of_list cuts in
  let rec go i pos acc =
    if pos >= String.length stream then List.rev acc
    else
      let n =
        if Array.length cuts = 0 then String.length stream
        else min cuts.(i mod Array.length cuts) (String.length stream - pos)
      in
      go (i + 1) (pos + n) (String.sub stream pos n :: acc)
  in
  go 0 0 []

(* [replay pieces read] writes each piece into one end of a
   [Socket.connect] pair from a writer thread — yielding between
   pieces, so the reader sees the stream arrive piecemeal — then closes
   that end, and returns [read] applied to the other end. *)
let replay pieces read =
  let a, b = Socket.connect () in
  let writer =
    Thread.create
      (fun () ->
        (try
           List.iter
             (fun piece ->
               Socket.write_all a (Bytes.of_string piece);
               Thread.yield ())
             pieces
         with Transport.Closed -> ());
        Socket.close a)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Socket.close b;
      Thread.join writer)
    (fun () -> read b)

(* Every frame [b] delivers until EOF, in order.  A clean EOF at a frame
   boundary ends the list; a malformed header raises
   [Protocol.Bad_frame] and an EOF mid-frame raises [Transport.Closed]. *)
let frames b =
  let rec go acc =
    match Socket.try_recv_header b with
    | Some (k, p) -> go ((k, Bytes.to_string p) :: acc)
    | None -> List.rev acc
  in
  go []
