(** Pluggable cluster transports.

    The cluster runtime moves every payload as serialized bytes; this
    module abstracts *how* those bytes move.  A transport is a
    module-level interface ({!S}) over length-prefixed byte frames:
    [connect] yields a linked pair of endpoints, [send] ships one frame,
    [recv]/[recv_timeout] deliver whole frames in order, [close] tears
    an endpoint down and wakes any peer blocked on it.

    Two implementations:

    - {!Mailbox_chan}: the in-process backend.  Frames ride the existing
      {!Mailbox} FIFO queues (one per direction), so wire behaviour —
      FIFO order, poison-on-close, byte accounting per message — is
      exactly the mailbox runtime's.
    - {!Socket}: a real OS channel.  Frames are written to a
      [socketpair] as a 4-byte big-endian payload length, a 1-byte frame
      kind, and the payload; the endpoints may live in different
      processes, which is what the multi-process cluster backend uses.

    Frame *headers* (length + kind) are transport framing, not payload:
    byte accounting everywhere in the runtime counts payload bytes only,
    so the two backends report identical traffic for identical work.

    {!Proc} is the process fabric the multi-process backend builds on:
    it forks one child per node with a socket channel back to the
    parent, multiplexes replies with [select], and tears children down
    with an EOF-then-SIGKILL grace protocol.  Task *code* crosses the
    [fork] (the child inherits the closure by address-space copy); task
    *data* only ever crosses the socket as bytes.  OCaml cannot fork
    once any domain has been spawned, so the fabric must be created
    before the first domain — see DESIGN.md, Transports. *)

exception Closed
(** The endpoint (or its peer) is closed: no further frames will ever
    arrive.  Mirrors [Mailbox.Closed] and a socket EOF. *)

(** Frame kinds.  [Data] carries protocol payload; [Err] carries a
    remote failure report (an exception escaping task code); [Nack]
    signals that the receiver rejected a frame (e.g. a corrupt task
    envelope) without producing a result.  [Ping]/[Pong] are the
    heartbeat frames of the long-lived service fabric: a supervisor
    pings its children, a live child echoes the payload back as a pong,
    and a silence longer than the miss threshold is a death verdict
    even when the socket never delivers an EOF (a hung child keeps its
    end open forever).

    The type, its byte tags, and the frame header codec all live in
    {!Protocol} — the reified spec the analyzer and model checker also
    consume; this is a re-export so transport users keep a single
    constructor namespace.  A malformed header (unknown kind byte,
    absurd length field) raises [Protocol.Bad_frame], not
    [Invalid_argument]. *)
type kind = Protocol.kind =
  | Data
  | Err
  | Nack
  | Ping
  | Pong
  | Seg_put
  | Seg_reuse
  | Seg_free

let kind_to_byte = Protocol.kind_to_byte
let kind_of_byte = Protocol.kind_of_byte

(** The transport interface: length-prefixed byte frames over a
    connected pair of endpoints. *)
module type S = sig
  val name : string

  type t
  (** One endpoint of a connected channel. *)

  val connect : unit -> t * t
  (** A linked endpoint pair: frames sent on one arrive on the other,
      whole and in order. *)

  val send : t -> ?kind:kind -> Bytes.t -> unit
  (** Ship one frame ([kind] defaults to [Data]).  Raises {!Closed} if
      the channel is down. *)

  val recv : t -> kind * Bytes.t
  (** Blocking receive of the next whole frame.  Raises {!Closed} once
      the channel is closed and drained. *)

  val recv_timeout : t -> float -> [ `Msg of kind * Bytes.t | `Timeout | `Closed ]
  (** Receive with a timeout in seconds. *)

  val close : t -> unit
  (** Tear the endpoint down.  Peers blocked in [recv] wake with
      {!Closed}; pending frames already delivered may still be read by
      the peer where the underlying channel buffers them. *)
end

(* ------------------------------------------------------------------ *)
(* In-process backend: frames over a pair of mailboxes.                 *)

module Mailbox_chan : S = struct
  let name = "mailbox"

  (* One mailbox per direction; the kind byte is prepended to the
     payload so a mailbox message is exactly one frame.  (Mailbox
     messages preserve boundaries, so no length prefix is needed.) *)
  type t = { rx : Mailbox.t; tx : Mailbox.t }

  let connect () =
    let a = Mailbox.create () and b = Mailbox.create () in
    ({ rx = a; tx = b }, { rx = b; tx = a })

  let frame kind payload =
    let len = Bytes.length payload in
    let b = Bytes.create (len + 1) in
    Bytes.set b 0 (kind_to_byte kind);
    Bytes.blit payload 0 b 1 len;
    b

  let unframe b =
    if Bytes.length b = 0 then invalid_arg "Transport.Mailbox_chan: empty frame";
    (kind_of_byte (Bytes.get b 0), Bytes.sub b 1 (Bytes.length b - 1))

  let send t ?(kind = Data) payload =
    match Mailbox.send t.tx (frame kind payload) with
    | () -> ()
    | exception Mailbox.Closed -> raise Closed

  let recv t =
    match Mailbox.recv t.rx with
    | b -> unframe b
    | exception Mailbox.Closed -> raise Closed

  let recv_timeout t timeout =
    match Mailbox.recv_timeout t.rx timeout with
    | `Msg b -> `Msg (unframe b)
    | `Timeout -> `Timeout
    | `Closed -> `Closed

  (* Closing either side poisons both directions, like shutting down a
     socket: the peer's blocked [recv] wakes with [Closed]. *)
  let close t =
    Mailbox.close t.rx;
    Mailbox.close t.tx
end

(* ------------------------------------------------------------------ *)
(* Multi-process backend: frames over a socketpair.                     *)

(* A write to a socket whose reader died raises SIGPIPE, which would
   kill the whole run instead of surfacing as an error the recovery
   machinery can absorb.  Ignore it once, lazily, so merely linking this
   module does not change signal state. *)
let sigpipe_ignored = ref false

let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    sigpipe_ignored := true;
    if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  end

module Socket = struct
  let name = "socket"

  type t = { fd : Unix.file_descr; mutable closed : bool }

  let of_fd fd = { fd; closed = false }
  let fd t = t.fd

  let connect () =
    ignore_sigpipe ();
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* Best effort: bigger kernel buffers reduce backpressure stalls
       when node payloads run to megabytes.  The kernel may clamp. *)
    List.iter
      (fun fd ->
        try
          Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 20);
          Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20)
        with Unix.Unix_error _ -> ())
      [ a; b ];
    (of_fd a, of_fd b)

  let header_len = Protocol.header_len

  let write_all t buf =
    let len = Bytes.length buf in
    let pos = ref 0 in
    while !pos < len do
      match Unix.write t.fd buf !pos (len - !pos) with
      | n -> pos := !pos + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          raise Closed
    done

  (* Read exactly [len] bytes; [None] on a clean EOF at a frame
     boundary (peer gone), [Closed] mid-frame or on a dead fd. *)
  let read_exactly t len =
    let buf = Bytes.create len in
    let pos = ref 0 in
    let eof = ref false in
    while (not !eof) && !pos < len do
      match Unix.read t.fd buf !pos (len - !pos) with
      | 0 -> if !pos = 0 then eof := true else raise Closed
      | n -> pos := !pos + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
          raise Closed
    done;
    if !eof then None else Some buf

  let send t ?(kind = Data) payload =
    if t.closed then raise Closed;
    write_all t (Protocol.encode_frame ~kind payload)

  let try_recv_header t =
    match read_exactly t header_len with
    | None -> None
    | Some hdr ->
        let len, kind = Protocol.decode_header hdr 0 in
        let payload =
          if len = 0 then Bytes.empty
          else
            match read_exactly t len with
            | Some b -> b
            | None -> raise Closed (* EOF mid-frame *)
        in
        Some (kind, payload)

  let recv t =
    if t.closed then raise Closed;
    match try_recv_header t with Some f -> f | None -> raise Closed

  let recv_timeout t timeout =
    if t.closed then `Closed
    else
      match Unix.select [ t.fd ] [] [] timeout with
      | [], _, _ -> `Timeout
      | _ -> (
          match try_recv_header t with
          | Some f -> `Msg f
          | None -> `Closed
          | exception Closed -> `Closed)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end
end

module Socket_s : S = Socket

(* ------------------------------------------------------------------ *)
(* Process fabric: one forked child per node, socket channels back to
   the parent.                                                          *)

module Proc = struct
  type node = {
    id : int;
    mutable pid : int;  (** current incarnation; replaced on respawn *)
    mutable chan : Socket.t;  (** parent-side endpoint *)
    mutable alive : bool;
        (** flipped to false when the parent sees EOF (child exited,
            crashed, or was killed) *)
    mutable reaped : bool;
        (** the current [pid] has been waited for; nothing left to
            collect until a respawn replaces it *)
  }

  (* [lock] serializes teardown state (close/reap/respawn flags) so
     [shutdown] is idempotent and safe to race against a child dying —
     a double-shutdown or an EPIPE mid-teardown must never escape into
     the caller's [~finally].  Frame I/O itself stays lock-free: the
     fabric has a single protocol owner (the run loop or the service
     dispatcher), and signals ([kill]) are async-safe anyway. *)
  type t = { nodes : node array; lock : Mutex.t }

  let node t i = t.nodes.(i)
  let pid t i = t.nodes.(i).pid
  let is_alive t i = t.nodes.(i).alive
  let size t = Array.length t.nodes
  let alive_ids t =
    Array.to_list t.nodes
    |> List.filter_map (fun n -> if n.alive then Some n.id else None)

  (** Fork [n] children.  Each child closes every descriptor except its
      own channel, runs [child ~id chan], and [_exit]s — it never
      returns into the parent's control flow, never flushes the
      parent's buffered output, and never runs [at_exit] handlers.

      Must be called before any domain has been spawned in this
      process; the caller is responsible for checking (OCaml's runtime
      forbids [fork] afterwards). *)
  let fork ~n ~child =
    ignore_sigpipe ();
    (* Children inherit the parent's buffered channel state; anything
       pending at fork time would be written once per process.  Empty
       the buffers first so a child can never replay parent output. *)
    flush_all ();
    let pairs = Array.init n (fun _ -> Socket.connect ()) in
    let nodes =
      Array.init n (fun i ->
          let parent_end, child_end = pairs.(i) in
          match Unix.fork () with
          | 0 ->
              (* Child: keep only this node's child end.  Closing the
                 sibling descriptors matters for EOF detection — a
                 parent-side read returns EOF only once *every* process
                 holding the write end has closed it. *)
              Array.iteri
                (fun j (p, c) ->
                  Socket.close p;
                  if j <> i then Socket.close c)
                pairs;
              (try child ~id:i child_end
               with _ -> (try Socket.close child_end with _ -> ()));
              Unix._exit 0
          | pid ->
              { id = i; pid; chan = parent_end; alive = true; reaped = false })
    in
    (* Parent: the child ends belong to the children now. *)
    Array.iter (fun (_, child_end) -> Socket.close child_end) pairs;
    { nodes; lock = Mutex.create () }

  (** Multiplexed receive: the next frame from any live child, that
      child's EOF, a timeout, or — when [wake] is given — [`Wake] once
      that descriptor becomes readable (a self-pipe poked by another
      thread; the caller drains it).  EOF marks the node dead and closes
      its channel. *)
  let recv_any ?wake t ~timeout =
    let live = Array.to_list t.nodes |> List.filter (fun n -> n.alive) in
    if live = [] && wake = None then `No_nodes
    else
      let fds = List.map (fun n -> Socket.fd n.chan) live in
      let fds = match wake with Some w -> w :: fds | None -> fds in
      match Unix.select fds [] [] timeout with
      | [], _, _ -> `Timeout
      | ready, _, _ -> (
          match wake with
          | Some w when List.mem w ready -> `Wake
          | _ -> (
              let fd = List.hd ready in
              let n = List.find (fun n -> Socket.fd n.chan = fd) live in
              match Socket.try_recv_header n.chan with
              | Some (kind, payload) -> `Msg (n.id, kind, payload)
              | None | (exception Closed) ->
                  n.alive <- false;
                  Socket.close n.chan;
                  `Eof n.id))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout

  (* Reap one child: EOF-induced exit first (closing our end already
     told it to stop), then a grace window, then SIGKILL.  Idempotent:
     the [reaped] flag (set under [lock] by callers) ensures a pid is
     waited for exactly once, so a double-shutdown or a shutdown racing
     a concurrent reap can never wait on a recycled pid. *)
  let reap_node ?(grace = 1.0) n =
    let deadline = Clock.monotonic_ns () + int_of_float (grace *. 1e9) in
    let rec wait_nohang () =
      match Unix.waitpid [ Unix.WNOHANG ] n.pid with
      | 0, _ ->
          if Clock.monotonic_ns () >= deadline then begin
            (try Unix.kill n.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (try Unix.waitpid [] n.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
          end
          else begin
            Unix.sleepf 0.002;
            wait_nohang ()
          end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_nohang ()
    in
    wait_nohang ()

  (* Claim the right to reap [n]'s current pid; at most one caller wins. *)
  let claim_reap t n =
    Mutex.lock t.lock;
    let mine = not n.reaped in
    if mine then n.reaped <- true;
    Mutex.unlock t.lock;
    mine

  (** Reap node [i]: close the channel (EOF tells the child to exit),
      wait, escalate to SIGKILL after [grace].  Idempotent and safe to
      call concurrently with the child dying on its own. *)
  let reap ?grace t i =
    let n = t.nodes.(i) in
    n.alive <- false;
    Socket.close n.chan;
    if claim_reap t n then reap_node ?grace n

  (** SIGKILL node [i]'s current incarnation (no reap — the parent's
      next [recv_any] sees the EOF and marks the node dead, exactly as
      an externally injected crash would). *)
  let kill t i =
    let n = t.nodes.(i) in
    try Unix.kill n.pid Sys.sigkill with Unix.Unix_error _ -> ()

  (** Replace node [i] with a fresh child running [child ~id:i].  The
      old incarnation must already be dead (EOF seen / reaped); its pid
      is collected here if nobody has yet.  Must run on the fabric
      owner's thread, and — like [fork] — requires that no domain has
      ever been spawned in this process. *)
  let respawn t i ~child =
    let n = t.nodes.(i) in
    Socket.close n.chan;
    if claim_reap t n then reap_node ~grace:0.0 n;
    flush_all ();
    let parent_end, child_end = Socket.connect () in
    (match Unix.fork () with
    | 0 ->
        (* Child: drop every other node's parent-side descriptor so EOF
           detection on the siblings' channels keeps working, then run
           the same serve closure as the original incarnation. *)
        Socket.close parent_end;
        Array.iter
          (fun other -> if other.id <> i then try Socket.close other.chan with _ -> ())
          t.nodes;
        (try child ~id:i child_end
         with _ -> (try Socket.close child_end with _ -> ()));
        Unix._exit 0
    | pid ->
        Socket.close child_end;
        Mutex.lock t.lock;
        n.pid <- pid;
        n.chan <- parent_end;
        n.alive <- true;
        n.reaped <- false;
        Mutex.unlock t.lock)

  (** Close every channel (children read EOF and exit) and reap all
      children, escalating to SIGKILL after [grace] seconds each.
      Idempotent — a second call (or a call racing a child's death) is
      a no-op for already-reaped children and never raises, so it is
      safe inside a [~finally]. *)
  let shutdown ?grace t =
    Array.iter
      (fun n ->
        n.alive <- false;
        try Socket.close n.chan with _ -> ())
      t.nodes;
    Array.iter
      (fun n -> if claim_reap t n then try reap_node ?grace n with _ -> ())
      t.nodes
end
