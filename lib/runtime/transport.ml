(** The cluster's one wire: length-prefixed byte frames over OS sockets.

    The cluster runtime moves every payload as serialized bytes.
    In-process nodes exchange them through the dispatch engine's inline
    queues; process nodes exchange them here.  {!Socket} writes each
    frame to a [socketpair] as a 4-byte big-endian payload length, a
    1-byte frame kind, and the payload — the header codec and the kinds
    ({!Protocol.kind}) live in {!Protocol}.  A malformed header (unknown
    kind byte, absurd length field) raises [Protocol.Bad_frame].

    Frame *headers* (length + kind) are transport framing, not payload:
    byte accounting everywhere in the runtime counts payload bytes only,
    so the in-process and process backends report identical traffic for
    identical work.

    {!Proc} is the process fabric the multi-process backend builds on:
    it forks one child per node with a socket channel back to the
    parent, multiplexes replies with [select], and tears children down
    with an EOF-then-SIGKILL grace protocol.  A process-wide registry
    of parent-side endpoints lets every forked child close every
    fabric's parent ends, not just its own fabric's, so each fabric's
    EOFs stay prompt while others are up.  The runtime's children all
    run one node program that takes its task code from the socket, as
    closure bytes in [Code] frames, and task *data* only ever as
    payload bytes.  OCaml
    cannot fork once any domain has been spawned, so a fabric must be
    forked (and a dead node respawned) before the first domain — see
    DESIGN.md, Transports. *)

exception Closed
(** The endpoint (or its peer) is closed: no further frames will ever
    arrive.  A socket EOF. *)

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
  type t = { fd : Unix.file_descr; mutable closed : bool }

  let of_fd fd = { fd; closed = false }
  let fd t = t.fd

  (** A linked endpoint pair: frames sent on one arrive on the other,
      whole and in order. *)
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

  (** Ship one frame ([kind] defaults to [Data]).  Raises {!Closed} if
      the channel is down. *)
  let send t ?(kind = Protocol.Data) payload =
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

  (** Blocking receive of the next whole frame.  Raises {!Closed} once
      the channel is closed or the peer is gone, and [Protocol.Bad_frame]
      on a malformed header. *)
  let recv t =
    if t.closed then raise Closed;
    match try_recv_header t with Some f -> f | None -> raise Closed

  (** Tear the endpoint down; the peer reads EOF once it has drained
      the frames already buffered. *)
  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end
end

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
            crashed, or was killed) or a malformed frame *)
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

  (* Every parent-side endpoint of every live fabric in this process.
     A child forked while another fabric is up would otherwise keep
     that fabric's parent ends open, and the other fabric's children
     would never read EOF at shutdown.  An atomic list, not a locked
     table: a forked child reads it without locking, and a lock held by
     another thread at fork time would never be released there. *)
  let parent_ends : Socket.t list Atomic.t = Atomic.make []

  let rec update f =
    let old = Atomic.get parent_ends in
    if not (Atomic.compare_and_set parent_ends old (f old)) then update f

  let register chan = update (fun l -> chan :: l)

  (* Close a parent-side endpoint, dropping it from the registry first
     so no later fork can see a recycled descriptor number. *)
  let release chan =
    update (List.filter (fun c -> c != chan));
    Socket.close chan

  (* State a forked child must not inherit, forgotten by the hooks that
     higher layers register at module initialisation. *)
  let child_resets : (unit -> unit) list ref = ref []

  let on_fork_child f = child_resets := f :: !child_resets

  (* First thing in every forked child: close every fabric's parent
     ends (the child's own channel is a child end, never registered)
     and run the resets. *)
  let enter_child () =
    List.iter Socket.close (Atomic.exchange parent_ends []);
    List.iter (fun f -> f ()) !child_resets

  (** Fork [n] children.  Each child closes every descriptor except its
      own channel — including every other fabric's parent ends — runs
      [child ~id chan], and [_exit]s: it never returns into the
      parent's control flow, never flushes the parent's buffered
      output, and never runs [at_exit] handlers.

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
    Array.iter (fun (parent_end, _) -> register parent_end) pairs;
    let nodes =
      Array.init n (fun i ->
          let parent_end, child_end = pairs.(i) in
          match Unix.fork () with
          | 0 ->
              (* Child: keep only this node's child end.  Closing the
                 other descriptors matters for EOF detection — a
                 parent-side read returns EOF only once *every* process
                 holding the write end has closed it. *)
              enter_child ();
              Array.iteri (fun j (_, c) -> if j <> i then Socket.close c) pairs;
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
      its channel; so does a malformed frame header, because the stream
      can no longer be resynchronised — the caller sees [`Eof] and
      recovers the node as it would a crash. *)
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
              | None | (exception (Closed | Protocol.Bad_frame _)) ->
                  n.alive <- false;
                  release n.chan;
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
    release n.chan;
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
    release n.chan;
    if claim_reap t n then reap_node ~grace:0.0 n;
    flush_all ();
    let parent_end, child_end = Socket.connect () in
    register parent_end;
    (match Unix.fork () with
    | 0 ->
        (* Child: drop every parent-side descriptor, this fabric's
           siblings' included, so EOF detection keeps working, then run
           the same serve closure as the original incarnation. *)
        enter_child ();
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
        try release n.chan with _ -> ())
      t.nodes;
    Array.iter
      (fun n -> if claim_reap t n then try reap_node ?grace n with _ -> ())
      t.nodes
end
