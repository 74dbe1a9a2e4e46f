(** Operational models of the runtime's concurrency protocols — the
    work-stealing deque's owner/thief discipline and the mailbox's
    send/recv/close discipline — exhaustively checked with
    {!Modelcheck}.  The [bug] parameters inject classic races so the
    test suite can prove the checker catches them. *)

module Wsdeque_model : sig
  type bug =
    | Steal_no_remove  (** thief copies the top task without removing
                           it → duplication *)
    | Lose_pop_race  (** owner's last-element pop skips the race CAS →
                         the task is lost *)

  type op = Push | Pop

  type state = {
    script : op list;
    steals : int;
    next : int;
    deque : int list;
    taken : int list;
    stolen : int list;
  }

  val check : ?bug:bug -> ?max_ops:int -> unit -> Modelcheck.report
  (** Explore every owner script over [{Push, Pop}] up to [max_ops]
      (default 6) long, with one thief steal attempt per push, under
      every interleaving.  Invariant: every pushed task is held by
      exactly one party — never lost, never duplicated. *)
end

module Mailbox_model : sig
  type bug =
    | No_close_wakeup  (** close does not wake a blocked receiver →
                           deadlock at the bound *)
    | Drop_delayed  (** in-flight delayed messages are discarded →
                        message lost *)

  type sop = Send | Send_delayed | Close
  type rop = Recv | Recv_timeout

  type state = {
    sends : sop list;
    recvs : rop list;
    next : int;
    q : int list;
    delayed : int list;
    closed : bool;
    received : int list;
    closed_seen : int;
    timeouts : int;
  }

  val check :
    ?bug:bug -> ?max_sends:int -> ?max_recvs:int -> unit -> Modelcheck.report
  (** Explore every sender script of up to [max_sends] (default 2)
      sends/delayed-sends with [Close] inserted at every position, against
      every receiver script of up to [max_recvs] (default 3)
      recv/recv_timeout operations, under every interleaving.
      Invariants: no accepted message lost or duplicated; a terminal
      state with receiver operations pending is a wakeup failure. *)
end
