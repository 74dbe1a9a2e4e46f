(** Operational model of the work-stealing deque's owner/thief
    discipline, exhaustively checked with {!Modelcheck}.  The [bug]
    parameters inject classic races so the test suite can prove the
    checker catches them. *)

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
