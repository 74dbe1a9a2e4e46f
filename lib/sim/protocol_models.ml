(** Operational model of the work-stealing deque, checked with
    {!Modelcheck}.  (The dispatch protocol needs no model: see
    {!Dispatch_model}, which checks the engine itself.)

    This is a small-state semantics of the *protocol* — who may take
    which task — not of the lock-free implementation.  The checker proves the protocol itself safe under
    every interleaving within the bound; the [bug] parameters inject
    the classic races the real implementations must avoid, and the test
    suite asserts the checker catches each one. *)

(* ------------------------------------------------------------------ *)
(* Work-stealing deque: one owner (push/pop at the bottom), one thief
   (steal at the top).  Safety: every pushed task ends up with exactly
   one party — never lost, never duplicated.                           *)

module Wsdeque_model = struct
  type bug = Steal_no_remove | Lose_pop_race

  type op = Push | Pop

  type state = {
    script : op list;  (** remaining owner operations *)
    steals : int;  (** remaining thief steal attempts *)
    next : int;  (** next task id to push *)
    deque : int list;  (** front = bottom (owner end), rear = top *)
    taken : int list;  (** ids the owner popped *)
    stolen : int list;  (** ids the thief stole *)
  }

  let make_model ?bug ~max_ops () =
    (module struct
      type nonrec state = state

      let name = "wsdeque"

      (* Every owner script over {Push, Pop} up to [max_ops] long; the
         thief gets one steal attempt per push in the script. *)
      let scenarios =
        let rec scripts k =
          if k = 0 then [ [] ]
          else
            let shorter = scripts (k - 1) in
            let full =
              List.concat_map
                (fun s -> [ Push :: s; Pop :: s ])
                (List.filter (fun s -> List.length s = k - 1) shorter)
            in
            shorter @ full
        in
        List.map
          (fun script ->
            {
              script;
              steals =
                List.length (List.filter (fun o -> o = Push) script);
              next = 0;
              deque = [];
              taken = [];
              stolen = [];
            })
          (scripts max_ops)

      let transitions st =
        let owner =
          match st.script with
          | [] -> []
          | Push :: rest ->
              [
                ( Printf.sprintf "push %d" st.next,
                  {
                    st with
                    script = rest;
                    deque = st.next :: st.deque;
                    next = st.next + 1;
                  } );
              ]
          | Pop :: rest -> (
              match st.deque with
              | [] -> [ ("pop empty", { st with script = rest }) ]
              | [ x ] when bug = Some Lose_pop_race && st.steals > 0 ->
                  (* the last-element race: owner pops but the CAS
                     against the thief is skipped, dropping the task *)
                  [
                    ( Printf.sprintf "pop %d (racy)" x,
                      { st with script = rest; deque = [] } );
                  ]
              | x :: deque ->
                  [
                    ( Printf.sprintf "pop %d" x,
                      { st with script = rest; deque; taken = x :: st.taken }
                    );
                  ])
        in
        let thief =
          if st.steals = 0 then []
          else
            match List.rev st.deque with
            | [] -> [ ("steal empty", { st with steals = st.steals - 1 }) ]
            | top :: rest_rev ->
                let deque =
                  if bug = Some Steal_no_remove then st.deque
                  else List.rev rest_rev
                in
                [
                  ( Printf.sprintf "steal %d" top,
                    {
                      st with
                      steals = st.steals - 1;
                      deque;
                      stolen = top :: st.stolen;
                    } );
                ]
        in
        owner @ thief

      (* Conservation + uniqueness: ids [0, next) are each in exactly
         one of deque / taken / stolen. *)
      let invariant st =
        let all = st.deque @ st.taken @ st.stolen in
        let seen = Array.make (max st.next 1) 0 in
        let bad = ref None in
        List.iter
          (fun id ->
            if id < 0 || id >= st.next then
              bad := Some (Printf.sprintf "unknown task id %d" id)
            else begin
              seen.(id) <- seen.(id) + 1;
              if seen.(id) > 1 then
                bad :=
                  Some
                    (Printf.sprintf "task %d duplicated (owner and thief)"
                       id)
            end)
          all;
        (match !bad with
        | None ->
            for id = 0 to st.next - 1 do
              if seen.(id) = 0 && !bad = None then
                bad := Some (Printf.sprintf "task %d lost" id)
            done
        | Some _ -> ());
        !bad

      let terminal_ok _ = None
    end : Modelcheck.MODEL
      with type state = state)

  let check ?bug ?(max_ops = 6) () =
    Modelcheck.explore (make_model ?bug ~max_ops ())
end
