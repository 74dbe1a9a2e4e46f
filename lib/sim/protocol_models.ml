(** Operational models of the runtime's concurrency primitives, checked
    with {!Modelcheck}.  (The dispatch protocol needs no model: see
    {!Dispatch_model}, which checks the engine itself.)

    These are small-state semantics of the *protocols* — who may take
    which task, when a receiver may block — not of the lock-free
    implementations.  The checker proves the protocol itself safe under
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

(* ------------------------------------------------------------------ *)
(* Mailbox: one sender (send / send_delayed / close), one receiver
   (recv / recv_timeout).  Safety: no message lost or duplicated;
   liveness at the bound: close wakes a blocked receiver.             *)

module Mailbox_model = struct
  type bug = No_close_wakeup | Drop_delayed

  type sop = Send | Send_delayed | Close
  type rop = Recv | Recv_timeout

  type state = {
    sends : sop list;  (** remaining sender operations *)
    recvs : rop list;  (** remaining receiver operations *)
    next : int;
    q : int list;  (** delivered queue, front first *)
    delayed : int list;  (** in flight, not yet delivered *)
    closed : bool;
    received : int list;
    closed_seen : int;  (** receiver ops that observed the close *)
    timeouts : int;
  }

  let make_model ?bug ~max_sends ~max_recvs () =
    (module struct
      type nonrec state = state

      let name = "mailbox"

      (* Sender scripts: every {Send, Send_delayed} sequence up to
         [max_sends] long with Close inserted at every position — the
         mailbox is always eventually closed, as the cluster runtime
         does.  Receiver scripts: every {Recv, Recv_timeout} sequence
         up to [max_recvs] long. *)
      let scenarios =
        let rec seqs alts k =
          if k = 0 then [ [] ]
          else
            let shorter = seqs alts (k - 1) in
            shorter
            @ List.concat_map
                (fun s -> List.map (fun a -> a :: s) alts)
                (List.filter (fun s -> List.length s = k - 1) shorter)
        in
        let rec insertions x = function
          | [] -> [ [ x ] ]
          | y :: rest ->
              (x :: y :: rest)
              :: List.map (fun s -> y :: s) (insertions x rest)
        in
        let sender_scripts =
          List.concat_map (insertions Close) (seqs [ Send; Send_delayed ] max_sends)
        in
        let recv_scripts = seqs [ Recv; Recv_timeout ] max_recvs in
        List.concat_map
          (fun sends ->
            List.map
              (fun recvs ->
                {
                  sends;
                  recvs;
                  next = 0;
                  q = [];
                  delayed = [];
                  closed = false;
                  received = [];
                  closed_seen = 0;
                  timeouts = 0;
                })
              recv_scripts)
          sender_scripts

      let transitions st =
        let sender =
          match st.sends with
          | [] -> []
          | Send :: rest ->
              if st.closed then [ ("send rejected", { st with sends = rest }) ]
              else
                [
                  ( Printf.sprintf "send %d" st.next,
                    {
                      st with
                      sends = rest;
                      q = st.q @ [ st.next ];
                      next = st.next + 1;
                    } );
                ]
          | Send_delayed :: rest ->
              if st.closed then [ ("send rejected", { st with sends = rest }) ]
              else
                [
                  ( Printf.sprintf "send_delayed %d" st.next,
                    {
                      st with
                      sends = rest;
                      delayed = st.delayed @ [ st.next ];
                      next = st.next + 1;
                    } );
                ]
          | Close :: rest -> [ ("close", { st with sends = rest; closed = true }) ]
        in
        let receiver =
          match st.recvs with
          | [] -> []
          | Recv :: rest -> (
              match st.q with
              | x :: q ->
                  [
                    ( Printf.sprintf "recv %d" x,
                      { st with recvs = rest; q; received = x :: st.received }
                    );
                  ]
              | [] ->
                  if st.closed && bug <> Some No_close_wakeup then
                    [
                      ( "recv closed",
                        {
                          st with
                          recvs = rest;
                          closed_seen = st.closed_seen + 1;
                        } );
                    ]
                  else [] (* blocked: no message and not (visibly) closed *))
          | Recv_timeout :: rest -> (
              match st.q with
              | x :: q ->
                  [
                    ( Printf.sprintf "recv_timeout %d" x,
                      { st with recvs = rest; q; received = x :: st.received }
                    );
                  ]
              | [] ->
                  if st.closed then
                    [
                      ( "recv_timeout closed",
                        {
                          st with
                          recvs = rest;
                          closed_seen = st.closed_seen + 1;
                        } );
                    ]
                  else
                    (* Timed out waiting; the wait is when in-flight
                       (delayed) messages land in the queue. *)
                    [
                      ( "recv_timeout expired",
                        {
                          st with
                          recvs = rest;
                          timeouts = st.timeouts + 1;
                          q =
                            (if bug = Some Drop_delayed then st.q
                             else st.q @ st.delayed);
                          delayed = [];
                        } );
                    ])
        in
        sender @ receiver

      (* Conservation + uniqueness: accepted messages [0, next) are
         each in exactly one of q / delayed / received. *)
      let invariant st =
        let all = st.q @ st.delayed @ st.received in
        let seen = Array.make (max st.next 1) 0 in
        let bad = ref None in
        List.iter
          (fun id ->
            if id < 0 || id >= st.next then
              bad := Some (Printf.sprintf "unknown message id %d" id)
            else begin
              seen.(id) <- seen.(id) + 1;
              if seen.(id) > 1 then
                bad := Some (Printf.sprintf "message %d duplicated" id)
            end)
          all;
        (match !bad with
        | None ->
            for id = 0 to st.next - 1 do
              if seen.(id) = 0 && !bad = None then
                bad := Some (Printf.sprintf "message %d lost" id)
            done
        | Some _ -> ());
        !bad

      (* A terminal state with receiver operations left means the
         receiver is blocked with no sender step coming: the close
         failed to wake it. *)
      let terminal_ok st =
        if st.recvs <> [] then
          Some
            (Printf.sprintf
               "receiver blocked with %d operation(s) pending after \
                close: close must wake blocked receivers"
               (List.length st.recvs))
        else None
    end : Modelcheck.MODEL
      with type state = state)

  let check ?bug ?(max_sends = 2) ?(max_recvs = 3) () =
    Modelcheck.explore (make_model ?bug ~max_sends ~max_recvs ())
end
