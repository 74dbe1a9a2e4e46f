(** Bounded exhaustive interleaving explorer.

    A {!MODEL} is an operational semantics for a small concurrent
    protocol: scenario initial states, labeled transitions (each the
    atomic step of one worker), a safety invariant checked at *every*
    reachable state, and a terminal-state check (deadlock / liveness at
    the bound).  [explore] enumerates every reachable state of every
    scenario by memoized breadth-first search — interleavings that
    converge to the same state are explored once, a partial-order
    reduction by state canonicalization — and reports the exact number
    of distinct interleavings via path counting over the acyclic state
    graph (every transition consumes a script operation, so the graph
    is a DAG).

    The first invariant or terminal violation aborts exploration and is
    reported with its scenario index and a {e minimal} witness: states
    are expanded in breadth-first order and each records the edge that
    first discovered it, so the reported trace is a shortest event
    sequence from the initial state to the bad one — the
    counterexample a human actually wants to read. *)

module type MODEL = sig
  type state

  val name : string

  val scenarios : state list
  (** Initial states, one per scenario (script combination) to check. *)

  val transitions : state -> (string * state) list
  (** Enabled atomic steps, labeled for traces.  A state with no
      transitions is terminal. *)

  val invariant : state -> string option
  (** [Some msg] iff the state violates safety. *)

  val terminal_ok : state -> string option
  (** [Some msg] iff a terminal state is wrong (e.g. a receiver still
      blocked that should have been woken). *)
end

type violation = {
  scenario : int;  (** index into [scenarios] *)
  message : string;
  trace : string list;  (** transition labels from the initial state *)
}

type report = {
  model : string;
  scenarios : int;
  states : int;  (** distinct states explored, summed over scenarios *)
  interleavings : int;  (** exact count of distinct maximal executions *)
  violation : violation option;
}

exception Found of violation

let explore (type s) (module M : MODEL with type state = s) : report =
  (* States are deep values (whole engine states, queues of frames):
     hash far enough into them that distinct states rarely collide. *)
  let module Hashtbl = Hashtbl.Make (struct
    type t = s

    let equal = ( = )
    let hash = Hashtbl.hash_param 200 1000
  end) in
  let states = ref 0 and interleavings = ref 0 in
  let violation = ref None in
  (try
     List.iteri
       (fun si init ->
         (* BFS with parent pointers: the first edge to discover a
            state is on a shortest path to it, so reconstructing
            through [parent] yields a minimal witness trace. *)
         let visited : unit Hashtbl.t = Hashtbl.create 256 in
         let parent : (s * string) option Hashtbl.t = Hashtbl.create 256 in
         let trace_to st =
           let rec go st acc =
             match Hashtbl.find parent st with
             | None -> acc
             | Some (p, lbl) -> go p (lbl :: acc)
           in
           go st []
         in
         let fail st message = raise (Found { scenario = si; message; trace = trace_to st }) in
         let q = Queue.create () in
         Hashtbl.add visited init ();
         Hashtbl.add parent init None;
         Queue.push init q;
         while not (Queue.is_empty q) do
           let st = Queue.pop q in
           (match M.invariant st with
           | Some message -> fail st message
           | None -> ());
           match M.transitions st with
           | [] -> (
               match M.terminal_ok st with
               | Some message -> fail st message
               | None -> ())
           | ts ->
               List.iter
                 (fun (lbl, st') ->
                   if not (Hashtbl.mem visited st') then begin
                     Hashtbl.add visited st' ();
                     Hashtbl.add parent st' (Some (st, lbl));
                     Queue.push st' q
                   end)
                 ts
         done;
         (* Exact interleaving count: path-count DP over the DAG of
            states (memoized on canonical states, so shared suffixes
            are counted once but multiplied by their multiplicity). *)
         let paths : int Hashtbl.t = Hashtbl.create 256 in
         let rec count st =
           match Hashtbl.find_opt paths st with
           | Some n -> n
           | None ->
               let n =
                 match M.transitions st with
                 | [] -> 1
                 | ts ->
                     List.fold_left
                       (fun acc (_, st') -> acc + count st')
                       0 ts
               in
               Hashtbl.add paths st n;
               n
         in
         states := !states + Hashtbl.length visited;
         interleavings := !interleavings + count init)
       M.scenarios
   with Found v -> violation := Some v);
  {
    model = M.name;
    scenarios = List.length M.scenarios;
    states = !states;
    interleavings = !interleavings;
    violation = !violation;
  }

let report_to_string r =
  match r.violation with
  | None ->
      Printf.sprintf
        "model %-10s ok: %d scenarios, %d states, %d interleavings" r.model
        r.scenarios r.states r.interleavings
  | Some v ->
      Printf.sprintf
        "model %-10s VIOLATION in scenario %d: %s\n  trace: %s" r.model
        v.scenario v.message
        (match v.trace with [] -> "(initial state)" | t -> String.concat " -> " t)
