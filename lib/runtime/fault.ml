(** Deterministic fault injection for the cluster runtime.

    A real MPI deployment loses links and ranks; the in-process runtime
    never does, so nothing exercised the recovery machinery the paper's
    runtime lacks.  This module injects those failures *on purpose and
    reproducibly*: every decision (drop this message?  flip which bit?)
    is drawn from a splitmix64 stream seeded by the plan, and the
    cluster protocol is single-threaded, so a given seed yields the
    exact same fault schedule — and therefore the same retries,
    redeliveries and recovery path — on every run.

    Faults are applied where the dispatch engine hands a frame to a
    link ([Dispatch.through]), per *link* (main to a node, or a node
    back to main):

    - {b drop}: the frame is never delivered;
    - {b corrupt}: one byte is XORed with a nonzero mask before
      delivery, which the checksummed envelope must catch;
    - {b duplicate}: the frame is delivered twice, which at-most-once
      reply dedup must absorb;
    - {b delay}: the frame is parked on the engine's [late] queue and
      delivered only once the engine's next timeout fires — a straggler
      whose reply crosses the retry on the wire.

    Node-level faults: one node may crash once (before, during or after
    its [work]; a supervised fabric's replacement runs plain code), and
    designated straggler nodes have their first reply delayed. *)

module Rng = Triolet_base.Rng

type crash_phase = Before_work | During_work | After_work

type link =
  | To_node of int  (** scatter: main -> node [i] *)
  | From_node of int  (** gather: node [i] -> main *)

type link_faults = {
  drop : float;
  duplicate : float;
  corrupt : float;
  delay : float;
}

let no_faults = { drop = 0.0; duplicate = 0.0; corrupt = 0.0; delay = 0.0 }

let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault: %s probability out of [0,1]" name)

type spec = {
  seed : int;
  faults_of : link -> link_faults;
      (** per-link fault rates; defaults to a uniform rate everywhere *)
  crash : (int * crash_phase) option;
      (** node that crashes (once), and when *)
  stragglers : int list;  (** nodes whose first reply is delayed *)
  max_attempts : int;  (** per-worker cap on (re-)execution attempts *)
  base_timeout : float;  (** seconds; first gather/node receive timeout *)
  max_timeout : float;  (** cap for the exponential backoff *)
  heartbeat_loss : float;
      (** P(a child's pong never reaches the supervisor) — exercises
          the missed-heartbeat death verdict on live children *)
  crash_on_respawn : float;
      (** P(a respawned child dies immediately) — exercises the
          supervisor's backoff on flapping nodes *)
}

let spec ?(drop = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0) ?(delay = 0.0)
    ?faults_of ?crash ?(stragglers = []) ?(max_attempts = 8)
    ?(base_timeout = 0.005) ?(max_timeout = 0.1) ?(heartbeat_loss = 0.0)
    ?(crash_on_respawn = 0.0) ~seed () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "corrupt" corrupt;
  check_prob "delay" delay;
  check_prob "heartbeat_loss" heartbeat_loss;
  check_prob "crash_on_respawn" crash_on_respawn;
  if max_attempts < 1 then invalid_arg "Fault.spec: max_attempts < 1";
  if base_timeout <= 0.0 || max_timeout < base_timeout then
    invalid_arg "Fault.spec: bad timeouts";
  let uniform = { drop; duplicate; corrupt; delay } in
  let faults_of =
    match faults_of with Some f -> f | None -> fun _ -> uniform
  in
  { seed; faults_of; crash; stragglers; max_attempts; base_timeout;
    max_timeout; heartbeat_loss; crash_on_respawn }

type counters = {
  drops : int;
  duplicates : int;
  corruptions : int;
  delays : int;
  crashes : int;
  heartbeat_losses : int;
  respawn_crashes : int;
}

let zero_counters =
  { drops = 0; duplicates = 0; corruptions = 0; delays = 0; crashes = 0;
    heartbeat_losses = 0; respawn_crashes = 0 }

let pp_counters fmt c =
  Format.fprintf fmt
    "drops=%d duplicates=%d corruptions=%d delays=%d crashes=%d" c.drops
    c.duplicates c.corruptions c.delays c.crashes;
  if c.heartbeat_losses > 0 || c.respawn_crashes > 0 then
    Format.fprintf fmt " heartbeat_losses=%d respawn_crashes=%d"
      c.heartbeat_losses c.respawn_crashes

type t = {
  s : spec;
  rng : Rng.t;
  lock : Mutex.t;
  mutable crashed : bool array;  (* grown on demand; index = node *)
  mutable straggled : int list;  (* straggler delays already fired *)
  mutable counters : counters;
}

let make s = {
  s;
  rng = Rng.create s.seed;
  lock = Mutex.create ();
  crashed = [||];
  straggled = [];
  counters = zero_counters;
}

let plan t = t.s

let counters t =
  Mutex.lock t.lock;
  let c = t.counters in
  Mutex.unlock t.lock;
  c

let ensure_node t node =
  if node >= Array.length t.crashed then begin
    let n = Array.make (node + 1) false in
    Array.blit t.crashed 0 n 0 (Array.length t.crashed);
    t.crashed <- n
  end

(* Once the node has died, the plan's crash has fired: a replacement
   runs plain code, so a respawned node does not flap. *)
let crash_phase t ~node =
  match t.s.crash with
  | Some (n, p) when n = node ->
      Mutex.lock t.lock;
      ensure_node t node;
      let fired = t.crashed.(node) in
      Mutex.unlock t.lock;
      if fired then None else Some p
  | _ -> None

(* One Bernoulli draw.  Zero-rate faults skip the draw; determinism is
   unaffected because the plan itself fixes which rates are zero. *)
let roll t p = p > 0.0 && Rng.float t.rng < p

(* Where a corruption flips a message of [len] bytes: a position and a
   non-zero mask, or nothing for an empty message. *)
let flip_at t len =
  if len = 0 then None
  else
    let pos = Rng.int t.rng len in
    let mask = 1 + Rng.int t.rng 255 in
    Some (pos, mask)

let bump t f =
  t.counters <- f t.counters;
  Stats.record_fault ()

(* A straggler node's first reply is forcibly delayed (consuming no
   randomness, so stragglers do not shift the fault schedule of other
   links). *)
let straggle_now t link =
  match link with
  | From_node n
    when List.mem n t.s.stragglers && not (List.mem n t.straggled) ->
      t.straggled <- n :: t.straggled;
      true
  | To_node _ | From_node _ -> false

(** [fate t ~link ~len] draws the fate of a [len]-byte message from the
    seeded stream without touching any channel: [`Drop], or
    [`Deliver (flip, delayed, duplicated)] where [flip] is where a
    corruption flips one byte.  The draw order (drop, corrupt, delay, duplicate) is
    the wire contract: [Dispatch.through] routes every frame of both
    backends through this single function — a delayed frame waits on
    the engine's [late] queue — so a fault plan means the same thing in
    process and over sockets.  Counted in {!counters} and {!Stats}. *)
let fate t ~link ~len =
  Mutex.lock t.lock;
  let lf = t.s.faults_of link in
  let dropped = roll t lf.drop in
  let decision =
    if dropped then begin
      bump t (fun c -> { c with drops = c.drops + 1 });
      `Drop
    end
    else begin
      let flip =
        if roll t lf.corrupt then begin
          bump t (fun c -> { c with corruptions = c.corruptions + 1 });
          flip_at t len
        end
        else None
      in
      let delayed = straggle_now t link || roll t lf.delay in
      if delayed then
        bump t (fun c -> { c with delays = c.delays + 1 });
      let dup = roll t lf.duplicate in
      if dup then bump t (fun c -> { c with duplicates = c.duplicates + 1 });
      `Deliver (flip, delayed, dup)
    end
  in
  Mutex.unlock t.lock;
  decision

(** [mark_crashed t node] records that [node] died — the dispatch
    engine calls this on the node's EOF, whether the node died at its
    planned crash phase or something external [kill]ed it.  Returns
    whether the death was fresh, so each death is counted once. *)
let mark_crashed t node =
  Mutex.lock t.lock;
  ensure_node t node;
  let fresh = not t.crashed.(node) in
  if fresh then begin
    t.crashed.(node) <- true;
    t.counters <- { t.counters with crashes = t.counters.crashes + 1 }
  end;
  Mutex.unlock t.lock;
  if fresh then begin
    Stats.record_crash ();
    Stats.record_fault ()
  end;
  fresh

(* Service-fabric fault points.  Decided supervisor-side from the same
   seeded stream as link faults: the supervisor is the fabric's single
   protocol owner, so one stream means one schedule.  A rate of zero
   consumes no randomness (see [roll]), so plans written before these
   points existed keep their exact fault schedules. *)

type service_fault =
  | Heartbeat_loss
      (** a pong from a live child is discarded before the supervisor
          sees it; enough in a row trips the miss threshold *)
  | Crash_on_respawn
      (** a freshly respawned child dies before serving anything,
          forcing the supervisor's backoff to escalate *)

(** [inject t fault ~node] draws whether to fire [fault] against
    [node]'s supervision path.  Seeded and deterministic; counted in
    {!counters} and {!Stats}.  The [node] argument is for tracing only —
    rates are uniform across nodes. *)
let inject t fault ~node =
  ignore node;
  Mutex.lock t.lock;
  let fire =
    match fault with
    | Heartbeat_loss ->
        let f = roll t t.s.heartbeat_loss in
        if f then
          bump t (fun c -> { c with heartbeat_losses = c.heartbeat_losses + 1 });
        f
    | Crash_on_respawn ->
        let f = roll t t.s.crash_on_respawn in
        if f then
          bump t (fun c -> { c with respawn_crashes = c.respawn_crashes + 1 });
        f
  in
  Mutex.unlock t.lock;
  fire
