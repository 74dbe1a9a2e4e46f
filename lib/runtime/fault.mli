(** Deterministic fault injection for the cluster runtime.

    Every injected failure — message drop, duplication, corruption,
    delay, node crash, straggler — is drawn from a splitmix64 stream
    seeded by the plan.  The cluster protocol is single-threaded, so a
    fixed seed reproduces the exact fault schedule, and with it the
    runtime's recovery behaviour, run after run. *)

type crash_phase =
  | Before_work  (** node receives its payload but never computes *)
  | During_work  (** node computes but dies before replying *)
  | After_work  (** node computes; its reply is lost with it *)

type link =
  | To_node of int  (** scatter: main -> node [i] *)
  | From_node of int  (** gather: node [i] -> main *)

type link_faults = {
  drop : float;  (** P(message never delivered) *)
  duplicate : float;  (** P(message delivered twice) *)
  corrupt : float;  (** P(one byte flipped in transit) *)
  delay : float;  (** P(delivery held past the receiver's timeout) *)
}

val no_faults : link_faults

type spec = {
  seed : int;
  faults_of : link -> link_faults;
  crash : (int * crash_phase) option;
  stragglers : int list;  (** nodes whose first reply is delayed *)
  max_attempts : int;  (** per-worker cap on (re-)execution attempts *)
  base_timeout : float;  (** seconds; first receive timeout *)
  max_timeout : float;  (** backoff cap *)
  heartbeat_loss : float;  (** P(a child's pong is discarded in transit) *)
  crash_on_respawn : float;  (** P(a respawned child dies immediately) *)
}

val spec :
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?delay:float ->
  ?faults_of:(link -> link_faults) ->
  ?crash:int * crash_phase ->
  ?stragglers:int list ->
  ?max_attempts:int ->
  ?base_timeout:float ->
  ?max_timeout:float ->
  ?heartbeat_loss:float ->
  ?crash_on_respawn:float ->
  seed:int ->
  unit ->
  spec
(** Plan constructor.  [drop]/[duplicate]/[corrupt]/[delay] set a
    uniform per-link rate (all default 0); [faults_of] overrides the
    rates per link.  [heartbeat_loss] and [crash_on_respawn] (both
    default 0) target the service fabric's supervision path — see
    {!service_fault}.  Defaults: no crash, no stragglers, 8 attempts,
    5 ms base timeout capped at 100 ms.  Raises [Invalid_argument] on
    rates outside [0,1] or nonsensical limits. *)

type t
(** A live injector: the plan plus its seeded random stream, crash
    state, and fault counters. *)

val make : spec -> t

val plan : t -> spec

type counters = {
  drops : int;
  duplicates : int;
  corruptions : int;
  delays : int;
  crashes : int;
  heartbeat_losses : int;
  respawn_crashes : int;
}

val zero_counters : counters
val counters : t -> counters
val pp_counters : Format.formatter -> counters -> unit

val fate :
  t ->
  link:link ->
  len:int ->
  [ `Drop | `Deliver of (int * int) option * bool * bool ]
(** [fate t ~link ~len] draws the fate of one [len]-byte message from
    the seeded stream: [`Drop], or [`Deliver (flip, delayed,
    duplicated)] where [flip] is the [(position, mask)] of the one byte
    a corruption flips.  The draw order (drop, corrupt, delay,
    duplicate) is the wire contract: [Dispatch.through] routes every
    frame of both backends through this single function, so a fault
    plan means the same thing in process and over sockets.  Counted in
    {!counters} and {!Stats}. *)

val crash_phase : t -> node:int -> crash_phase option
(** The phase at which the plan crashes [node], if it does and the node
    has not died yet ({!mark_crashed}): a plan's crash fires once. *)

val mark_crashed : t -> int -> bool
(** Record a node's death — the dispatch engine calls this on the
    node's EOF, whether the node died at its planned crash phase or was
    killed externally.  True if the death was fresh. *)

type service_fault =
  | Heartbeat_loss
      (** a pong from a live child is discarded before the supervisor
          sees it; enough in a row trips the miss threshold *)
  | Crash_on_respawn
      (** a freshly respawned child dies before serving anything,
          forcing the supervisor's backoff to escalate *)

val inject : t -> service_fault -> node:int -> bool
(** Draw whether to fire a service-fabric fault against [node]'s
    supervision path, from the same seeded stream as link faults (the
    supervisor is the fabric's single protocol owner, so one stream is
    one schedule).  Zero-rate faults consume no randomness: plans
    written before these points existed keep their exact schedules.
    Counted in {!counters} and {!Stats}. *)
