(** Long-lived, supervised job service over the {!Transport.Proc}
    fork-per-node fabric.

    A service forks its workers once, keeps them warm across requests,
    and runs every request as one job on a long-lived {!Dispatch}
    session (heartbeats, respawn with backoff, retry of a dead child's
    in-flight slices); this module adds absolute-deadline propagation
    and bounded-queue admission control.

    Concurrency model: any number of client threads may call {!submit};
    a single dispatcher thread owns the fabric and runs the whole
    protocol, so every seeded fault decision happens on one stream in
    one order.  The parent process must never spawn a domain (respawn
    forks); intra-request parallelism lives in the children's pools. *)

type error =
  | Overloaded  (** rejected at admission: the queue is at its bound *)
  | Deadline_expired  (** the request's compute budget ran out *)
  | Draining  (** the service no longer accepts work *)
  | Failed of string  (** task code raised, or recovery gave up *)

val error_to_string : error -> string

type config = {
  nodes : int;
  cores_per_node : int;
  queue_bound : int;  (** admission-queue high-water mark *)
  heartbeat_interval : float;  (** seconds between pings per child *)
  miss_threshold : int;  (** unanswered pings before a death verdict *)
  respawn_backoff : float;  (** first respawn delay, seconds *)
  respawn_backoff_max : float;  (** backoff cap for flapping children *)
  request_timeout : float;  (** base per-slice retry timeout, seconds *)
  max_attempts : int;  (** per-slice cap on (re-)execution attempts *)
  faults : Fault.spec option;  (** seeded chaos plan, if any *)
}

val default_config : config

type t

val create :
  ?cfg:config ->
  work:
    (node:int ->
    pool:Pool.t ->
    Triolet_base.Payload.t ->
    Triolet_base.Payload.t) ->
  unit ->
  t
(** Fork the fabric and start the dispatcher.  [work] crosses into the
    children by address-space inheritance at fork time and must be
    re-executable (a slice may run more than once under retries).
    Fails if any domain has ever been spawned in this process — the
    fabric forks, and OCaml forbids [fork] after a domain spawn. *)

val submit :
  ?deadline:float ->
  t ->
  Triolet_base.Payload.t array ->
  (Triolet_base.Payload.t array, error) result
(** Submit one request: [payloads.(i)] becomes slice [i], distributed
    over live nodes; the result array is in slice order.  Blocks the
    calling thread until the request completes or is rejected.
    [deadline] is a compute budget in seconds from now.  Thread-safe;
    admission control applies at the queue's high-water mark. *)

val drain : t -> unit
(** Stop accepting work ([Draining] to new submits) but let admitted
    requests finish; returns once the queue is empty and the
    dispatcher is idle. *)

val shutdown : ?grace:float -> t -> unit
(** Graceful shutdown: {!drain}, stop the dispatcher, tear the fabric
    down.  Idempotent. *)

(** {1 Introspection} *)

val live_nodes : t -> int list
val node_pids : t -> int array
val respawns : t -> int
val heartbeat_misses : t -> int

val fault_counters : t -> Fault.counters option
(** Counters of the seeded chaos plan, when one was configured. *)
