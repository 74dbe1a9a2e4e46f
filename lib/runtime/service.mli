(** Long-lived, supervised job service over the warm process fabric.

    A service leases its topology's warm {!Dispatch} session from
    {!create} to {!shutdown} — the same children every process caller
    of that topology runs on — and runs every request as one job on it
    (heartbeats, respawn with backoff, retry of a dead child's
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
(** Lease the topology's warm fabric — forking it only if no idle one
    exists — and start the dispatcher.  [work] ships to the children as
    closure bytes, once per node and again after a respawn; it must be
    re-executable (a slice may run more than once under retries).
    Raises {!Cluster.Unshippable_task}, before anything forks, if
    [work] cannot cross (it closes over a mutex or a channel, or is
    bigger than a frame).  A fork fails if any domain has ever been
    spawned in this process.  With [cfg.faults] the service gets a
    private fabric; a crash in the plan fires once: the planned node
    dies at its phase, and its replacement runs plain [work]. *)

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
(** Graceful shutdown: {!drain}, stop the dispatcher, hand the fabric
    back warm (or tear a private one down).  Idempotent. *)

(** {1 Introspection} The counters are this service's own, since {!create}. *)

val live_nodes : t -> int list
val node_pids : t -> int array

val respawns : t -> int
val heartbeat_misses : t -> int

val fault_counters : t -> Fault.counters option
(** Counters of the seeded chaos plan, when one was configured. *)
