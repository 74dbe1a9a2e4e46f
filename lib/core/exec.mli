(** Immutable execution contexts: where and how skeletons run.

    One record carries cluster geometry, transport
    {!Triolet_runtime.Cluster.backend}, fault plan and grain policy.
    Iterator consumers and skeletons take it as [?ctx]; omitted, they
    use the ambient context.  Kernel entry points resolve through
    {!for_kernel}, which also consults the checked-in auto-mapping file
    ({!Mapping}) — precedence [?ctx] > explicit ambient > environment >
    mapping > {!default}. *)

type t = {
  nodes : int;  (** simulated cluster nodes *)
  cores_per_node : int;  (** cores (pool width) within each node *)
  backend : Triolet_runtime.Cluster.backend;
      (** transport realizing the geometry *)
  faults : Triolet_runtime.Fault.spec option;
      (** fault-injection plan, if any *)
  grain : int option;  (** scheduler grain override *)
  chunk_multiplier : int;
      (** over-decomposition for pre-chunked local loops *)
  deadline : float option;
      (** per-request compute budget in seconds for the long-lived
          service ({!Triolet_runtime.Service}); [None] = no deadline *)
  queue_bound : int;
      (** service admission-queue high-water mark; requests beyond it
          are rejected [Overloaded] instead of queueing unboundedly *)
}

val default : unit -> t
(** 4 nodes x 2 cores, no faults, automatic grain, multiplier 4, no
    deadline, queue bound 64.  The backend honours the
    [TRIOLET_BACKEND] environment variable (["inprocess"] | ["flat"] |
    ["process"]); any other non-empty value raises [Invalid_argument]
    naming the valid choices. *)

val make :
  ?nodes:int ->
  ?cores_per_node:int ->
  ?backend:Triolet_runtime.Cluster.backend ->
  ?faults:Triolet_runtime.Fault.spec option ->
  ?grain:int option ->
  ?chunk_multiplier:int ->
  ?deadline:float option ->
  ?queue_bound:int ->
  unit ->
  t
(** A context derived from {!current}, overriding the given fields.
    Raises [Invalid_argument] on [queue_bound < 1]. *)

val current : unit -> t
(** The ambient context (created from {!default} on first use). *)

val set_ambient : t -> unit
(** Replace the ambient context.  This marks the ambient as explicitly
    chosen, so {!for_kernel} stops consulting the mapping file. *)

val with_context : t -> (unit -> 'a) -> 'a
(** Run the thunk with the given ambient context, restoring the previous
    one (and its explicitness) afterwards — exception-safe, nestable. *)

val resolve : t option -> t
(** [resolve ctx] is [ctx]'s value, or {!current} when [None] — the
    one-liner every [?ctx] consumer starts with. *)

val for_kernel : ?ctx:t -> kernel:string -> size:string -> unit -> t
(** The context a kernel's [run_triolet] should execute under.  An
    explicit [?ctx] wins; otherwise an explicitly installed ambient
    ({!set_ambient} / {!with_context}) wins; otherwise the checked-in
    mapping entry for [(kernel, size)] — with [TRIOLET_BACKEND] still
    overriding the mapped backend — overlaid on {!default}; otherwise
    just {!current}. *)

val topology : t -> Triolet_runtime.Cluster.topology
(** The geometry + backend a [Cluster.run_topology] call needs. *)

val worker_count : t -> int
(** Logical distributed workers this context fans out to. *)

val env_backend : unit -> Triolet_runtime.Cluster.backend option
(** The backend selected by [TRIOLET_BACKEND]; [None] when unset or
    empty.  Raises [Invalid_argument] (listing the valid values) on an
    unrecognized value — a typo must not silently run in-process. *)
