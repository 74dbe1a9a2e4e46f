(** Two-level distributed runtime (paper, section 3.4).

    Nodes exchange *only* serialized bytes: payloads are encoded,
    shipped over a transport, and decoded into structurally fresh
    buffers, so a task can never touch the sender's memory.  Task *code*
    travels as an OCaml closure — marshalled to closure bytes between
    processes of this one binary, as the Triolet compiler serializes
    code between its SPMD ranks; task *data* always travels as payload
    bytes, and every byte is counted.

    Which transport carries the bytes is the {!backend} of the
    {!topology}: in-process nodes fed through the dispatch engine's
    inline queues (the simulation the paper's MPI ranks reduce to in one
    address space), Eden-style flat workers over the same queues, or
    genuinely separate OS processes over
    socketpairs ({!Process}), where the no-shared-memory guarantee is
    enforced by the kernel rather than asserted by convention.

    Unlike the paper's MPI runtime, a run survives node deaths and, with
    a {!Fault} plan, injected link failures: every backend runs the one
    {!Dispatch} engine. *)

(** Where and how nodes execute and exchange bytes. *)
type backend =
  | Inprocess  (** in-process nodes over the engine's inline queues *)
  | Flat
      (** Eden's flat process view over the same queues: one
          single-threaded worker per core, no shared memory within a
          node *)
  | Process
      (** one forked OS process per node over socketpair framed
          channels; each child runs its slices on a private
          [cores_per_node]-wide pool.  Every process caller of a
          topology shares its children, forked by the first; that fork
          (and a respawn) must precede any domain spawn in this process
          (an OCaml restriction): keep the parent single-domain, e.g.
          via [TRIOLET_BACKEND=process]. *)

val backend_to_string : backend -> string

val backend_of_string : string -> backend option
(** ["inprocess"], ["flat"], ["process"]. *)

type topology = { nodes : int; cores_per_node : int; backend : backend }
(** The cluster geometry plus the transport that realizes it. *)

val default_topology : topology
(** 4 nodes, 2 cores each, in-process. *)

val topology_workers : topology -> int
(** Logical workers a run fans out to: [nodes * cores_per_node] under
    {!Flat}, [nodes] otherwise. *)

type report = Dispatch.report = {
  scatter_bytes : int;
  gather_bytes : int;
  scatter_messages : int;
  gather_messages : int;
  max_message_bytes : int;
  retries : int;  (** task re-issues after a receive timeout *)
  redeliveries : int;  (** duplicate/late replies discarded by dedup *)
  corrupt_drops : int;  (** messages rejected by checksum/decode *)
  crashed_nodes : int;  (** injected node crashes survived *)
  faults_injected : int;  (** total faults the injector fired *)
  recovery_ns : int;  (** wall time spent in timeout/retry recovery *)
  code_bytes : int;
      (** task-code bytes shipped to process nodes ({!Process} only);
          not payload, so not in the byte and message counts *)
}
(** Fault-free runs leave the recovery fields zero. *)

val pp_report : Format.formatter -> report -> unit
(** Prints the byte/message accounting; fault statistics are appended
    only when any are nonzero, so fault-free output is unchanged. *)

exception Recovery_exhausted of { worker : int; attempts : int }
(** A worker's result could never be obtained within the fault plan's
    attempt budget (or no surviving node remains). *)

exception Unshippable_task of string
(** Task code cannot reach process children — a {!Process} call's, or
    the [work] of a process-mode {!Darray} session or a {!Service}: it
    closes over a value [Marshal] cannot serialize (a mutex, a
    channel), or its closure bytes exceed
    {!Protocol.max_frame_payload}.  Raised before any frame is sent or
    child forked. *)

val run_topology :
  ?pool:Pool.t ->
  ?faults:Fault.spec ->
  topology ->
  scatter:(int -> Triolet_base.Payload.t) ->
  work:(node:int -> pool:Pool.t -> Triolet_base.Payload.t -> 'r) ->
  result_codec:'r Triolet_base.Codec.t ->
  merge:('a -> 'r -> 'a) ->
  init:'a ->
  'a * report
(** [run_topology topo ~scatter ~work ~result_codec ~merge ~init] runs
    one job on a {!Dispatch} session:

    - [scatter w] builds worker [w]'s input payload, serialized and
      shipped once (retries resend the same bytes);
    - [work ~node ~pool payload] runs against the decoded payload;
      [node] is always the logical worker id whose slice it computes,
      even when recovery runs that slice on another node;
    - replies are decoded with [result_codec] and folded with [merge]
      strictly in worker order, never arrival order, at most once each.

    Backends: {!Inprocess}/{!Flat} execute nodes inline in this process
    ([?pool], default {!Pool.default}, gives intra-node parallelism; a
    flat topology has [nodes * cores_per_node] single-core workers).
    {!Process} leases the topology's warm session for the call: one OS
    process per node, each with a private [cores_per_node]-wide pool,
    shared by every process caller of the topology; [?pool] is ignored.
    [work] and [result_codec] ship to each node as closure bytes once
    per call (see {!Unshippable_task}), the fault plan's crash node a
    variant that dies at its planned phase; state they
    capture starts from the caller's value on every call.  A node that
    died is respawned before the next call.  Forking fails fast with a
    [Failure] if a domain was ever spawned in this process (OCaml then
    forbids [fork]); a warm topology with every node alive keeps
    serving.  Every frame is CRC-checksummed; byte and message
    accounting (frame headers and code bytes excluded) is identical
    across backends.

    A node that dies (EOF on its channel, e.g. a SIGKILL from outside)
    has its slice re-issued to a survivor, with or without a fault
    plan.  With [?faults] (a deterministic, seeded plan) a process call
    forks a private session, closed after the call; link faults are
    injected parent-side, crashes are
    real child exits (or inline node deaths), and a slice whose reply
    does not arrive within a capped exponential timeout is re-issued,
    up to the plan's [max_attempts].  [work] must then be re-executable.
    Raises {!Recovery_exhausted} when a slice runs out of attempts or
    of live nodes, and re-raises [work]'s exception (as a [Failure]
    carrying its text under {!Process}) if [work] raised. *)

val on_node : unit -> int option
(** Inside a process-backend child: the id of the node this process
    is.  [None] in the parent and under in-process backends (where
    task code can instead trust [work]'s [~node] argument). *)
