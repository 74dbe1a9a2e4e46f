(** Persistent distributed arrays: segments resident across calls.

    Where {!Cluster.run_topology} re-ships every slice on every call, a
    [Darray]'s segments are installed once in warm per-node children
    (real forked processes under the [Process] backend, parent-held
    tables otherwise) and stay resident; later runs ship only key-sized
    {!Protocol.Seg_reuse} envelopes for unchanged segments plus the
    per-round argument, so iterative kernels' per-round scatter bytes
    collapse to near zero.  Segments are versioned: {!update} bumps a
    version and exactly the changed segments re-ship ({!Protocol.Seg_put}).
    A child refuses a reuse (or a task) naming a version it does not
    hold, and a respawned child's segments are replayed from
    parent-retained encoded bytes before its slice is re-issued. *)

module Codec = Triolet_base.Codec
module Payload = Triolet_base.Payload

(** {1 Sessions} *)

type work = node:int -> resident:Payload.t -> arg:Payload.t -> Payload.t
(** A node's compute: [resident] is the concatenation of the node's
    resident segments in plan order (per array of the view, each owned
    primary segment then its ghost); [arg] is the per-round payload.
    Must be pure in its inputs (it re-executes on retry) and must not
    mutate [resident] (it persists across calls). *)

type session
(** Warm compute context: the work closure, the topology, and — under
    the [Process] backend — one forked child per node with its segment
    table, supervised with heartbeats and backoff respawn.  Fork
    happens at creation, so create process-mode sessions before any
    domain is spawned. *)

val create_session : ?topology:Cluster.topology -> work:work -> unit -> session
(** [create_session ~work ()] builds the resident fabric for
    [topology] (default {!Cluster.default_topology}).  Process mode is
    supervised more loosely than {!Service} (pings every 0.5 s, death
    after 4 unanswered) because a node computing a long slice cannot
    answer pings meanwhile. *)

val session_nodes : session -> int

val proc_pids : session -> int list
(** Live child pids (process mode; [[]] otherwise) — lets chaos tests
    SIGKILL a child mid-iteration from outside. *)

val session_respawns : session -> int
(** Children replaced by the session's supervisor so far. *)

val close_session : session -> unit
(** Tear the fabric down (EOF then SIGKILL after grace, like
    {!Transport.Proc.shutdown}).  Idempotent. *)

(** {1 Arrays} *)

type t

val create : session -> segments:Payload.t array -> t
(** [create s ~segments] distributes [segments]: segment [i] is owned
    by node [i mod nodes].  Nothing ships until the first {!run}. *)

val nsegs : t -> int
val owner : t -> int -> int
val segment_version : t -> int -> int

val update : t -> int -> Payload.t -> unit
(** Replace segment [i]'s contents and bump its version; exactly this
    segment re-ships (as a [Seg_put]) on the next run that needs it. *)

val free : t -> unit
(** Evict the array's segments everywhere ([Seg_free] per node) and
    refuse further use.  Idempotent. *)

(** {1 Halo exchange} *)

val set_ghost : t -> int -> Payload.t -> bool
(** Install or refresh the ghost region riding with primary segment
    [i] (wire index [nsegs + i], same owner node).  Returns whether
    the content changed — an unchanged ghost keeps its version and
    ships as a key-only reuse. *)

val ghost_version : t -> int -> int option

val exchange_halo : t -> compute:(int -> Payload.t) -> int
(** Recompute every ghost with [compute i] (typically boundary planes
    of neighbouring segments, assembled parent-side) and install the
    changed ones; returns how many actually changed. *)

(** {1 Views, zip, and running} *)

type view

val view : t -> view

val zip : view -> t -> view
(** Co-distributed zip: appends an array to the view.  Asserts matching
    geometry — same session, same segment count, same per-segment
    element count — and raises [Invalid_argument] otherwise. *)

val zip2 : t -> t -> view

val run :
  view ->
  arg:(int -> Payload.t) ->
  merge:('a -> Payload.t -> 'a) ->
  init:'a ->
  'a * Cluster.report
(** One round over the resident view: per node, ship residency deltas
    (puts for changed or lost segments, key-only reuses otherwise),
    ship [arg n] in the task frame, and gather replies; results merge
    in node order.  The report's [scatter_bytes] counts puts + reuses +
    task frames, so a warm run over an unchanged view ships orders of
    magnitude fewer bytes than the first.  Under the process backend a
    child that dies mid-round is respawned (supervisor backoff), its
    segments are replayed from parent-retained encoded bytes, and its
    slice re-issued, up to a bounded attempt budget
    ({!Cluster.Recovery_exhausted} beyond it). *)

val run1 :
  t ->
  arg:(int -> Payload.t) ->
  merge:('a -> Payload.t -> 'a) ->
  init:'a ->
  'a * Cluster.report
(** [run1 d] is [run (view d)]. *)
