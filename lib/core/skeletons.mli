(** Low-level skeletons: the glue between iterator consumers and the
    runtime (paper, section 3.4).  These know nothing about iterators;
    they distribute abstract chunk ranges, blocks and payloads.  [Iter]
    instantiates them with blocks cut by {!Shape.blocks} and chunk
    bodies built from iterators.

    All take an optional {!Exec.t} execution context; omitted, the
    ambient context applies. *)

val seq_pool : unit -> Triolet_runtime.Pool.t
(** Shared 1-wide pool for flat (process-per-core) node execution.
    Thread-safe lazy creation. *)

val local_reduce_with :
  ?ctx:Exec.t ->
  Triolet_runtime.Pool.t ->
  len:int ->
  create:(unit -> 'r) ->
  fold:('r -> int -> int -> 'r) ->
  merge:('r -> 'r -> 'r) ->
  'r
(** Shared-memory parallel fold over [len] outer iterations on the
    adaptive lazy-splitting scheduler (ranges split on demand, grain
    from the context or auto): each pool worker folds its ranges into
    one accumulator from [create], which [fold] may update in place;
    the per-worker accumulators are merged once, in worker order
    ({!Triolet_runtime.Pool.parallel_fold}). *)

val local_reduce :
  ?ctx:Exec.t ->
  len:int ->
  create:(unit -> 'r) ->
  fold:('r -> int -> int -> 'r) ->
  merge:('r -> 'r -> 'r) ->
  unit ->
  'r
(** {!local_reduce_with} on the default pool. *)

val distributed_reduce :
  ?ctx:Exec.t ->
  blocks:'blk array ->
  payload_of:('blk -> Triolet_base.Payload.t) ->
  node_work:(pool:Triolet_runtime.Pool.t -> Triolet_base.Payload.t -> 'r) ->
  result_codec:'r Triolet_base.Codec.t ->
  merge:('r -> 'r -> 'r) ->
  init:'r ->
  unit ->
  'r
(** One block per cluster worker (at most as many blocks as workers;
    spare workers idle): ship each worker its block's serialized
    payload, run [node_work] against the decoded payload with
    intra-node parallelism, merge the serialized replies.  The
    context's backend chooses the transport; under [Process],
    [node_work] executes in a forked child on the child's own pool. *)

val distributed_map_blocks :
  ?ctx:Exec.t ->
  blocks:'blk array ->
  payload_of:('blk -> Triolet_base.Payload.t) ->
  node_work:(pool:Triolet_runtime.Pool.t -> Triolet_base.Payload.t -> 'r) ->
  result_codec:'r Triolet_base.Codec.t ->
  unit ->
  'r array
(** One worker per block; results returned in block order.  No blocks
    dispatch nothing and return [[||]]. *)

(** {1 Resident (persistent) distributed state}

    Iterative kernels that re-visit the same data every round keep it
    resident in warm per-node children via {!Triolet_runtime.Darray}
    instead of re-shipping it.  {!Resident} derives the session and the
    block geometry from the execution context, so kernels stay on the
    [?ctx] API. *)

module Resident : sig
  type t

  val create :
    ?ctx:Exec.t ->
    len:int ->
    segment:(int * int -> Triolet_base.Payload.t) ->
    work:
      (block:int * int ->
      resident:Triolet_base.Payload.t ->
      arg:Triolet_base.Payload.t ->
      Triolet_base.Payload.t) ->
    unit ->
    t
  (** Cut [len] outer iterations into at most one [(offset, length)]
      block per context node, start a warm session with one node per
      block, and make [segment block] each block's resident segment.
      [work ~block ~resident ~arg] is a node's compute over its block
      (see {!Triolet_runtime.Darray.work}).  Under the [Process]
      backend this forks the node children — create it before any
      domain is spawned.  Raises [Invalid_argument] when [len = 0]. *)

  val refresh : t -> segment:(int * int -> Triolet_base.Payload.t) -> int
  (** Recompute every block's segment; returns how many changed.  Only
      those bump their version and re-ship on the next {!round}. *)

  val round :
    t ->
    arg:Triolet_base.Payload.t ->
    merge:('a -> int * int -> Triolet_base.Payload.t -> 'a) ->
    init:'a ->
    'a * Triolet_runtime.Cluster.report
  (** One round: ship [arg] to every node with the residency deltas,
      and merge each reply with its block, in block order. *)

  val array : t -> Triolet_runtime.Darray.t
  (** The resident array, for halo exchange. *)

  val blocks : t -> (int * int) array
  (** The blocks, in block (= node = segment) order. *)

  val close : t -> unit
end
