(** Low-level skeletons: the glue between iterator consumers and the
    runtime (paper, section 3.4).  These know nothing about iterators;
    they distribute abstract chunk ranges and payloads.  [Iter] and
    [Iter2] instantiate them with chunk bodies built from iterators.

    All take an optional {!Exec.t} execution context; omitted, the
    ambient context applies. *)

val seq_pool : unit -> Triolet_runtime.Pool.t
(** Shared 1-wide pool for flat (process-per-core) node execution.
    Thread-safe lazy creation. *)

val local_reduce_with :
  ?ctx:Exec.t ->
  Triolet_runtime.Pool.t ->
  len:int ->
  chunk:(int -> int -> 'r) ->
  merge:('r -> 'r -> 'r) ->
  init:'r ->
  'r
(** Shared-memory parallel reduction over [len] outer iterations on the
    adaptive lazy-splitting scheduler (ranges split on demand, grain
    from the context or auto); per-worker local merging first. *)

val local_reduce :
  ?ctx:Exec.t ->
  len:int ->
  chunk:(int -> int -> 'r) ->
  merge:('r -> 'r -> 'r) ->
  init:'r ->
  unit ->
  'r
(** {!local_reduce_with} on the default pool. *)

val local_map_chunks_with :
  ?ctx:Exec.t ->
  Triolet_runtime.Pool.t ->
  len:int ->
  chunk:(int -> int -> 'r) ->
  'r array
(** Order-preserving chunked map: per-block results in block order, for
    consumers that pack variable-length output. *)

val local_map_chunks :
  ?ctx:Exec.t -> len:int -> chunk:(int -> int -> 'r) -> unit -> 'r array

val distributed_reduce :
  ?ctx:Exec.t ->
  len:int ->
  payload_of:(int -> int -> Triolet_base.Payload.t) ->
  node_work:(pool:Triolet_runtime.Pool.t -> Triolet_base.Payload.t -> 'r) ->
  result_codec:'r Triolet_base.Codec.t ->
  merge:('r -> 'r -> 'r) ->
  init:'r ->
  unit ->
  'r
(** Partition [len] outer iterations across the context's cluster, ship
    each worker its serialized payload slice, run [node_work] against
    the decoded payload with intra-node parallelism, merge the
    serialized replies.  The context's backend chooses the transport;
    under [Process], [node_work] executes in a forked child on the
    child's own pool. *)

val distributed_map_blocks :
  ?ctx:Exec.t ->
  blocks:'blk array ->
  payload_of:('blk -> Triolet_base.Payload.t) ->
  node_work:(pool:Triolet_runtime.Pool.t -> Triolet_base.Payload.t -> 'r) ->
  result_codec:'r Triolet_base.Codec.t ->
  unit ->
  'r array
(** One worker per block; results returned in block order. *)

(** {1 Resident (persistent) distributed state}

    Iterative skeletons that re-visit the same data every round keep it
    resident in warm per-node children via {!Triolet_runtime.Darray}
    instead of re-shipping it; these wrappers derive the session and
    segment geometry from the execution context so kernels stay on the
    [?ctx] API. *)

val resident_session :
  ?ctx:Exec.t ->
  work:Triolet_runtime.Darray.work ->
  unit ->
  Triolet_runtime.Darray.session
(** Warm resident fabric with topology from the context.  Under the
    [Process] backend this forks the node children — create it before
    any domain is spawned. *)

val resident_blocks : ?ctx:Exec.t -> len:int -> unit -> (int * int) array
(** The [(offset, length)] blocks {!resident_segments} materializes:
    one per resident node, in owner order. *)

val resident_segments :
  ?ctx:Exec.t ->
  len:int ->
  payload_of:(int -> int -> Triolet_base.Payload.t) ->
  unit ->
  Triolet_base.Payload.t array
(** Block [len] one-per-resident-node and materialize each block's
    payload as a {!Triolet_runtime.Darray.create} segment: segment [i]
    is owned by node [i], so replies merge back in segment order. *)

val resident_round :
  Triolet_runtime.Darray.view ->
  arg:(int -> Triolet_base.Payload.t) ->
  merge:('a -> Triolet_base.Payload.t -> 'a) ->
  init:'a ->
  'a * Triolet_runtime.Cluster.report
(** One round over a resident view ({!Triolet_runtime.Darray.run})
    under an observability span. *)
