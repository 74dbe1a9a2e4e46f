(** Work-stealing domain pool: Triolet's intra-node parallel substrate
    (paper, section 3.4).

    A pool owns [n - 1] helper domains plus the calling domain.
    Every loop ({!parallel_fold} and, defined on it, {!parallel_range},
    {!parallel_for}, {!parallel_reduce}) uses adaptive
    lazy binary splitting: each worker executes its range task a small
    grain off the bottom at a time, and splits the remainder —
    publishing the larger half in its one-range steal cell for
    thieves — only when that cell is empty.  Skewed per-element costs
    rebalance at grain granularity instead of stranding a static chunk
    on one worker.  Each worker threads one accumulator through all its
    grains, so per-grain state is never re-allocated.

    Parallel consumers called from *inside* a pool worker run inline
    (nested data parallelism is flattened). *)

type t

val create : ?workers:int -> unit -> t
(** Total worker count including the caller; defaults to
    [Domain.recommended_domain_count ()]. *)

val size : t -> int

val shutdown : t -> unit
(** Joins the helper domains.  The pool must be idle. *)

val parallel_fold :
  t ->
  ?grain:int ->
  lo:int ->
  hi:int ->
  create:(unit -> 'acc) ->
  f:('acc -> int -> int -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
(** Adaptive fold over [lo, hi): a worker calls [create] on its first
    grain and threads that one accumulator through all its grains,
    [f acc off len] folding the grain [off, off+len) into [acc] (it may
    update [acc] in place and return it).  The accumulators of the
    workers that ran a grain are combined with [merge] in worker order;
    an empty range returns [create ()].  [merge] must be associative.
    [grain] defaults to {!Partition.grain}; ranges no longer than a
    grain are never split across workers.

    If [f] or [create] raises, remaining work is skipped, all workers
    rendezvous normally, and the first exception is re-raised on the
    caller. *)

val parallel_range :
  t ->
  ?grain:int ->
  lo:int ->
  hi:int ->
  f:(int -> int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  init:'a ->
  unit ->
  'a
(** Adaptive reduction over [lo, hi), a {!parallel_fold}: [f off len]
    computes the partial result for one grain-sized sub-range; each
    worker folds its grains locally with [merge] before the per-worker
    partials are combined.  [merge] must be associative with identity
    [init].  Grain and exception behaviour as in {!parallel_fold}. *)

val parallel_for : t -> ?grain:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** Parallel loop over [lo, hi) for side effects on disjoint state, with
    adaptive lazy splitting. *)

val parallel_reduce :
  t ->
  ?grain:int ->
  lo:int ->
  hi:int ->
  f:(int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  init:'a ->
  unit ->
  'a
(** Adaptive reduction of [f i] over [lo, hi). *)

(** {1 Default pool}

    Iterator consumers share one lazily created pool. *)

val set_default_width : int -> unit
(** Must be called before the first {!default} use to take effect. *)

val default : unit -> t
(** The shared pool, created on first use.  When the environment selects
    the multi-process cluster backend ([TRIOLET_BACKEND=process]) the
    width is clamped to 1 so the parent process never spawns a domain
    and stays fork-able; node-local parallelism then lives in the
    per-node child processes. *)

val domains_ever_spawned : unit -> bool
(** Whether any pool in this process has ever spawned a helper domain.
    Once true, [Unix.fork] is permanently unavailable (an OCaml runtime
    restriction), so the multi-process cluster backend cannot start. *)
