(** User-facing Triolet iterators: lazily evaluated parallel loops over
    an index domain (the paper's one iterator type, parameterised by a
    [Domain] class — section 3.3).

    An [('i, 'a) iter] couples a {!Shape.t} domain with two ways to
    realize any block of it: *in place* (zero copy, for sequential and
    shared-memory execution) and *extracted as a payload* plus a rebuild
    function (for distributed execution — the sliceable data sources of
    section 3.5).  Transformations compose both paths, so pipelines of
    [map]/[filter]/[concat_map]/[zip] stay fused and partitionable.

    Consumers dispatch on the parallelism hint set by {!par} and
    {!localpar}: sequential loop, work-stealing pool over outer-axis
    bands ({!Shape.band}), or the two-level cluster runtime over node
    blocks ({!Shape.blocks}: 1-D blocks, a near-square 2-D grid,
    z-slabs). *)

type hint = Sequential | Local | Distributed

type ('i, 'a) iter = {
  hint : hint;
  shape : 'i Shape.t;  (** the index domain *)
  local : 'i Shape.block -> 'a Seq_iter.t;
      (** [local blk]: in-place row-major loop nest over a block *)
  width : int;  (** number of payload buffers this iterator contributes *)
  payload_of : 'i Shape.block -> Triolet_base.Payload.t;
      (** [payload_of blk]: extracted data slice for that block *)
  rebuild : Triolet_base.Payload.t -> ('i, 'a) iter;
      (** rebuild an iterator over a shipped block, whose domain is the
          block's extent (always [Local]) *)
}
(** The representation is exposed so substrate libraries and the plan
    analyzer can inspect blocks and payloads; application code should
    not need it. *)

type 'a t = (int, 'a) iter
(** One-dimensional iterators. *)

val hint : ('i, 'a) iter -> hint
val shape : ('i, 'a) iter -> 'i Shape.t

val length : ('i, 'a) iter -> int
(** Number of indices in the domain. *)

(** {1 Sources} *)

val of_floatarray : floatarray -> float t
val of_int_array : int array -> int t

val of_array : ?codec:'a Triolet_base.Codec.t -> 'a array -> 'a t
(** Generic boxed array; [codec] is required only when the iterator is
    consumed with distributed parallelism. *)

val of_list : ?codec:'a Triolet_base.Codec.t -> 'a list -> 'a t
(** Materializes the list to an array once, then behaves like
    {!of_array}. *)

val init : 'i Shape.t -> ('i -> 'a) -> ('i, 'a) iter
(** From an element function over a domain (the paper's [arrayRange]
    comprehension).  Payloads carry only block bounds; the function
    travels as a closure, so every domain distributes. *)

val range : int -> int -> int t
(** The integers [lo, hi). *)

val indices : 'a t -> int t
(** Outer indices of an iterator: the paper's [indices(domain(...))]. *)

val of_matrix : Matrix.t -> (int * int, float) iter

val transpose : Matrix.t -> (int * int, float) iter
(** [[A[x,y] for (y,x) in arrayRange((0,0),(h,w))]]. *)

val of_grid : Grid3.t -> (int * int * int, float) iter
(** A grid over [Dim3 (nz, ny, nx)], indexed [(z, y, x)]; z-slab
    payloads are single block copies. *)

val rows : Matrix.t -> Matrix.view t
(** The paper's [rows]: a matrix as a 1-D iterator over row views.  A
    slice's payload is one {!matrix_payload} of the row block. *)

val matrix_payload : Matrix.t -> Triolet_base.Payload.t
(** The one row-block payload: an [Ints [|rows; cols|]] header, then the
    data. *)

val matrix_of_payload : Triolet_base.Payload.t -> Matrix.t
(** Inverse of {!matrix_payload}. *)

val outer_product : 'a t -> 'b t -> (int * int, 'a * 'b) iter
(** The paper's [outerproduct]: block (r0, nr, c0, nc) needs elements
    [r0, r0+nr) of [a] and [c0, c0+nc) of [b] — exactly what its
    payload carries. *)

(** {1 Fused transformations}

    Element-wise rewrites work over any domain; [zip]s combine over the
    intersection of the domains, and the stronger hint wins. *)

val map : ('a -> 'b) -> ('i, 'a) iter -> ('i, 'b) iter
val filter : ('a -> bool) -> ('i, 'a) iter -> ('i, 'a) iter

val concat_map : ('a -> 'b Seq_iter.t) -> ('i, 'a) iter -> ('i, 'b) iter
(** Nested traversal: [f] gives each element's inner loop; the result is
    irregular but the outer loop stays partitionable. *)

val filter_map : ('a -> 'b option) -> ('i, 'a) iter -> ('i, 'b) iter
(** Fused map + filter. *)

val zip : ('i, 'a) iter -> ('i, 'b) iter -> ('i, 'a * 'b) iter
val zip3 : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val zip_with :
  ('a -> 'b -> 'c) -> ('i, 'a) iter -> ('i, 'b) iter -> ('i, 'c) iter

val enumerate : 'a t -> (int * 'a) t

val sub : off:int -> len:int -> 'a t -> 'a t
(** Outer sub-range as an iterator in its own right; stays sliceable. *)

(** {1 Parallelism hints} *)

val par : ('i, 'a) iter -> ('i, 'a) iter
(** Use all available parallelism: nodes, then cores within nodes. *)

val localpar : ('i, 'a) iter -> ('i, 'a) iter
(** Shared-memory parallelism on a single node. *)

val sequential : ('i, 'a) iter -> ('i, 'a) iter

(** {1 Consumers}

    All reduction-shaped consumers require [merge] to be associative
    with identity [init]; combination order is unspecified under
    parallel execution.  Reductions run over any domain, one node block
    per cluster worker. *)

val sum : ?ctx:Exec.t -> ('i, float) iter -> float
val sum_int : ?ctx:Exec.t -> ('i, int) iter -> int
val count : ?ctx:Exec.t -> ('i, 'a) iter -> int

val reduce :
  ?ctx:Exec.t ->
  codec:'a Triolet_base.Codec.t ->
  merge:('a -> 'a -> 'a) ->
  init:'a ->
  ('i, 'a) iter ->
  'a
(** [codec] is exercised only under distributed execution (results cross
    node boundaries). *)

val histogram : ?ctx:Exec.t -> bins:int -> ('i, int) iter -> int array
(** The paper's distributed histogram strategy: each pool worker counts
    into one private histogram across all the ranges it runs (not one
    per range), and those are added in place once per worker within
    each node and once per node across nodes.  Out-of-range bins are
    ignored. *)

val scatter_add :
  ?ctx:Exec.t -> size:int -> ('i, int * float) iter -> floatarray
(** Floating-point scatter-add over (index, weight) pairs: cutcp's
    "floating-point histogram".  Accumulates like {!histogram}: one
    [size]-float grid per pool worker plus one per node reply, however
    many grains the scheduler runs; out-of-range indices are ignored. *)

val min_float : ?ctx:Exec.t -> ('i, float) iter -> float
(** [infinity] on empty input. *)

val max_float : ?ctx:Exec.t -> ('i, float) iter -> float
(** [neg_infinity] on empty input. *)

val mean : ?ctx:Exec.t -> ('i, float) iter -> float
(** Arithmetic mean; [nan] on empty input. *)

val exists : ?ctx:Exec.t -> ('a -> bool) -> ('i, 'a) iter -> bool
val for_all : ?ctx:Exec.t -> ('a -> bool) -> ('i, 'a) iter -> bool

val collect_floats : ?ctx:Exec.t -> float t -> floatarray
(** Packs (possibly variable-length) float results contiguously,
    preserving iteration order; one node block per cluster node. *)

val collect_float_pairs :
  ?ctx:Exec.t -> (float * float) t -> floatarray * floatarray
(** Like {!collect_floats} with the pair components packed into separate
    arrays (mri-q's real/imaginary sums). *)

val to_matrix : ?ctx:Exec.t -> (int * int, float) iter -> Matrix.t
(** Materialize a 2-D iterator (exactly one element per index): one
    fill, row bands on the pool, or a near-square grid of node blocks,
    each shipped only its input slice and written straight into place. *)

val to_grid : ?ctx:Exec.t -> (int * int * int, float) iter -> Grid3.t
(** Materialize a 3-D iterator: plane bands on the pool, z-slabs across
    nodes. *)

(** {1 Sequential conveniences} *)

val to_seq_iter : ('i, 'a) iter -> 'a Seq_iter.t
val to_list : ('i, 'a) iter -> 'a list
val iter : ('a -> unit) -> ('i, 'a) iter -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> ('i, 'a) iter -> 'b
