(** Index domains: the [Domain] type class of the paper (section 3.3).

    A shape describes an iteration space; its type parameter is the type
    of indices it contains (the paper's associated type [Index d]). *)

type _ t =
  | Seq : int -> int t  (** 1-D space of the given length *)
  | Dim2 : int * int -> (int * int) t  (** height x width *)
  | Dim3 : int * int * int -> (int * int * int) t  (** depth x height x width *)

val seq : int -> int t
val dim2 : int -> int -> (int * int) t
val dim3 : int -> int -> int -> (int * int * int) t

val size : _ t -> int
(** Number of indices in the domain. *)

val linear : 'i t -> 'i -> int
(** Row-major linearization. *)

val of_linear : 'i t -> int -> 'i
(** Inverse of {!linear}. *)

val mem : 'i t -> 'i -> bool

val fold : 'i t -> ('a -> 'i -> 'a) -> 'a -> 'a
(** Fold over all indices in row-major order — the [idxToFold]
    conversion, overloaded per domain. *)

val iter : 'i t -> ('i -> unit) -> unit

val intersect : 'i t -> 'i t -> 'i t
(** Pointwise minimum of extents: the common sub-domain visited by
    [zipWith]. *)

val equal : 'i t -> 'i t -> bool

(** {1 Blocks}

    The one decomposition of a domain into pieces of work: iterator
    consumers, the plan analyzer and the cost model all cut domains
    with {!band} and {!blocks}. *)

type 'i block = 'i * 'i t
(** An origin plus the sub-shape (extent) that starts there. *)

val origin : 'i t -> 'i
(** The zero index. *)

val whole : 'i t -> 'i block
val outer : _ t -> int
(** Extent of the outermost axis: length, rows, or planes. *)

val inner : _ t -> int
(** Extent of the innermost (contiguous) axis. *)

val add : 'i t -> 'i -> 'i -> 'i
(** Pointwise index addition. *)

val band : 'i t -> int -> int -> 'i block
(** [band s off n]: outer-axis indices [\[off, off+n)] with every other
    axis whole — rows of a [Dim2], planes of a [Dim3].  The pool's unit
    of work. *)

val blocks : parts:int -> 'i t -> 'i block array
(** At most [parts] node blocks tiling the domain exactly once:
    contiguous blocks of a [Seq], the near-square block grid of a
    [Dim2] (row-major block order), z-slabs of a [Dim3].  An empty
    domain has no blocks. *)

val grid_parts : (int * int) block array -> int * int
(** (rows, columns) of a [Dim2] block grid: distinct origins per axis. *)

val runs : 'i t -> 'i block -> int array
(** Linear offsets in the domain of a block's innermost-axis runs, in
    row-major order; each run is [inner] of the block's extent long. *)

val block_to_ints : 'i block -> int array
val block_of_ints : 'i t -> int array -> 'i block
(** A block as origin then extent, and back (the shape argument only
    selects the dimensionality). *)

val to_string : _ t -> string
