(** Dense row-major matrices over unboxed float arrays.

    Rows are contiguous runs of the backing [floatarray], so extracting
    a block of rows — the payload of a sliced row iterator — is one
    block copy. *)

type t

type view
(** Lightweight window into a row (or any contiguous run); reads go
    straight to the backing array. *)

val create : int -> int -> t
(** [create rows cols]: zero-filled. *)

val init : int -> int -> (int -> int -> float) -> t
val of_floatarray : rows:int -> cols:int -> floatarray -> t
val rows : t -> int
val cols : t -> int
val data : t -> floatarray

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val unsafe_get : t -> int -> int -> float
val unsafe_set : t -> int -> int -> float -> unit

val row : t -> int -> view
val view_get : view -> int -> float
val view_len : view -> int
val view_unsafe_get : view -> int -> float

val view_dot : view -> view -> float
(** Dot product of two views: sgemm's sequential inner kernel. *)

val dot_range : floatarray -> int -> floatarray -> int -> int -> float
(** [dot_range a ao b bo k]: the sum of [a.(ao + l) *. b.(bo + l)] over
    [l < k], from [0.0] in index order — {!view_dot}'s sum over two
    runs named by offset, and what a [[%fuse]] tile's dots compile to.
    Raises [Invalid_argument] unless both runs lie in their arrays. *)

val copy_rows : t -> int -> int -> t
(** [copy_rows m r0 nr]: fresh matrix holding rows [r0, r0+nr) — one
    blit, the block-copy serialization unit of section 3.4. *)

val blit_block : src:t -> dst:t -> r0:int -> c0:int -> unit
(** Writes [src] into [dst] at (r0, c0). *)

val transpose : t -> t

val transpose_par : Triolet_runtime.Pool.t -> t -> t
(** Transpose parallelized over shared memory; the paper uses [localpar]
    for sgemm's transposition because it does too little work to
    distribute (section 4.3). *)

val equal_eps : eps:float -> t -> t -> bool
(** Elementwise comparison with relative tolerance. *)

val mul_ref : alpha:float -> t -> t -> t
(** [mul_ref ~alpha a bt]: reference product [alpha * a * bt^T] (note:
    takes the *transposed* right operand). *)

val random : Triolet_base.Rng.t -> int -> int -> float -> float -> t
