(** Dense 3-D float grids over unboxed float arrays, stored x-fastest —
    the row-major order of a [Dim3 (nz, ny, nx)] domain indexed
    (z, y, x).  Z-slabs are contiguous, so the z-slab node blocks of
    {!Iter.to_grid} move data with block copies. *)

type t

val create : int -> int -> int -> t
(** [create nx ny nz]: zero-filled. *)

val init : int -> int -> int -> (int -> int -> int -> float) -> t
(** [init nx ny nz f] with [f x y z]. *)

val of_floatarray : nx:int -> ny:int -> nz:int -> floatarray -> t
val dims : t -> int * int * int
val data : t -> floatarray
val points : t -> int

val linear : t -> int -> int -> int -> int
(** Linear index of (x, y, z). *)

val get : t -> int -> int -> int -> float
val set : t -> int -> int -> int -> float -> unit
val unsafe_get : t -> int -> int -> int -> float
val unsafe_set : t -> int -> int -> int -> float -> unit

val copy_slab : t -> int -> int -> t
(** [copy_slab g z0 n]: fresh grid holding planes [z0, z0+n) — one
    blit. *)

val blit_slab : src:t -> dst:t -> z0:int -> unit

val add : t -> t -> t
(** Elementwise sum into a fresh grid. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val total : t -> float
val equal_eps : eps:float -> t -> t -> bool
