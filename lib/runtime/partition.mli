(** Block partitioning of iteration spaces.

    Work distribution only: extracting the data slice that matches an
    index range is the iterator's job (paper, sections 2 and 3.5). *)

val blocks : parts:int -> int -> (int * int) array
(** [blocks ~parts n] splits [0, n) into at most [parts] contiguous
    (offset, length) blocks whose sizes differ by at most one.  Empty
    blocks are omitted. *)

val grid :
  row_parts:int -> col_parts:int -> rows:int -> cols:int ->
  (int * int * int * int) array
(** 2-D block grid: (row0, nrows, col0, ncols) blocks in row-major block
    order, covering the space exactly once.  An empty space yields no
    blocks; more parts than cells along an axis caps at one cell per
    block — never an empty or overlapping block. *)

val square_factors : int -> int * int
(** [square_factors p] = (r, c) with [r * c = p] and the factors as
    close as possible ([r <= c]); the grid shape used for 2-D block
    decompositions. *)

val grain : ?max_grain:int -> workers:int -> int -> int
(** [grain ~workers n] is the auto grain size for the lazy-splitting
    scheduler on a loop of [n] iterations: roughly [n / (workers * 32)],
    clamped to [\[1, max_grain\]] (default 8192).  A worker executes one
    grain at a time off the bottom of its range and ranges at most one
    grain long are no longer split. *)
