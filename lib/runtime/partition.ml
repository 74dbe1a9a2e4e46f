(** Block partitioning of iteration spaces.

    Triolet separates data distribution from work distribution: these
    functions only decide index ranges; extracting the matching data
    slice is the iterator's job (paper, sections 2 and 3.5). *)

(** [blocks ~parts n] splits [0, n) into at most [parts] contiguous
    (offset, length) blocks of near-equal size.  Empty blocks are
    omitted, so fewer than [parts] blocks are returned when [n < parts]. *)
let blocks ~parts n =
  if parts <= 0 then invalid_arg "Partition.blocks: parts must be positive";
  if n < 0 then invalid_arg "Partition.blocks: negative length";
  let parts = min parts (max n 1) in
  let base = n / parts and extra = n mod parts in
  let rec build k off acc =
    if k = parts then List.rev acc
    else
      let len = base + (if k < extra then 1 else 0) in
      if len = 0 then List.rev acc
      else build (k + 1) (off + len) ((off, len) :: acc)
  in
  Array.of_list (build 0 0 [])

(** 2-D block grid over an [rows] x [cols] space: the cross product of a
    row partition and a column partition, as used by sgemm's 2-D block
    decomposition.  Returns (row0, nrows, col0, ncols) blocks in
    row-major block order.

    Degenerate inputs degrade rather than corrupt the decomposition: an
    empty space ([rows = 0] or [cols = 0]) yields no blocks at all, and
    more parts than cells along either axis caps at one cell per block
    — the grid never contains an empty or overlapping block. *)
let grid ~row_parts ~col_parts ~rows ~cols =
  if row_parts <= 0 || col_parts <= 0 then
    invalid_arg "Partition.grid: parts must be positive";
  if rows < 0 || cols < 0 then invalid_arg "Partition.grid: negative extent";
  if rows = 0 || cols = 0 then [||]
  else
    let rblocks = blocks ~parts:row_parts rows in
    let cblocks = blocks ~parts:col_parts cols in
    Array.concat
      (Array.to_list
         (Array.map
            (fun (r0, nr) ->
              Array.map (fun (c0, nc) -> (r0, nr, c0, nc)) cblocks)
            rblocks))

(** Near-square factorization of [parts] used to choose a block grid
    shape: returns (row_parts, col_parts) with row_parts * col_parts =
    parts, row_parts <= col_parts, and the factors as close as
    possible.  The float sqrt seed is clamped to [\[1, parts\]] so
    rounding on huge inputs can neither divide by zero nor overshoot
    past the trivial factorization. *)
let square_factors parts =
  if parts <= 0 then invalid_arg "Partition.square_factors";
  let r = ref (max 1 (min parts (int_of_float (sqrt (float_of_int parts))))) in
  while parts mod !r <> 0 do
    decr r
  done;
  let r = !r and c = parts / !r in
  if r <= c then (r, c) else (c, r)

(** Grain size for the adaptive lazy-splitting scheduler: the number of
    iterations a worker peels off the bottom of its range between
    steal-cell checks, and the length below which a range is no longer
    split for thieves.

    The auto policy targets ~32 grains per worker — enough slack for
    thieves to rebalance heavily skewed iteration costs — but caps the
    grain at [max_grain] so very long uniform loops still amortize the
    per-grain bookkeeping (one atomic decrement and one cell read)
    without ever becoming unstealable, and floors it at 1 so short loops
    keep full splitting freedom. *)
let grain ?(max_grain = 8192) ~workers n =
  if workers <= 0 then invalid_arg "Partition.grain";
  if n <= 0 then 1 else max 1 (min max_grain (n / (workers * 32)))
