(** Index domains: the [Domain] type class of the paper (section 3.3).

    A shape describes an iteration space; its type parameter is the type
    of indices it contains (the paper's associated type [Index d]).
    One-dimensional [Seq] spaces index with [int]; [Dim2] and [Dim3]
    index with tuples, avoiding the division/modulus cost of simulating
    multidimensional loops over flattened indices. *)

type _ t =
  | Seq : int -> int t
  | Dim2 : int * int -> (int * int) t
  | Dim3 : int * int * int -> (int * int * int) t

let seq n =
  if n < 0 then invalid_arg "Shape.seq: negative length";
  Seq n

let dim2 h w =
  if h < 0 || w < 0 then invalid_arg "Shape.dim2: negative extent";
  Dim2 (h, w)

let dim3 d h w =
  if d < 0 || h < 0 || w < 0 then invalid_arg "Shape.dim3: negative extent";
  Dim3 (d, h, w)

let size : type i. i t -> int = function
  | Seq n -> n
  | Dim2 (h, w) -> h * w
  | Dim3 (d, h, w) -> d * h * w

(** Row-major linearization of an index. *)
let linear : type i. i t -> i -> int =
 fun shape idx ->
  match (shape, idx) with
  | Seq _, i -> i
  | Dim2 (_, w), (y, x) -> (y * w) + x
  | Dim3 (_, h, w), (z, y, x) -> (z * h * w) + (y * w) + x

(** Inverse of {!linear}. *)
let of_linear : type i. i t -> int -> i =
 fun shape k ->
  match shape with
  | Seq _ -> k
  | Dim2 (_, w) -> (k / w, k mod w)
  | Dim3 (_, h, w) -> (k / (h * w), k mod (h * w) / w, k mod w)

let mem : type i. i t -> i -> bool =
 fun shape idx ->
  match (shape, idx) with
  | Seq n, i -> i >= 0 && i < n
  | Dim2 (h, w), (y, x) -> y >= 0 && y < h && x >= 0 && x < w
  | Dim3 (d, h, w), (z, y, x) ->
      z >= 0 && z < d && y >= 0 && y < h && x >= 0 && x < w

(** Fold over all indices of the domain in row-major order: the
    [idxToFold] conversion overloaded per domain in the paper.

    Accumulators are threaded through tail recursion, not a [ref] cell:
    a mutable cell would force a write barrier per index and keep the
    accumulator boxed, defeating the fused loops built on top. *)
let fold : type i. i t -> ('a -> i -> 'a) -> 'a -> 'a =
 fun shape f init ->
  match shape with
  | Seq n ->
      let rec go acc i = if i >= n then acc else go (f acc i) (i + 1) in
      go init 0
  | Dim2 (h, w) ->
      let rec row acc y =
        if y >= h then acc
        else
          let rec col acc x =
            if x >= w then acc else col (f acc (y, x)) (x + 1)
          in
          row (col acc 0) (y + 1)
      in
      row init 0
  | Dim3 (d, h, w) ->
      let rec plane acc z =
        if z >= d then acc
        else
          let rec row acc y =
            if y >= h then acc
            else
              let rec col acc x =
                if x >= w then acc else col (f acc (z, y, x)) (x + 1)
              in
              row (col acc 0) (y + 1)
          in
          plane (row acc 0) (z + 1)
      in
      plane init 0

(* Dedicated loops rather than [fold] with a unit accumulator: [iter]
   is the consumer under every [collect]-routed kernel (histogram,
   scatter_add), so the per-index path must be one call to [f] and
   nothing else. *)
let iter : type i. i t -> (i -> unit) -> unit =
 fun shape f ->
  match shape with
  | Seq n ->
      for i = 0 to n - 1 do
        f i
      done
  | Dim2 (h, w) ->
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          f (y, x)
        done
      done
  | Dim3 (d, h, w) ->
      for z = 0 to d - 1 do
        for y = 0 to h - 1 do
          for x = 0 to w - 1 do
            f (z, y, x)
          done
        done
      done

(** Pointwise intersection: the common sub-domain visited by [zipWith]
    when two domains disagree in extent. *)
let intersect : type i. i t -> i t -> i t =
 fun a b ->
  match (a, b) with
  | Seq n, Seq m -> Seq (min n m)
  | Dim2 (h, w), Dim2 (h', w') -> Dim2 (min h h', min w w')
  | Dim3 (d, h, w), Dim3 (d', h', w') ->
      Dim3 (min d d', min h h', min w w')

let equal : type i. i t -> i t -> bool =
 fun a b ->
  match (a, b) with
  | Seq n, Seq m -> n = m
  | Dim2 (h, w), Dim2 (h', w') -> h = h' && w = w'
  | Dim3 (d, h, w), Dim3 (d', h', w') -> d = d' && h = h' && w = w'

(* ------------------------------------------------------------------ *)
(* Blocks: the one decomposition of a domain into pieces of work       *)

type 'i block = 'i * 'i t

let origin : type i. i t -> i = function
  | Seq _ -> 0
  | Dim2 _ -> (0, 0)
  | Dim3 _ -> (0, 0, 0)

let whole s = (origin s, s)

let outer : type i. i t -> int = function
  | Seq n -> n
  | Dim2 (h, _) -> h
  | Dim3 (d, _, _) -> d

let inner : type i. i t -> int = function
  | Seq n -> n
  | Dim2 (_, w) -> w
  | Dim3 (_, _, w) -> w

(** Pointwise index addition: a block's origin plus a relative index. *)
let add : type i. i t -> i -> i -> i =
 fun shape a b ->
  match (shape, a, b) with
  | Seq _, a, b -> a + b
  | Dim2 _, (y, x), (y', x') -> (y + y', x + x')
  | Dim3 _, (z, y, x), (z', y', x') -> (z + z', y + y', x + x')

(** The outer-axis band [\[off, off+n)] with every other axis whole:
    rows of a [Dim2], planes of a [Dim3] — the pool's unit of work. *)
let band : type i. i t -> int -> int -> i block =
 fun shape off n ->
  match shape with
  | Seq _ -> (off, Seq n)
  | Dim2 (_, w) -> ((off, 0), Dim2 (n, w))
  | Dim3 (_, h, w) -> ((off, 0, 0), Dim3 (n, h, w))

(** At most [parts] node blocks tiling the domain: contiguous blocks of a
    [Seq], the near-square block grid of a [Dim2] (row-major block
    order), z-slabs of a [Dim3].  Empty domains have no blocks. *)
let blocks : type i. parts:int -> i t -> i block array =
 fun ~parts shape ->
  let module P = Triolet_runtime.Partition in
  match shape with
  | Dim2 (h, w) ->
      let row_parts, col_parts = P.square_factors parts in
      Array.map
        (fun (r0, nr, c0, nc) -> ((r0, c0), Dim2 (nr, nc)))
        (P.grid ~row_parts ~col_parts ~rows:h ~cols:w)
  | _ ->
      Array.map
        (fun (off, n) -> band shape off n)
        (P.blocks ~parts (outer shape))

(** Rows and columns of a [Dim2] block grid: its distinct origins per
    axis. *)
let grid_parts (blocks : (int * int) block array) =
  let distinct f =
    List.length (List.sort_uniq compare (Array.to_list (Array.map f blocks)))
  in
  (distinct (fun ((r0, _), _) -> r0), distinct (fun ((_, c0), _) -> c0))

(** Linear offsets in [shape] of a block's innermost-axis runs, in
    row-major order; each run is [inner] of the block's extent long. *)
let runs shape (o, ext) =
  let run = inner ext in
  let base = linear shape o in
  Array.init
    (if run = 0 then 0 else size ext / run)
    (fun k -> base + linear shape (of_linear ext (k * run)))

(** A block as its origin then its extent, and back: the bounds-only
    payload of index-function sources. *)
let block_to_ints : type i. i block -> int array =
 fun (o, ext) ->
  match (ext, o) with
  | Seq n, o -> [| o; n |]
  | Dim2 (h, w), (y, x) -> [| y; x; h; w |]
  | Dim3 (d, h, w), (z, y, x) -> [| z; y; x; d; h; w |]

let block_of_ints : type i. i t -> int array -> i block =
 fun shape a ->
  match shape with
  | Seq _ -> (a.(0), Seq a.(1))
  | Dim2 _ -> ((a.(0), a.(1)), Dim2 (a.(2), a.(3)))
  | Dim3 _ -> ((a.(0), a.(1), a.(2)), Dim3 (a.(3), a.(4), a.(5)))

let to_string : type i. i t -> string = function
  | Seq n -> Printf.sprintf "Seq %d" n
  | Dim2 (h, w) -> Printf.sprintf "Dim2 %dx%d" h w
  | Dim3 (d, h, w) -> Printf.sprintf "Dim3 %dx%dx%d" d h w
