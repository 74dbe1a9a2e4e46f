(** Dense row-major matrices over unboxed float arrays.

    The paper's kernels store data in flat unboxed arrays and get
    slices of whole rows shipped to tasks; a row of a row-major matrix
    is a contiguous run of the backing [floatarray], so extracting a
    block of rows is one block copy. *)

type t = { rows : int; cols : int; data : floatarray }

(** Lightweight window into a row (or any contiguous run). *)
type view = { vdata : floatarray; voff : int; vlen : int }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  { rows; cols; data = Float.Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Float.Array.unsafe_set m.data ((i * cols) + j) (f i j)
    done
  done;
  m

let of_floatarray ~rows ~cols data =
  if Float.Array.length data <> rows * cols then
    invalid_arg "Matrix.of_floatarray: size mismatch";
  { rows; cols; data }

let rows m = m.rows
let cols m = m.cols
let data m = m.data

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get";
  Float.Array.unsafe_get m.data ((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set";
  Float.Array.unsafe_set m.data ((i * m.cols) + j) v

let unsafe_get m i j = Float.Array.unsafe_get m.data ((i * m.cols) + j)
let unsafe_set m i j v = Float.Array.unsafe_set m.data ((i * m.cols) + j) v

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.row";
  { vdata = m.data; voff = i * m.cols; vlen = m.cols }

let view_get v i =
  if i < 0 || i >= v.vlen then invalid_arg "Matrix.view_get";
  Float.Array.unsafe_get v.vdata (v.voff + i)

let view_len v = v.vlen

let view_unsafe_get v i = Float.Array.unsafe_get v.vdata (v.voff + i)

(* The sum of [a.(ao + l) *. b.(bo + l)] for [l < k], from [0.0] in
   index order: the one dot every row product runs.  Both ranges are
   checked once, so the loop reads unchecked. *)
let dot_range a ao b bo k =
  if ao < 0 || bo < 0 || k < 0 || ao > Float.Array.length a - k
     || bo > Float.Array.length b - k
  then invalid_arg "Matrix.dot_range";
  let acc = ref 0.0 in
  for l = 0 to k - 1 do
    acc :=
      !acc
      +. Float.Array.unsafe_get a (ao + l)
         *. Float.Array.unsafe_get b (bo + l)
  done;
  !acc

(** Dot product of two views: the sequential inner kernel of sgemm. *)
let view_dot u v =
  if u.vlen <> v.vlen then invalid_arg "Matrix.view_dot";
  dot_range u.vdata u.voff v.vdata v.voff u.vlen

(** Contiguous block copy of rows [r0, r0+nr): one blit, as in the
    paper's block-copy serialization of subarrays. *)
let copy_rows m r0 nr =
  if r0 < 0 || nr < 0 || r0 + nr > m.rows then invalid_arg "Matrix.copy_rows";
  let out = Float.Array.make (nr * m.cols) 0.0 in
  Float.Array.blit m.data (r0 * m.cols) out 0 (nr * m.cols);
  { rows = nr; cols = m.cols; data = out }

(** Write block [src] into [dst] at (r0, c0). *)
let blit_block ~src ~dst ~r0 ~c0 =
  if r0 + src.rows > dst.rows || c0 + src.cols > dst.cols then
    invalid_arg "Matrix.blit_block";
  for i = 0 to src.rows - 1 do
    Float.Array.blit src.data (i * src.cols) dst.data
      (((r0 + i) * dst.cols) + c0)
      src.cols
  done

(** Sequential transpose. *)
let transpose m =
  let out = create m.cols m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      Float.Array.unsafe_set out.data ((j * m.rows) + i)
        (Float.Array.unsafe_get m.data ((i * m.cols) + j))
    done
  done;
  out

(** Transpose parallelized over shared memory — the paper parallelizes
    sgemm's transposition with [localpar] because it does too little
    work per byte to profit from distribution (section 4.3). *)
let transpose_par pool m =
  let out = create m.cols m.rows in
  Triolet_runtime.Pool.parallel_range pool ~lo:0 ~hi:m.rows
    ~f:(fun r0 nr ->
      for i = r0 to r0 + nr - 1 do
        for j = 0 to m.cols - 1 do
          Float.Array.unsafe_set out.data ((j * m.rows) + i)
            (Float.Array.unsafe_get m.data ((i * m.cols) + j))
        done
      done)
    ~merge:(fun () () -> ())
    ~init:() ();
  out

let equal_eps ~eps a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for k = 0 to Float.Array.length a.data - 1 do
    let x = Float.Array.get a.data k and y = Float.Array.get b.data k in
    let scale = max 1.0 (max (Float.abs x) (Float.abs y)) in
    if Float.abs (x -. y) > eps *. scale then ok := false
  done;
  !ok

(** Reference triple-loop product (with transposed [bt]). *)
let mul_ref ~alpha a bt =
  if cols a <> cols bt then invalid_arg "Matrix.mul_ref";
  init (rows a) (rows bt) (fun i j -> alpha *. view_dot (row a i) (row bt j))

let random rng rows cols lo hi =
  init rows cols (fun _ _ -> Triolet_base.Rng.float_range rng lo hi)
