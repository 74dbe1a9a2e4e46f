(** Dense 3-D float grids over unboxed float arrays.

    Storage is x-fastest ([((z * ny) + y) * nx + x]), matching cutcp's
    potential grid.  A *z-slab* — the natural distribution unit — is a
    contiguous run of the backing array, so extracting or merging one is
    a block copy. *)

type t = { nx : int; ny : int; nz : int; data : floatarray }

let create nx ny nz =
  if nx < 0 || ny < 0 || nz < 0 then invalid_arg "Grid3.create";
  { nx; ny; nz; data = Float.Array.make (nx * ny * nz) 0.0 }

let dims g = (g.nx, g.ny, g.nz)
let data g = g.data
let points g = g.nx * g.ny * g.nz

let of_floatarray ~nx ~ny ~nz data =
  if Float.Array.length data <> nx * ny * nz then
    invalid_arg "Grid3.of_floatarray: size mismatch";
  { nx; ny; nz; data }

let linear g x y z = (((z * g.ny) + y) * g.nx) + x

let get g x y z =
  if
    x < 0 || x >= g.nx || y < 0 || y >= g.ny || z < 0 || z >= g.nz
  then invalid_arg "Grid3.get";
  Float.Array.unsafe_get g.data (linear g x y z)

let set g x y z v =
  if
    x < 0 || x >= g.nx || y < 0 || y >= g.ny || z < 0 || z >= g.nz
  then invalid_arg "Grid3.set";
  Float.Array.unsafe_set g.data (linear g x y z) v

let unsafe_get g x y z = Float.Array.unsafe_get g.data (linear g x y z)
let unsafe_set g x y z v = Float.Array.unsafe_set g.data (linear g x y z) v

let init nx ny nz f =
  let g = create nx ny nz in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        unsafe_set g x y z (f x y z)
      done
    done
  done;
  g

(** Elementwise sum into a fresh grid; the merge operation of
    distributed scatter-style computations. *)
let add a b =
  if dims a <> dims b then invalid_arg "Grid3.add";
  {
    a with
    data =
      Float.Array.mapi (fun i v -> v +. Float.Array.get b.data i) a.data;
  }

let fold f init g = Float.Array.fold_left f init g.data

let total g = fold ( +. ) 0.0 g

let equal_eps ~eps a b =
  dims a = dims b
  &&
  let ok = ref true in
  for i = 0 to Float.Array.length a.data - 1 do
    let x = Float.Array.get a.data i and y = Float.Array.get b.data i in
    let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
    if Float.abs (x -. y) > eps *. scale then ok := false
  done;
  !ok
