(* Fixtures for the [%fuse] rewriter.  test/fuse/ pins the source the
   rewriter expands this file to; test_fuse runs every site on every
   hint and backend against the same pipeline through [Seq_iter_ref].
   Each case names the shape it covers. *)

open Triolet

let bucket ~bins u v =
  let b = int_of_float (Float.abs (u -. v) *. float_of_int bins) in
  if b >= bins then bins - 1 else b

(* Iter.map straight over the outer iterator: no inner nest. *)
let map_only ?ctx ~hint (xs : int array) =
  [%fuse
    Iter.histogram ?ctx ~bins:16
      (Iter.map (fun x -> (x * 7) mod 19) (hint (Iter.of_int_array xs)))]

(* tpacf's triangular pair loop: an Iter.map after an Iter.concat_map
   whose nest is a range and a Seq_iter.map, written with [|>]. *)
let pairs ?ctx ~hint ~bins (xs : floatarray) =
  let n = Float.Array.length xs in
  [%fuse
    Iter.histogram ?ctx ~bins
      (Iter.map
         (fun (u, v) -> bucket ~bins u v)
         (Iter.concat_map
            (fun (i, u) ->
              Seq_iter.range (i + 1) n
              |> Seq_iter.map (fun j -> (u, Float.Array.get xs j)))
            (hint (Iter.enumerate (Iter.of_floatarray xs)))))]

(* Lets before the nest, a Seq_iter.filter, and the whole pipeline as a
   [|>] chain ending in the consumer. *)
let lets_filter ~ctx ~hint (xs : int array) =
  [%fuse
    Iter.of_int_array xs |> hint
    |> Iter.concat_map (fun x ->
           let k = x mod 7 in
           let lo = k and hi = k + (x mod 5) in
           Seq_iter.range lo hi
           |> Seq_iter.filter (fun j -> j land 1 = 0)
           |> Seq_iter.map (fun j -> j + x))
    |> Iter.map (fun b -> b land 31)
    |> Iter.histogram ~ctx ~bins:32]

let weight ~cutoff d w = if d < cutoff then Some (w /. (1.0 +. d)) else None

(* cutcp's shape: atoms, a z/y/x range nest, a filter_map whose arms
   are literal Some/None, scatter_add with a computed size. *)
let grid ?ctx ~hint ~nx ~ny ~nz (ax : floatarray) (aw : floatarray) =
  let cutoff = 2.5 in
  [%fuse
    Iter.scatter_add ?ctx ~size:(nx * ny * nz)
      (Iter.concat_map
         (fun (x, w) ->
           let x0 = max 0 (int_of_float (x -. cutoff))
           and x1 = min nx (int_of_float (x +. cutoff) + 1) in
           Seq_iter.range 0 nz
           |> Seq_iter.concat_map (fun iz ->
                  Seq_iter.range (iz mod 2) ny
                  |> Seq_iter.concat_map (fun iy ->
                         Seq_iter.range x0 x1
                         |> Seq_iter.filter_map (fun ix ->
                                let d =
                                  Float.abs (float_of_int ix -. x)
                                  +. float_of_int (iy + iz)
                                in
                                match weight ~cutoff d w with
                                | Some v -> Some ((((iz * ny) + iy) * nx) + ix, v)
                                | None -> None))))
         (hint (Iter.zip (Iter.of_floatarray ax) (Iter.of_floatarray aw))))]

let half j = if j > 0 then Some (float_of_int j /. 2.0) else None

(* Iter.sum; a [function] map; a named filter_map (no arm to enter) and
   a filter_map whose arms are an [if]. *)
let sum_cases ?ctx ~hint (xs : floatarray) =
  [%fuse
    Iter.sum ?ctx
      (Iter.map
         (function a, b -> a *. b)
         (Iter.concat_map
            (fun x ->
              Seq_iter.range 0 4
              |> Seq_iter.filter_map half
              |> Seq_iter.filter_map (fun h ->
                     if h < 1.5 then Some (x, h) else None))
            (hint (Iter.of_floatarray xs))))]

(* Hint wrappers around the producer move onto the outer iterator. *)
let hinted_par ~ctx (xs : int array) =
  [%fuse
    Iter.histogram ~ctx ~bins:8
      (Iter.par
         (Iter.concat_map
            (fun x -> Seq_iter.map (fun j -> (x + j) mod 8) (Seq_iter.range 0 3))
            (Iter.of_int_array xs)))]

let hinted_localpar (xs : int array) =
  [%fuse
    Iter.of_int_array xs
    |> Iter.concat_map (fun x ->
           Seq_iter.map (fun j -> (x * j) mod 8) (Seq_iter.range 0 3))
    |> Iter.localpar
    |> Iter.histogram ~bins:8]

let hinted_sequential (xs : int array) =
  [%fuse
    Iter.histogram ~bins:8
      (Iter.sequential
         (Iter.map (fun x -> x - 2) (Iter.localpar (Iter.of_int_array xs))))]

(* A qualified module path: the emitted calls use the same path. *)
let qualified (xs : floatarray) =
  [%fuse
    Triolet.Iter.sum
      (Triolet.Iter.map (fun x -> x *. 2.0) (Triolet.Iter.of_floatarray xs))]

(* Definitions a site names instead of writing out, as tpacf's do: a
   producer with a [let] and a defaulted hint, a map over a producer
   argument, and a consumer over both. *)
let[@fuse] near ?(hint = Iter.localpar) (xs : floatarray) =
  let n = Float.Array.length xs in
  Iter.concat_map
    (fun (i, u) ->
      Seq_iter.range (i + 1) (min n (i + 5))
      |> Seq_iter.map (fun j -> (u, Float.Array.get xs j)))
    (hint (Iter.enumerate (Iter.of_floatarray xs)))

let[@fuse] bucketed ~bins pairs = Iter.map (fun (u, v) -> bucket ~bins u v) pairs
let[@fuse] correlate ?ctx ~bins pairs = Iter.histogram ?ctx ~bins (bucketed ~bins pairs)

let inlined ?ctx ?hint ~bins (xs : floatarray) =
  [%fuse correlate ?ctx ~bins (near ?hint xs)]

(* A definition partially applied as a concat_map body. *)
let[@fuse] around ~k x = Seq_iter.range (x mod k) k |> Seq_iter.map (fun j -> j + x)

let partial ?ctx ~hint (xs : int array) =
  [%fuse Iter.histogram ?ctx ~bins:32 (Iter.concat_map (around ~k:7) (hint (Iter.of_int_array xs)))]

(* sgemm's tile: to_matrix over a map of row-pair dots, the hint set on
   the product by value. *)
let tile ?ctx ~hint (a : Matrix.t) (bt : Matrix.t) =
  [%fuse
    Iter.to_matrix ?ctx
      (Iter.map
         (fun (u, v) -> 2.0 *. Matrix.view_dot u v)
         (Iter.with_hint hint (Iter.outer_product (Iter.rows a) (Iter.rows bt))))]

(* A tile under a hint wrapper, its dot written [v u] and bound by a
   [let]. *)
let tile_par ~ctx (a : Matrix.t) (bt : Matrix.t) =
  [%fuse
    Iter.to_matrix ~ctx
      (Iter.par
         (Iter.map
            (fun (u, v) ->
              let d = Matrix.view_dot v u in
              d *. d)
            (Iter.outer_product (Iter.rows a) (Iter.rows bt))))]

(* Not recognised, so left exactly as written: *)

(* a consumer the rewriter does not know; *)
let count_unrecognised (xs : int array) =
  [%fuse Iter.count (Iter.map (fun x -> x + 1) (Iter.of_int_array xs))]

(* an inner stream that is not a range nest; *)
let not_a_nest (xs : int array) =
  [%fuse
    Iter.histogram ~bins:8
      (Iter.concat_map (fun x -> Seq_iter.of_list [ x; x + 1 ]) (Iter.of_int_array xs))]

(* a map whose [u] the concat_map's own [u] would capture. *)
let captured (xs : int array) =
  let u = 3 in
  [%fuse
    Iter.histogram ~bins:8
      (Iter.map
         (fun v -> v + u)
         (Iter.concat_map
            (fun u -> Seq_iter.range 0 (u mod 4))
            (Iter.of_int_array xs)))]

(* a filter whose [j] the map's own [j] would capture; *)
let filter_captured ~n (xs : int array) =
  [%fuse
    Iter.histogram ~bins:64
      (Iter.concat_map
         (fun j ->
           Seq_iter.range 0 n
           |> Seq_iter.map (fun j -> j + 1)
           |> Seq_iter.filter (fun k -> k > j))
         (Iter.of_int_array xs))]

(* a definition whose [bucket] the site rebinds, so it is not inlined. *)
let shadowed (xs : floatarray) =
  let bucket ~bins u _ = if u < 0.5 then 0 else bins - 1 in
  [%fuse
    Iter.histogram ~bins:4
      (bucketed ~bins:4
         (Iter.map
            (fun x -> (x, float_of_int (bucket ~bins:4 x x) /. 4.0))
            (Iter.of_floatarray xs)))]

(* a tile whose [u] is read outside its dot. *)
let tile_escapes (a : Matrix.t) (bt : Matrix.t) =
  [%fuse
    Iter.to_matrix
      (Iter.map
         (fun (u, v) -> Matrix.view_dot u v +. Matrix.view_get u 0)
         (Iter.outer_product (Iter.rows a) (Iter.rows bt)))]
