(* The [%fuse] rewriter at run time.  [Fuse_cases] is
   test/fuse_cases.ml as the rewriter expands it.  On every hint and on
   the Process, Inprocess and Flat backends at 2x1, each site must give
   what the same pipeline gives through [Seq_iter_ref]: integer
   consumers bit for bit, float consumers bit for bit under
   [Sequential] and within rounding elsewhere.  Then the kernels that
   adopted [%fuse]: tpacf's three stages against [run_c] and against
   their library-form hooks, cutcp against its hook, and sgemm against
   its hook and, bit for bit, [run_c] at 1-4 nodes x 1-2 cores.

   The parent stays single-domain (pool width 1) so the Process backend
   can fork at any point of the run. *)

open Triolet
module F = Fuse_cases
module R = Seq_iter_ref
module Cluster = Triolet_runtime.Cluster
module D = Triolet_kernels.Dataset
module Tpacf = Triolet_kernels.Tpacf
module Cutcp = Triolet_kernels.Cutcp
module Sgemm = Triolet_kernels.Sgemm

let () = Triolet_runtime.Pool.set_default_width 1

let backends =
  [
    ("process", Cluster.Process);
    ("inprocess", Cluster.Inprocess);
    ("flat", Cluster.Flat);
  ]

let ctx_of backend = Exec.make ~nodes:2 ~cores_per_node:1 ~backend ()

type hint = { name : string; hint : 'a. 'a Iter.t -> 'a Iter.t; seq : bool }

let hints =
  [
    { name = "sequential"; hint = Iter.sequential; seq = true };
    { name = "localpar"; hint = Iter.localpar; seq = false };
    { name = "par"; hint = Iter.par; seq = false };
  ]

let check_ints = Alcotest.(check (array int))

(* A hint function's value, read off an empty iterator. *)
let hint_value h = Iter.hint (h.hint (Iter.range 0 0))
let check_bool = Alcotest.(check bool)

let for_all2 p a b =
  Float.Array.length a = Float.Array.length b
  && Seq.for_all2 p (Float.Array.to_seq a) (Float.Array.to_seq b)

let bits_equal =
  for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))

let close =
  for_all2 (fun x y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x))

(* Deterministic inputs. *)
let ints n = Array.init n (fun i -> ((i * 37) + 11) mod 100)
let floats n =
  Float.Array.init n (fun i -> Float.of_int (((i * 53) + 7) mod 97) /. 97.0)

(* ------------------------------------------------------------------ *)
(* Seq_iter_ref references for each fixture                            *)

let ref_hist ~bins it =
  R.fold
    (fun h b ->
      if b >= 0 && b < bins then h.(b) <- h.(b) + 1;
      h)
    (Array.make bins 0) it

let ref_scatter ~size it =
  R.fold
    (fun g (i, w) ->
      if i >= 0 && i < size then Float.Array.set g i (Float.Array.get g i +. w);
      g)
    (Float.Array.make size 0.0) it

let r_ints xs = R.of_array xs
let r_floats xs = R.of_floatarray xs

let ref_map_only xs = ref_hist ~bins:16 (R.map (fun x -> x * 7 mod 19) (r_ints xs))

let ref_pairs ~bins xs =
  let n = Float.Array.length xs in
  R.zip (R.range 0 n) (r_floats xs)
  |> R.concat_map (fun (i, u) ->
         R.map (fun j -> (u, Float.Array.get xs j)) (R.range (i + 1) n))
  |> R.map (fun (u, v) -> F.bucket ~bins u v)
  |> ref_hist ~bins

let ref_lets_filter xs =
  r_ints xs
  |> R.concat_map (fun x ->
         let k = x mod 7 in
         R.range k (k + (x mod 5))
         |> R.filter (fun j -> j land 1 = 0)
         |> R.map (fun j -> j + x))
  |> R.map (fun b -> b land 31)
  |> ref_hist ~bins:32

let ref_grid ~nx ~ny ~nz ax aw =
  let cutoff = 2.5 in
  R.zip (r_floats ax) (r_floats aw)
  |> R.concat_map (fun (x, w) ->
         let x0 = max 0 (int_of_float (x -. cutoff))
         and x1 = min nx (int_of_float (x +. cutoff) + 1) in
         R.range 0 nz
         |> R.concat_map (fun iz ->
                R.range (iz mod 2) ny
                |> R.concat_map (fun iy ->
                       R.range x0 x1
                       |> R.filter_map (fun ix ->
                              let d =
                                Float.abs (float_of_int ix -. x)
                                +. float_of_int (iy + iz)
                              in
                              Option.map
                                (fun v -> ((((iz * ny) + iy) * nx) + ix, v))
                                (F.weight ~cutoff d w)))))
  |> ref_scatter ~size:(nx * ny * nz)

let ref_sum_cases xs =
  r_floats xs
  |> R.concat_map (fun x ->
         R.range 0 4 |> R.filter_map F.half
         |> R.filter_map (fun h -> if h < 1.5 then Some (x, h) else None))
  |> R.map (fun (a, b) -> a *. b)
  |> R.sum_float

let ref_hinted op xs =
  r_ints xs
  |> R.concat_map (fun x -> R.map (fun j -> op x j mod 8) (R.range 0 3))
  |> ref_hist ~bins:8

(* ------------------------------------------------------------------ *)

let xs_int = ints 61
let xs_float = floats 47
let ax = Float.Array.init 13 (fun i -> Float.of_int ((i * 7) mod 11) +. 0.25)
let aw = Float.Array.init 13 (fun i -> 1.0 +. (Float.of_int i /. 8.0))
let nx, ny, nz = (11, 5, 3)

let ref_inlined ~bins xs =
  let n = Float.Array.length xs in
  R.zip (R.range 0 n) (r_floats xs)
  |> R.concat_map (fun (i, u) ->
         R.map (fun j -> (u, Float.Array.get xs j)) (R.range (i + 1) (min n (i + 5))))
  |> R.map (fun (u, v) -> F.bucket ~bins u v)
  |> ref_hist ~bins

let ref_partial xs =
  r_ints xs
  |> R.concat_map (fun x -> R.map (fun j -> j + x) (R.range (x mod 7) 7))
  |> ref_hist ~bins:32

(* The tile fixtures' references: every element its own [view_dot],
   summed as the tile sums it. *)
let tile_a, tile_bt =
  let a, b = D.sgemm_matrices ~seed:73 ~m:9 ~k:7 ~n:11 in
  (a, Matrix.transpose b)

let ref_tile f =
  Matrix.init (Matrix.rows tile_a) (Matrix.rows tile_bt) (fun i j ->
      f (Matrix.row tile_a i) (Matrix.row tile_bt j))

let matrix_bits x y =
  Matrix.rows x = Matrix.rows y && Matrix.cols x = Matrix.cols y
  && bits_equal (Matrix.data x) (Matrix.data y)

(* One backend's fixture checks, under every hint. *)
let fixtures_on backend () =
  let ctx = ctx_of backend in
  List.iter
    (fun h ->
      let name s = Printf.sprintf "%s/%s = seq_iter_ref" s h.name in
      check_ints (name "map_only") (ref_map_only xs_int)
        (F.map_only ~ctx ~hint:h.hint xs_int);
      check_ints (name "pairs") (ref_pairs ~bins:12 xs_float)
        (F.pairs ~ctx ~hint:h.hint ~bins:12 xs_float);
      check_ints (name "lets_filter") (ref_lets_filter xs_int)
        (F.lets_filter ~ctx ~hint:h.hint xs_int);
      check_ints (name "inlined") (ref_inlined ~bins:12 xs_float)
        (F.inlined ~ctx ~hint:h.hint ~bins:12 xs_float);
      check_ints (name "partial") (ref_partial xs_int)
        (F.partial ~ctx ~hint:h.hint xs_int);
      let g = F.grid ~ctx ~hint:h.hint ~nx ~ny ~nz ax aw in
      let gr = ref_grid ~nx ~ny ~nz ax aw in
      check_bool (name "grid") true (close gr g);
      if h.seq then check_bool (name "grid, bits") true (bits_equal gr g);
      check_bool (name "tile, bits") true
        (matrix_bits
           (ref_tile (fun u v -> 2.0 *. Matrix.view_dot u v))
           (F.tile ~ctx ~hint:(hint_value h) tile_a tile_bt));
      let s = F.sum_cases ~ctx ~hint:h.hint xs_float in
      let sr = ref_sum_cases xs_float in
      let fa = Float.Array.make 1 in
      check_bool (name "sum") true (close (fa sr) (fa s));
      if h.seq then check_bool (name "sum, bits") true (bits_equal (fa sr) (fa s)))
    hints;
  check_ints "hinted_par = seq_iter_ref" (ref_hinted ( + ) xs_int)
    (F.hinted_par ~ctx xs_int);
  check_bool "tile_par, bits" true
    (matrix_bits
       (ref_tile (fun u v ->
            let d = Matrix.view_dot v u in
            d *. d))
       (F.tile_par ~ctx tile_a tile_bt))

let test_fixed_hints () =
  check_ints "hinted_localpar = seq_iter_ref" (ref_hinted ( * ) xs_int)
    (F.hinted_localpar xs_int);
  check_ints "hinted_sequential = seq_iter_ref"
    (ref_hist ~bins:8 (R.map (fun x -> x - 2) (r_ints xs_int)))
    (F.hinted_sequential xs_int);
  let fa = Float.Array.make 1 in
  check_bool "qualified = seq_iter_ref, bits" true
    (let reference = R.sum_float (R.map (fun x -> x *. 2.0) (r_floats xs_float)) in
     bits_equal (fa reference) (fa (F.qualified xs_float)))

let test_unrecognised () =
  Alcotest.(check int) "count" (R.length (r_ints xs_int))
    (F.count_unrecognised xs_int);
  check_ints "not_a_nest"
    (ref_hist ~bins:8
       (R.concat_map (fun x -> R.of_list [ x; x + 1 ]) (r_ints xs_int)))
    (F.not_a_nest xs_int);
  check_ints "captured"
    (ref_hist ~bins:8
       (R.map
          (fun v -> v + 3)
          (R.concat_map (fun u -> R.range 0 (u mod 4)) (r_ints xs_int))))
    (F.captured xs_int);
  check_ints "filter_captured"
    (ref_hist ~bins:64
       (R.concat_map
          (fun j -> R.filter (fun k -> k > j) (R.map (fun j -> j + 1) (R.range 0 9)))
          (r_ints xs_int)))
    (F.filter_captured ~n:9 xs_int);
  check_ints "shadowed"
    (ref_hist ~bins:4
       (R.map
          (fun x -> F.bucket ~bins:4 x (if x < 0.5 then 0.0 else 0.75))
          (r_floats xs_float)))
    (F.shadowed xs_float);
  check_bool "tile_escapes, bits" true
    (matrix_bits
       (ref_tile (fun u v -> Matrix.view_dot u v +. Matrix.view_get u 0))
       (F.tile_escapes tile_a tile_bt))

(* Unsafe_scan audits the sources; an expansion with an unchecked
   access would hide one from it. *)
let test_no_unsafe_in_expansion () =
  let ic =
    open_in_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "fuse/fuse_cases.expanded")
  in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let re = Str.regexp_string "unsafe_" in
  check_bool "no unsafe_ access" false
    (try ignore (Str.search_forward re text 0); true with Not_found -> false);
  check_bool "expansion compiled the sites" true
    (try ignore (Str.search_forward (Str.regexp_string "Iter.run_reduce") text 0); true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* tpacf and cutcp                                                     *)

let tpacf_bins = 16
let tpacf_data = lazy (D.tpacf ~seed:71 ~points:40 ~random_sets:3)

let add a b = Array.mapi (fun i x -> x + b.(i)) a

let sets_reduce ~ctx it =
  Iter.reduce ~ctx ~codec:Triolet_base.Codec.int_array ~merge:add
    ~init:(Array.make tpacf_bins 0) it

(* The analysis hooks, consumed by the library, against run_triolet's
   fused stages. *)
let tpacf_hooks_match ~ctx ?hint label =
  let d = Lazy.force tpacf_data and bins = tpacf_bins in
  let r = Tpacf.run_triolet ~ctx ?hint ~bins d in
  check_ints (label ^ " dd = hook")
    (Iter.histogram ~ctx ~bins (Tpacf.dd_pipeline ?hint ~bins d))
    r.Tpacf.dd;
  check_ints (label ^ " dr = hook")
    (sets_reduce ~ctx (Tpacf.dr_pipeline ?hint ~bins d))
    r.Tpacf.dr;
  check_ints (label ^ " rr = hook")
    (sets_reduce ~ctx (Tpacf.rr_pipeline ?hint ~bins d))
    r.Tpacf.rr;
  r

let test_tpacf_hooks () =
  ignore (tpacf_hooks_match ~ctx:(ctx_of Cluster.Inprocess) "inprocess 2x1")

let tpacf_hints =
  [ ("default", None); ("sequential", Some Iter.Sequential);
    ("local", Some Iter.Local); ("distributed", Some Iter.Distributed) ]

let test_tpacf_every_hint backend () =
  let d = Lazy.force tpacf_data in
  let c = Tpacf.run_c ~bins:tpacf_bins d in
  List.iter
    (fun (hname, hint) ->
      let r = tpacf_hooks_match ~ctx:(ctx_of backend) ?hint hname in
      check_ints (hname ^ " dd = run_c") c.Tpacf.dd r.Tpacf.dd;
      check_ints (hname ^ " dr = run_c") c.Tpacf.dr r.Tpacf.dr;
      check_ints (hname ^ " rr = run_c") c.Tpacf.rr r.Tpacf.rr)
    tpacf_hints

let test_cutcp backend () =
  let c = D.cutcp ~seed:72 ~atoms:24 ~nx:8 ~ny:8 ~nz:8 ~spacing:0.5 ~cutoff:1.5 in
  let ctx = ctx_of backend in
  let size = D.grid_points c in
  let reference = Cutcp.run_c c in
  check_bool "sequential: fused = hook, bits" true
    (bits_equal
       (Iter.scatter_add ~ctx ~size (Cutcp.pipeline ~hint:Iter.sequential c))
       (Cutcp.run_triolet ~ctx ~hint:Iter.sequential c));
  List.iter
    (fun h ->
      check_bool (h.name ^ ": fused = run_c") true
        (Cutcp.agrees ~eps:1e-9 reference (Cutcp.run_triolet ~ctx ~hint:h.hint c)))
    hints

(* sgemm: run_triolet's fused site against the library form of the
   same definitions, under every hint. *)
let test_sgemm_hook backend () =
  let a, b = D.sgemm_matrices ~seed:74 ~m:13 ~k:9 ~n:11 in
  let ctx = ctx_of backend in
  List.iter
    (fun h ->
      let hint = Iter.with_hint (hint_value h) in
      check_bool (h.name ^ ": fused = hook, bits") true
        (matrix_bits
           (Iter.to_matrix ~ctx (Sgemm.pipeline ~alpha:0.5 ~hint a b))
           (Sgemm.run_triolet ~ctx ~alpha:0.5 ~hint a b)))
    hints

(* [run_triolet] sums each element in [run_c]'s order, so it equals
   [run_c] bit for bit on every backend, at 1-4 nodes x 1-2 cores,
   under every hint; so does the resident product. *)
let test_sgemm_bits backend () =
  let a, b = D.sgemm_matrices ~seed:75 ~m:13 ~k:9 ~n:11 in
  let c = Sgemm.run_c ~alpha:1.5 a b in
  for nodes = 1 to 4 do
    for cores = 1 to 2 do
      let ctx = Exec.make ~nodes ~cores_per_node:cores ~backend () in
      let at = Printf.sprintf "%dx%d" nodes cores in
      List.iter
        (fun h ->
          let r, d =
            Triolet_runtime.Stats.measure (fun () ->
                Sgemm.run_triolet ~ctx ~alpha:1.5 ~hint:(Iter.with_hint (hint_value h)) a b)
          in
          check_bool (Printf.sprintf "%s %s: run_triolet = run_c, bits" at h.name) true
            (matrix_bits c r);
          if backend = Cluster.Process && h.name = "par" then
            check_bool (at ^ " " ^ h.name ^ ": ran on the process nodes") true
              (d.Triolet_runtime.Stats.code_bytes > 0))
        hints;
      let r = Sgemm.Resident.create ~ctx ~alpha:1.5 a in
      Fun.protect
        ~finally:(fun () -> Sgemm.Resident.close r)
        (fun () ->
          check_bool (at ^ " resident multiply = run_c, bits") true
            (matrix_bits c (fst (Sgemm.Resident.multiply r b))))
    done
  done

let () =
  let per_backend f =
    List.map (fun (name, b) -> Alcotest.test_case name `Quick (f b)) backends
  in
  Alcotest.run "fuse"
    [
      ("fixtures", per_backend fixtures_on);
      ( "shapes",
        [
          Alcotest.test_case "fixed hints" `Quick test_fixed_hints;
          Alcotest.test_case "unrecognised run as written" `Quick test_unrecognised;
          Alcotest.test_case "no unsafe access in expansion" `Quick
            test_no_unsafe_in_expansion;
        ] );
      ( "tpacf",
        Alcotest.test_case "hooks = fused stages (inprocess 2x1)" `Quick test_tpacf_hooks
        :: per_backend test_tpacf_every_hint );
      ("cutcp", per_backend test_cutcp);
      ("sgemm", per_backend test_sgemm_hook @ per_backend test_sgemm_bits);
    ]
