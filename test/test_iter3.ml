(* Tests for 3-D grids and iterators over [Dim3 (nz, ny, nx)] domains
   indexed (z, y, x): slab decomposition, to_grid/sum on all execution
   paths, and the gather-formulated cutcp. *)

open Triolet
module Cluster = Triolet_runtime.Cluster
module Stats = Triolet_runtime.Stats

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

let () = Triolet_runtime.Pool.set_default_width 2

let () =
  Exec.set_ambient (Exec.make ~nodes:(3) ~cores_per_node:(2) ())

let with_hint3 h it =
  match h with
  | Iter.Sequential -> Iter.sequential it
  | Iter.Local -> Iter.localpar it
  | Iter.Distributed -> Iter.par it

let each_hint f =
  List.iter
    (fun (name, h) -> f name h)
    [ ("seq", Iter.Sequential); ("localpar", Iter.Local);
      ("par", Iter.Distributed) ]

(* ------------------------------------------------------------------ *)
(* Grid3                                                               *)

let test_grid3_get_set () =
  let g = Grid3.create 3 4 5 in
  check_int "points" 60 (Grid3.points g);
  Grid3.set g 2 3 4 7.5;
  check_float "get" 7.5 (Grid3.get g 2 3 4);
  Alcotest.check_raises "oob" (Invalid_argument "Grid3.get") (fun () ->
      ignore (Grid3.get g 3 0 0))

let test_grid3_linear_layout () =
  let g = Grid3.create 4 3 2 in
  (* x fastest, then y, then z *)
  check_int "origin" 0 (Grid3.linear g 0 0 0);
  check_int "x" 1 (Grid3.linear g 1 0 0);
  check_int "y" 4 (Grid3.linear g 0 1 0);
  check_int "z" 12 (Grid3.linear g 0 0 1)

let test_grid3_add_total () =
  let a = Grid3.init 2 2 2 (fun x y z -> float_of_int (x + y + z)) in
  let b = Grid3.init 2 2 2 (fun _ _ _ -> 1.0) in
  let s = Grid3.add a b in
  check_float "sum cell" (Grid3.get a 1 1 1 +. 1.0) (Grid3.get s 1 1 1);
  check_float "total" (Grid3.total a +. 8.0) (Grid3.total s);
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Grid3.add")
    (fun () -> ignore (Grid3.add a (Grid3.create 1 2 2)))

(* ------------------------------------------------------------------ *)
(* 3-D iterators                                                       *)

(* [f ()] on a flat 2x2 cluster: four single-core nodes, one per
   worker, where a two-level 2x2 cluster has two. *)
let on_flat_2x2 f =
  Exec.with_context
    (Exec.make ~nodes:2 ~cores_per_node:2 ~backend:Cluster.Flat ())
    f

let test_iter3_build_identity () =
  let g = Grid3.init 4 3 5 (fun x y z -> float_of_int ((z * 100) + (y * 10) + x)) in
  each_hint (fun name h ->
      let rebuilt = Iter.to_grid (with_hint3 h (Iter.of_grid g)) in
      Alcotest.(check bool) (name ^ " identity") true
        (Grid3.equal_eps ~eps:0.0 g rebuilt));
  let flat = on_flat_2x2 (fun () -> Iter.to_grid (Iter.par (Iter.of_grid g))) in
  Alcotest.(check bool) "par on flat 2x2 identity" true
    (Grid3.equal_eps ~eps:0.0 g flat)

let test_iter3_init_distributed () =
  (* init-based iterators are distributable: the slab payload carries
     bounds and the function travels as a closure. *)
  let f x y z = float_of_int ((x * y) + z) in
  let it = Iter.init (Shape.dim3 7 4 5) (fun (z, y, x) -> f x y z) in
  each_hint (fun name h ->
      let built = Iter.to_grid (with_hint3 h it) in
      Alcotest.(check bool) (name ^ " init build") true
        (Grid3.equal_eps ~eps:0.0 (Grid3.init 5 4 7 f) built));
  let seq = Iter.to_grid (Iter.sequential it) in
  let flat = on_flat_2x2 (fun () -> Iter.to_grid (Iter.par it)) in
  Alcotest.(check bool) "par on flat 2x2 = seq" true
    (Grid3.equal_eps ~eps:0.0 seq flat)

let test_iter3_sum_all_hints () =
  let g = Grid3.init 3 3 9 (fun x y z -> float_of_int (x + y + z)) in
  let expected = Grid3.total g in
  each_hint (fun name h ->
      Alcotest.(check (float 1e-9)) ("sum " ^ name) expected
        (Iter.sum (with_hint3 h (Iter.of_grid g))))

let test_iter3_map_map2 () =
  let a = Grid3.init 2 3 4 (fun x y z -> float_of_int (x + y + z)) in
  let doubled = Iter.to_grid (Iter.map (fun v -> 2.0 *. v) (Iter.of_grid a)) in
  check_float "map" (2.0 *. Grid3.get a 1 2 3) (Grid3.get doubled 1 2 3);
  let b = Grid3.init 2 3 4 (fun _ _ _ -> 1.0) in
  let s =
    Iter.to_grid
      (Iter.par (Iter.zip_with ( +. ) (Iter.of_grid a) (Iter.of_grid b)))
  in
  Alcotest.(check bool) "map2 distributed" true
    (Grid3.equal_eps ~eps:0.0 (Grid3.add a b) s)

let test_iter3_slab_payload_volume () =
  (* Distributing a grid iterator ships each slab exactly once: the
     scatter volume is ~ one grid, plus one grid gathered back. *)
  let g = Grid3.init 8 8 12 (fun x y z -> float_of_int (x * y * z)) in
  Stats.reset ();
  let _, delta =
    Stats.measure (fun () -> Iter.to_grid (Iter.par (Iter.of_grid g)))
  in
  let grid_bytes = 8 * Grid3.points g in
  Alcotest.(check bool) "~2 grids moved" true
    (delta.Stats.bytes_sent >= 2 * grid_bytes
    && delta.Stats.bytes_sent < (2 * grid_bytes) + 2048)

let test_iter3_more_nodes_than_slabs () =
  Exec.with_context (Exec.make ~nodes:(5) ~cores_per_node:(2) ())
    (fun () ->
      let g = Grid3.init 2 2 3 (fun x _ _ -> float_of_int x) in
      Alcotest.(check (float 1e-9)) "tiny grid" (Grid3.total g)
        (Iter.sum (Iter.par (Iter.of_grid g))))

(* ------------------------------------------------------------------ *)
(* Gather cutcp                                                        *)

let small_box seed =
  Triolet_kernels.Dataset.cutcp ~seed ~atoms:25 ~nx:10 ~ny:9 ~nz:8
    ~spacing:0.5 ~cutoff:1.7

let test_cutcp_gather_matches_scatter () =
  let c = small_box 71 in
  let reference = Triolet_kernels.Cutcp.run_c c in
  each_hint (fun name h ->
      let g = Triolet_kernels.Cutcp.run_gather ~hint:(with_hint3 h) c in
      Alcotest.(check bool) (name ^ " gather = scatter") true
        (Triolet_kernels.Cutcp.agrees ~eps:1e-9 reference g))

let prop_cutcp_gather_agreement =
  qtest "cutcp gather = C on random boxes"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 4 9))
    (fun (atoms, nx) ->
      let c =
        Triolet_kernels.Dataset.cutcp ~seed:(atoms + (31 * nx)) ~atoms ~nx
          ~ny:nx ~nz:nx ~spacing:0.5 ~cutoff:1.3
      in
      Triolet_kernels.Cutcp.agrees ~eps:1e-9
        (Triolet_kernels.Cutcp.run_c c)
        (Triolet_kernels.Cutcp.run_gather c))

let () =
  Alcotest.run "iter3"
    [
      ( "grid3",
        [
          Alcotest.test_case "get/set" `Quick test_grid3_get_set;
          Alcotest.test_case "linear layout" `Quick test_grid3_linear_layout;
          Alcotest.test_case "add/total" `Quick test_grid3_add_total;
        ] );
      ( "iter3",
        [
          Alcotest.test_case "build identity" `Quick test_iter3_build_identity;
          Alcotest.test_case "init distributed" `Quick
            test_iter3_init_distributed;
          Alcotest.test_case "sum" `Quick test_iter3_sum_all_hints;
          Alcotest.test_case "map/map2" `Quick test_iter3_map_map2;
          Alcotest.test_case "slab payload volume" `Quick
            test_iter3_slab_payload_volume;
          Alcotest.test_case "more nodes than slabs" `Quick
            test_iter3_more_nodes_than_slabs;
        ] );
      ( "cutcp-gather",
        [
          Alcotest.test_case "gather = scatter" `Quick
            test_cutcp_gather_matches_scatter;
          prop_cutcp_gather_agreement;
        ] );
    ]
