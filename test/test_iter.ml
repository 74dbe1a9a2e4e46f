(* Tests for the user-facing iterator API: fused pipelines, par/localpar
   hints, and all three execution paths (sequential, shared-memory
   pool, distributed cluster with sliced payloads). *)

open Triolet
module Cluster = Triolet_runtime.Cluster
module Codec = Triolet_base.Codec
module Stats = Triolet_runtime.Stats

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

(* Keep pools tiny on the 1-core box; the default pool is created once. *)
let () = Triolet_runtime.Pool.set_default_width 2

let () =
  Exec.set_ambient (Exec.make ~nodes:(3) ~cores_per_node:(2) ())

let on_cluster ~nodes ~cores_per_node ~flat f =
  Exec.with_context
    (Exec.make ~nodes ~cores_per_node
       ~backend:(if flat then Cluster.Flat else (Exec.default ()).Exec.backend)
       ())
    f

let fa_of_list l = Float.Array.of_list l

let with_hint h it =
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
(* Sources                                                             *)

let test_of_floatarray () =
  let it = Iter.of_floatarray (fa_of_list [ 1.0; 2.0; 3.0 ]) in
  check_int "len" 3 (Iter.length it);
  Alcotest.(check (list (float 0.0))) "to_list" [ 1.0; 2.0; 3.0 ] (Iter.to_list it)

let test_range_and_indices () =
  Alcotest.(check (list int)) "range" [ 5; 6; 7 ] (Iter.to_list (Iter.range 5 8));
  let it = Iter.of_floatarray (fa_of_list [ 9.0; 9.0 ]) in
  Alcotest.(check (list int)) "indices" [ 0; 1 ] (Iter.to_list (Iter.indices it))

let test_of_int_array_and_array () =
  Alcotest.(check (list int)) "ints" [ 4; 5 ]
    (Iter.to_list (Iter.of_int_array [| 4; 5 |]));
  Alcotest.(check (list string)) "boxed" [ "a"; "b" ]
    (Iter.to_list (Iter.of_array [| "a"; "b" |]))

(* ------------------------------------------------------------------ *)
(* The dot product of section 2, on every execution path               *)

let dot xs ys =
  Iter.sum (Iter.map (fun (x, y) -> x *. y) (Iter.zip xs ys))

let test_dot_all_hints () =
  let xs = Float.Array.init 1000 (fun i -> float_of_int i) in
  let ys = Float.Array.init 1000 (fun i -> float_of_int (i mod 7)) in
  let expected = ref 0.0 in
  for i = 0 to 999 do
    expected := !expected +. (Float.Array.get xs i *. Float.Array.get ys i)
  done;
  each_hint (fun name h ->
      let d = dot (with_hint h (Iter.of_floatarray xs)) (Iter.of_floatarray ys) in
      Alcotest.(check (float 1e-6)) ("dot " ^ name) !expected d)

let test_dot_distributed_ships_slices () =
  (* Distributed dot must ship both arrays, sliced: the scatter volume
     is close to the raw data size, not nodes x data size. *)
  let n = 3000 in
  let xs = Float.Array.make n 1.0 and ys = Float.Array.make n 2.0 in
  Stats.reset ();
  let _, delta =
    Stats.measure (fun () ->
        dot (Iter.par (Iter.of_floatarray xs)) (Iter.of_floatarray ys))
  in
  let raw = 2 * 8 * n in
  Alcotest.(check bool) "scatter ~ raw size" true
    (delta.Stats.bytes_sent > raw && delta.Stats.bytes_sent < raw + 4096)

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)

let test_filter_sum_all_hints () =
  each_hint (fun name h ->
      let s =
        Iter.range 0 1000
        |> with_hint h
        |> Iter.filter (fun x -> x mod 2 = 0)
        |> Iter.map float_of_int
        |> Iter.sum
      in
      Alcotest.(check (float 0.0)) ("filter+sum " ^ name) 249500.0 s)

let test_concat_map_all_hints () =
  each_hint (fun name h ->
      let s =
        Iter.range 0 100
        |> with_hint h
        |> Iter.concat_map (fun n -> Seq_iter.range 0 (n mod 5))
        |> Iter.sum_int
      in
      (* per n: sum 0..(n mod 5 - 1); 20 full cycles of (0+0+1+3+6)=10 *)
      check_int ("concat_map " ^ name) 200 s)

let test_zip3_and_enumerate () =
  let a = Iter.of_floatarray (fa_of_list [ 1.0; 2.0 ]) in
  let b = Iter.of_floatarray (fa_of_list [ 10.0; 20.0 ]) in
  let c = Iter.of_floatarray (fa_of_list [ 100.0; 200.0 ]) in
  let sums =
    Iter.to_list (Iter.map (fun (x, y, z) -> x +. y +. z) (Iter.zip3 a b c))
  in
  Alcotest.(check (list (float 0.0))) "zip3" [ 111.0; 222.0 ] sums;
  let e = Iter.to_list (Iter.enumerate (Iter.of_int_array [| 7; 8 |])) in
  Alcotest.(check (list (pair int int))) "enumerate" [ (0, 7); (1, 8) ] e

let test_zip_truncates () =
  let a = Iter.range 0 5 and b = Iter.range 0 3 in
  check_int "len" 3 (Iter.length (Iter.zip a b))

let test_zip_hint_propagates () =
  let a = Iter.par (Iter.range 0 5) and b = Iter.range 0 5 in
  Alcotest.(check bool) "distributed wins" true
    (Iter.hint (Iter.zip a b) = Iter.Distributed);
  let c = Iter.localpar (Iter.range 0 5) in
  Alcotest.(check bool) "local wins over seq" true
    (Iter.hint (Iter.zip c (Iter.range 0 5)) = Iter.Local)

(* ------------------------------------------------------------------ *)
(* Consumers                                                           *)

let test_reduce_max () =
  let a = Iter.of_floatarray (fa_of_list [ 3.0; 9.0; 1.0; 7.0 ]) in
  each_hint (fun name h ->
      check_float ("max " ^ name) 9.0
        (Iter.reduce ~codec:Codec.float ~merge:Float.max ~init:Float.neg_infinity
           (with_hint h a)))

let test_count () =
  each_hint (fun name h ->
      check_int ("count " ^ name) 34
        (Iter.count (Iter.filter (fun x -> x mod 3 = 0) (with_hint h (Iter.range 0 100)))))

let test_histogram_all_hints () =
  let bins = 8 in
  let reference = Array.make bins 0 in
  for i = 0 to 999 do
    let b = i * i mod bins in
    reference.(b) <- reference.(b) + 1
  done;
  each_hint (fun name h ->
      let hist =
        Iter.histogram ~bins (Iter.map (fun i -> i * i mod bins) (with_hint h (Iter.range 0 1000)))
      in
      Alcotest.(check (array int)) ("histogram " ^ name) reference hist)

let test_scatter_add_all_hints () =
  let size = 16 in
  let reference = Float.Array.make size 0.0 in
  for i = 0 to 499 do
    let b = i mod size in
    Float.Array.set reference b (Float.Array.get reference b +. (0.5 *. float_of_int i))
  done;
  each_hint (fun name h ->
      let grid =
        Iter.scatter_add ~size
          (Iter.map (fun i -> (i mod size, 0.5 *. float_of_int i)) (with_hint h (Iter.range 0 500)))
      in
      for b = 0 to size - 1 do
        Alcotest.(check (float 1e-6)) (name ^ " bin") (Float.Array.get reference b)
          (Float.Array.get grid b)
      done)

let test_collect_floats_order () =
  each_hint (fun name h ->
      let fa =
        Iter.collect_floats
          (Iter.map (fun i -> float_of_int (i * 3)) (with_hint h (Iter.range 0 101)))
      in
      check_int (name ^ " len") 101 (Float.Array.length fa);
      for i = 0 to 100 do
        Alcotest.(check (float 0.0)) (name ^ " order") (float_of_int (i * 3))
          (Float.Array.get fa i)
      done)

let test_collect_floats_irregular () =
  (* Variable-length output: order must still follow the input order. *)
  let expected =
    List.concat_map (fun i -> List.init (i mod 3) (fun k -> float_of_int ((10 * i) + k)))
      (List.init 50 Fun.id)
  in
  each_hint (fun name h ->
      let fa =
        Iter.collect_floats
          (Iter.concat_map
             (fun i ->
               Seq_iter.map
                 (fun k -> float_of_int ((10 * i) + k))
                 (Seq_iter.range 0 (i mod 3)))
             (with_hint h (Iter.range 0 50)))
      in
      Alcotest.(check (list (float 0.0))) (name ^ " irregular pack") expected
        (List.init (Float.Array.length fa) (Float.Array.get fa)))

let test_empty_iterators () =
  each_hint (fun name h ->
      check_float (name ^ " sum") 0.0 (Iter.sum (with_hint h (Iter.of_floatarray (Float.Array.create 0))));
      check_int (name ^ " count") 0 (Iter.count (with_hint h (Iter.range 0 0))))

(* ------------------------------------------------------------------ *)
(* Distributed execution details                                        *)

let test_flat_mode_matches () =
  let xs = Float.Array.init 500 float_of_int in
  let tw =
    Exec.with_context (Exec.make ~nodes:(2) ~cores_per_node:(2) ())
      (fun () -> Iter.sum (Iter.par (Iter.of_floatarray xs)))
  in
  let fl =
    Exec.with_context (Exec.make ~nodes:(2) ~cores_per_node:(2) ~backend:Cluster.Flat ())
      (fun () -> Iter.sum (Iter.par (Iter.of_floatarray xs)))
  in
  check_float "two-level = flat result" tw fl

let test_flat_mode_sends_more_messages () =
  let xs = Float.Array.init 512 float_of_int in
  let count flat =
    Stats.reset ();
    let _, d =
      Stats.measure (fun () ->
          on_cluster ~nodes:4 ~cores_per_node:4 ~flat
            (fun () -> Iter.sum (Iter.par (Iter.of_floatarray xs))))
    in
    d.Stats.messages
  in
  let flat_msgs = count true and two_msgs = count false in
  Alcotest.(check bool) "flat needs more messages" true (flat_msgs > two_msgs)

let test_single_node_cluster () =
  Exec.with_context (Exec.make ~nodes:(1) ~cores_per_node:(2) ())
    (fun () ->
      check_float "sum" 4950.0
        (Iter.sum (Iter.par (Iter.map float_of_int (Iter.range 0 100)))))

let test_more_nodes_than_elements () =
  Exec.with_context (Exec.make ~nodes:(3) ~cores_per_node:(2) ())
    (fun () ->
      check_int "tiny input" 1
        (Iter.sum_int (Iter.par (Iter.of_int_array [| 1 |]))))

let test_of_array_distributed_needs_codec () =
  let it = Iter.par (Iter.of_array [| 1; 2; 3 |]) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Iter.reduce ~codec:Codec.int ~merge:( + ) ~init:0 it);
       false
     with Invalid_argument _ -> true)

let test_of_array_distributed_with_codec () =
  let it = Iter.par (Iter.of_array ~codec:Codec.int [| 1; 2; 3; 4 |]) in
  check_int "sum" 10 (Iter.reduce ~codec:Codec.int ~merge:( + ) ~init:0 it)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let gen_floats =
  QCheck2.Gen.(list_size (int_bound 60) (float_bound_inclusive 100.0))

let prop_sum_hint_invariance =
  qtest "sum independent of hint" gen_floats (fun l ->
      let fa = fa_of_list l in
      let s0 = Iter.sum (Iter.sequential (Iter.of_floatarray fa)) in
      let s1 = Iter.sum (Iter.localpar (Iter.of_floatarray fa)) in
      let s2 = Iter.sum (Iter.par (Iter.of_floatarray fa)) in
      Float.abs (s0 -. s1) <= 1e-6 *. (1.0 +. Float.abs s0)
      && Float.abs (s0 -. s2) <= 1e-6 *. (1.0 +. Float.abs s0))

let prop_histogram_hint_invariance =
  qtest "histogram independent of hint"
    QCheck2.Gen.(list_size (int_bound 80) (int_bound 9))
    (fun l ->
      let a = Array.of_list l in
      let h0 = Iter.histogram ~bins:10 (Iter.sequential (Iter.of_int_array a)) in
      let h1 = Iter.histogram ~bins:10 (Iter.localpar (Iter.of_int_array a)) in
      let h2 = Iter.histogram ~bins:10 (Iter.par (Iter.of_int_array a)) in
      h0 = h1 && h0 = h2)

let prop_pipeline_matches_list =
  qtest "fused pipeline = list pipeline"
    QCheck2.Gen.(list_size (int_bound 50) (int_range (-30) 30))
    (fun l ->
      let it =
        Iter.of_int_array (Array.of_list l)
        |> Iter.filter (fun x -> x mod 2 = 0)
        |> Iter.map (fun x -> x * x)
      in
      let ll = l |> List.filter (fun x -> x mod 2 = 0) |> List.map (fun x -> x * x) in
      Iter.to_list it = ll
      && Iter.sum_int (Iter.localpar it) = List.fold_left ( + ) 0 ll)

(* One domain-generic property: on every domain (including empty
   extents), hint and geometry (including more nodes than rows or
   planes), every consumer agrees with a sequential [Shape.fold] of the
   element function.  Elements are small integers, so sums are exact
   whatever order the blocks merge in. *)
let consumers_match_fold : type i.
    Exec.t -> i Shape.t -> (i -> float) -> (i, float) Iter.iter -> bool =
 fun ctx shape f it ->
  let expected = List.rev (Shape.fold shape (fun acc i -> f i :: acc) []) in
  let same fa = Float.Array.to_list fa = expected in
  Iter.sum ~ctx it = List.fold_left ( +. ) 0.0 expected
  &&
  match shape with
  | Shape.Seq _ ->
      same (Iter.collect_floats ~ctx it)
      && fst (Iter.collect_float_pairs ~ctx (Iter.map (fun x -> (x, x)) it))
         |> same
  | Shape.Dim2 _ -> same (Matrix.data (Iter.to_matrix ~ctx it))
  | Shape.Dim3 _ -> same (Grid3.data (Iter.to_grid ~ctx it))

let prop_consumers_match_fold =
  qtest "consumers match Shape.fold"
    QCheck2.Gen.(
      pair
        (quad (int_range 0 2) (int_range 0 5) (int_range 0 5) (int_range 0 5))
        (quad (int_range 0 2) (int_range 1 5) (int_range 1 2) bool))
    (fun ((dims, d, h, w), (hint, nodes, cores_per_node, flat)) ->
      let ctx =
        Exec.make ~nodes ~cores_per_node
          ~backend:(if flat then Cluster.Flat else (Exec.default ()).Exec.backend)
          ()
      in
      let hint = List.nth [ Iter.Sequential; Iter.Local; Iter.Distributed ] hint in
      let check shape f its =
        List.for_all
          (fun it -> consumers_match_fold ctx shape f (with_hint hint it))
          its
      in
      let fl = float_of_int in
      match dims with
      | 0 ->
          let f i = fl ((i * 7) mod 11) in
          let xs = Float.Array.init d f in
          check (Shape.seq d) f [ Iter.init (Shape.seq d) f; Iter.of_floatarray xs ]
      | 1 ->
          let f (i, j) = fl ((i * 10) + j) in
          let col n = Iter.of_floatarray (Float.Array.init n fl) in
          check (Shape.dim2 d h) f
            [
              Iter.init (Shape.dim2 d h) f;
              Iter.map (fun (a, b) -> (a *. 10.0) +. b)
                (Iter.outer_product (col d) (col h));
            ]
      | _ ->
          let f (z, y, x) = fl ((z * 100) + (y * 10) + x) in
          check (Shape.dim3 d h w) f
            [
              Iter.init (Shape.dim3 d h w) f;
              Iter.of_grid (Grid3.init w h d (fun x y z -> f (z, y, x)));
            ])

let () =
  Alcotest.run "iter"
    [
      ( "sources",
        [
          Alcotest.test_case "of_floatarray" `Quick test_of_floatarray;
          Alcotest.test_case "range/indices" `Quick test_range_and_indices;
          Alcotest.test_case "int/boxed arrays" `Quick test_of_int_array_and_array;
        ] );
      ( "dot",
        [
          Alcotest.test_case "all hints" `Quick test_dot_all_hints;
          Alcotest.test_case "distributed ships slices" `Quick
            test_dot_distributed_ships_slices;
        ] );
      ( "transform",
        [
          Alcotest.test_case "filter+sum" `Quick test_filter_sum_all_hints;
          Alcotest.test_case "concat_map" `Quick test_concat_map_all_hints;
          Alcotest.test_case "zip3/enumerate" `Quick test_zip3_and_enumerate;
          Alcotest.test_case "zip truncates" `Quick test_zip_truncates;
          Alcotest.test_case "zip hint propagation" `Quick test_zip_hint_propagates;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "reduce max" `Quick test_reduce_max;
          Alcotest.test_case "count" `Quick test_count;
          Alcotest.test_case "histogram" `Quick test_histogram_all_hints;
          Alcotest.test_case "scatter_add" `Quick test_scatter_add_all_hints;
          Alcotest.test_case "collect_floats order" `Quick
            test_collect_floats_order;
          Alcotest.test_case "collect irregular" `Quick
            test_collect_floats_irregular;
          Alcotest.test_case "empty" `Quick test_empty_iterators;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "flat = two-level result" `Quick test_flat_mode_matches;
          Alcotest.test_case "flat sends more messages" `Quick
            test_flat_mode_sends_more_messages;
          Alcotest.test_case "single node" `Quick test_single_node_cluster;
          Alcotest.test_case "more nodes than work" `Quick
            test_more_nodes_than_elements;
          Alcotest.test_case "boxed array needs codec" `Quick
            test_of_array_distributed_needs_codec;
          Alcotest.test_case "boxed array with codec" `Quick
            test_of_array_distributed_with_codec;
        ] );
      ("domains", [ prop_consumers_match_fold ]);
      ( "properties",
        [
          prop_sum_hint_invariance;
          prop_histogram_hint_invariance;
          prop_pipeline_matches_list;
        ] );
    ]
