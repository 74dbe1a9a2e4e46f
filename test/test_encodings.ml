(* Tests for the four fusible virtual data-structure encodings of the
   paper's Figure 1 (indexers, steppers, folds, collectors), the Shape
   domains of section 3.3, and the conversions between encodings. *)

open Triolet

let check_int = Alcotest.(check int)
let check_il = Alcotest.(check (list int))
let check_float = Alcotest.(check (float 1e-9))

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

(* The accumulator test below measures a pool fold on one worker. *)
let () = Triolet_runtime.Pool.set_default_width 1

(* ------------------------------------------------------------------ *)
(* Shape                                                               *)

let test_shape_sizes () =
  check_int "seq" 5 (Shape.size (Shape.seq 5));
  check_int "dim2" 12 (Shape.size (Shape.dim2 3 4));
  check_int "dim3" 24 (Shape.size (Shape.dim3 2 3 4));
  check_int "empty" 0 (Shape.size (Shape.seq 0))

let test_shape_linearization () =
  let s2 = Shape.dim2 3 4 in
  check_int "linear 2d" 7 (Shape.linear s2 (1, 3));
  Alcotest.(check (pair int int)) "of_linear 2d" (1, 3) (Shape.of_linear s2 7);
  let s3 = Shape.dim3 2 3 4 in
  for k = 0 to Shape.size s3 - 1 do
    check_int "roundtrip 3d" k (Shape.linear s3 (Shape.of_linear s3 k))
  done

let test_shape_mem () =
  let s = Shape.dim2 2 3 in
  Alcotest.(check bool) "in" true (Shape.mem s (1, 2));
  Alcotest.(check bool) "row out" false (Shape.mem s (2, 0));
  Alcotest.(check bool) "col out" false (Shape.mem s (0, 3));
  Alcotest.(check bool) "negative" false (Shape.mem s (-1, 0))

let test_shape_fold_row_major () =
  let s = Shape.dim2 2 2 in
  let order = List.rev (Shape.fold s (fun acc ij -> ij :: acc) []) in
  Alcotest.(check (list (pair int int)))
    "row major"
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    order

let test_shape_intersect () =
  (match Shape.intersect (Shape.seq 3) (Shape.seq 7) with
  | Shape.Seq n -> check_int "seq" 3 n);
  match Shape.intersect (Shape.dim2 3 9) (Shape.dim2 5 4) with
  | Shape.Dim2 (h, w) ->
      check_int "h" 3 h;
      check_int "w" 4 w

let test_shape_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Shape.seq: negative length")
    (fun () -> ignore (Shape.seq (-1)))

(* ------------------------------------------------------------------ *)
(* Stepper                                                             *)

let slist st = Stepper.to_list st

let test_stepper_sources () =
  check_il "range" [ 2; 3; 4 ] (slist (Stepper.range 2 5));
  check_il "of_list" [ 1; 2 ] (slist (Stepper.of_list [ 1; 2 ]));
  check_il "of_array" [ 9 ] (slist (Stepper.of_array [| 9 |]));
  check_il "empty" [] (slist Stepper.empty);
  check_il "singleton" [ 7 ] (slist (Stepper.singleton 7))

let test_stepper_map_filter () =
  let s = Stepper.range 0 10 in
  check_il "map" [ 0; 2; 4 ] (slist (Stepper.map (( * ) 2) (Stepper.range 0 3)));
  check_il "filter" [ 0; 2; 4; 6; 8 ]
    (slist (Stepper.filter (fun x -> x mod 2 = 0) s));
  check_il "filter_map" [ 0; 4; 16; 36; 64 ]
    (slist
       (Stepper.filter_map
          (fun x -> if x mod 2 = 0 then Some (x * x) else None)
          (Stepper.range 0 10)))

let test_stepper_zip () =
  let a = Stepper.range 0 3 and b = Stepper.of_list [ "x"; "y"; "z"; "w" ] in
  Alcotest.(check (list (pair int string)))
    "zip truncates"
    [ (0, "x"); (1, "y"); (2, "z") ]
    (slist (Stepper.zip a b))

let test_stepper_zip_skips () =
  (* Zip must skip over filtered-out elements on either side. *)
  let evens = Stepper.filter (fun x -> x mod 2 = 0) (Stepper.range 0 10) in
  let odds = Stepper.filter (fun x -> x mod 2 = 1) (Stepper.range 0 10) in
  Alcotest.(check (list (pair int int)))
    "zip of filters"
    [ (0, 1); (2, 3); (4, 5); (6, 7); (8, 9) ]
    (slist (Stepper.zip evens odds))

let test_stepper_concat_map () =
  let s = Stepper.range 1 4 in
  check_il "triangle" [ 0; 0; 1; 0; 1; 2 ]
    (slist (Stepper.concat_map (fun n -> Stepper.range 0 n) s));
  check_il "with empties" [ 1; 3 ]
    (slist
       (Stepper.concat_map
          (fun n -> if n mod 2 = 0 then Stepper.empty else Stepper.singleton n)
          (Stepper.range 0 5)))

let test_stepper_take_drop_append () =
  check_il "take" [ 0; 1 ] (slist (Stepper.take 2 (Stepper.range 0 9)));
  check_il "take past end" [ 0; 1 ] (slist (Stepper.take 5 (Stepper.range 0 2)));
  check_il "drop" [ 2; 3 ] (slist (Stepper.drop 2 (Stepper.range 0 4)));
  check_il "append" [ 1; 2; 3 ]
    (slist (Stepper.append (Stepper.singleton 1) (Stepper.of_list [ 2; 3 ])))

let test_stepper_enumerate_fold () =
  Alcotest.(check (list (pair int string)))
    "enumerate"
    [ (0, "a"); (1, "b") ]
    (slist (Stepper.enumerate (Stepper.of_list [ "a"; "b" ])));
  check_int "fold" 10 (Stepper.fold ( + ) 0 (Stepper.range 0 5));
  check_int "length skips" 5
    (Stepper.length (Stepper.filter (fun x -> x < 5) (Stepper.range 0 100)));
  check_float "sum_float" 6.0
    (Stepper.sum_float (Stepper.of_list [ 1.0; 2.0; 3.0 ]))

(* ------------------------------------------------------------------ *)
(* Folder                                                              *)

let flist f = Folder.to_list f

let test_folder_sources () =
  check_il "range" [ 0; 1; 2 ] (flist (Folder.range 0 3));
  check_il "of_list" [ 5; 6 ] (flist (Folder.of_list [ 5; 6 ]));
  check_il "of_array" [ 7 ] (flist (Folder.of_array [| 7 |]));
  check_il "empty" [] (flist Folder.empty)

let test_folder_ops () =
  check_il "map" [ 1; 4; 9 ]
    (flist (Folder.map (fun x -> x * x) (Folder.of_list [ 1; 2; 3 ])));
  check_il "filter" [ 2 ]
    (flist (Folder.filter (fun x -> x mod 2 = 0) (Folder.of_list [ 1; 2; 3 ])));
  check_il "concat_map nested loop" [ 0; 0; 1 ]
    (flist (Folder.concat_map (fun n -> Folder.range 0 n) (Folder.range 1 3)));
  check_il "append" [ 1; 2 ]
    (flist (Folder.append (Folder.singleton 1) (Folder.singleton 2)));
  check_int "sum_int" 6 (Folder.sum_int (Folder.of_list [ 1; 2; 3 ]));
  check_int "length" 3 (Folder.length (Folder.range 0 3))

let test_folder_of_stepper () =
  check_il "conversion" [ 0; 2; 4 ]
    (flist
       (Folder.of_stepper
          (Stepper.filter (fun x -> x mod 2 = 0) (Stepper.range 0 6))))

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)

let clist c = Collector.to_list c

let test_collector_sources () =
  check_il "range" [ 0; 1 ] (clist (Collector.range 0 2));
  check_il "of_list" [ 3 ] (clist (Collector.of_list [ 3 ]));
  check_il "of_stepper" [ 1; 3 ]
    (clist
       (Collector.of_stepper
          (Stepper.filter (fun x -> x mod 2 = 1) (Stepper.range 0 5))));
  check_il "of_folder" [ 0; 1 ] (clist (Collector.of_folder (Folder.range 0 2)))

let test_collector_ops () =
  check_il "map" [ 2; 4 ]
    (clist (Collector.map (( * ) 2) (Collector.of_list [ 1; 2 ])));
  check_il "filter" [ 1 ]
    (clist (Collector.filter (fun x -> x < 2) (Collector.of_list [ 1; 2 ])));
  check_il "concat_map" [ 0; 0; 1 ]
    (clist (Collector.concat_map (fun n -> Collector.range 0 n) (Collector.range 1 3)));
  check_int "length" 4 (Collector.length (Collector.range 0 4))

let test_collector_mutation () =
  (* The defining collector feature (Figure 1): output by mutation. *)
  let h = Collector.histogram ~bins:4 (Collector.of_list [ 0; 1; 1; 3; 3; 3 ]) in
  Alcotest.(check (array int)) "histogram" [| 1; 2; 0; 3 |] h;
  let h2 = Collector.histogram ~bins:2 (Collector.of_list [ -1; 0; 5 ]) in
  Alcotest.(check (array int)) "out of range ignored" [| 1; 0 |] h2

let test_collector_weighted_histogram () =
  let wh =
    Collector.weighted_histogram ~bins:3
      (Collector.of_list [ (0, 1.5); (2, 2.0); (0, 0.5); (7, 9.9) ])
  in
  check_float "bin0" 2.0 (Float.Array.get wh 0);
  check_float "bin1" 0.0 (Float.Array.get wh 1);
  check_float "bin2" 2.0 (Float.Array.get wh 2)

let test_collector_into_accumulates () =
  let h = [| 1; 0 |] in
  Collector.histogram_into h (Collector.of_list [ 1; 1; 9 ]);
  Alcotest.(check (array int)) "added in place" [| 1; 2 |] h;
  let g = Float.Array.make 2 1.0 in
  Collector.weighted_histogram_into g (Collector.of_list [ (1, 0.5); (-1, 3.0) ]);
  check_float "weighted added in place" 1.5 (Float.Array.get g 1)

let test_scatter_add_one_grid_per_worker () =
  (* A pool worker keeps one private grid across all its grains:
     scatter_add over 1,000 single-element grains allocates about one
     grid's worth of major heap, not one (plus a merge) per grain. *)
  let size = 4096 and n = 1000 in
  let ctx = Exec.make ~grain:(Some 1) () in
  let it =
    Iter.localpar (Iter.map (fun i -> (i * 7 mod size, 1.0)) (Iter.range 0 n))
  in
  let major () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words
  in
  ignore (Iter.scatter_add ~ctx ~size it);
  let before = major () in
  let g = Iter.scatter_add ~ctx ~size it in
  let words = major () -. before in
  check_float "every weight lands" (float_of_int n)
    (Float.Array.fold_left ( +. ) 0.0 g);
  let grid = float_of_int (size + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words within 2 grids of %.0f" words grid)
    true
    (words <= 2.0 *. grid)

let test_collector_pack () =
  let v =
    Collector.to_vec 0
      (Collector.filter (fun x -> x mod 3 = 0) (Collector.range 0 10))
  in
  Alcotest.(check (array int)) "packed" [| 0; 3; 6; 9 |]
    (Triolet_base.Vec.to_array v);
  let fa = Collector.to_floatarray (Collector.map float_of_int (Collector.range 0 3)) in
  check_float "floats" 1.0 (Float.Array.get fa 1)

(* ------------------------------------------------------------------ *)
(* Indexer                                                             *)

let test_indexer_basics () =
  let ix = Indexer.of_array [| 10; 20; 30 |] in
  check_int "size" 3 (Indexer.size ix);
  check_int "get" 20 (Indexer.get ix 1);
  check_il "to_list" [ 10; 20; 30 ] (Indexer.to_list ix)

let test_indexer_map_fuses_lookup () =
  (* map composes with the lookup function: (n, g) -> (n, f . g). *)
  let ix = Indexer.map (( * ) 2) (Indexer.range 0 4) in
  check_il "mapped" [ 0; 2; 4; 6 ] (Indexer.to_list ix)

let test_indexer_zip () =
  let a = Indexer.range 0 3 and b = Indexer.range 10 20 in
  let z = Indexer.zip a b in
  check_int "intersected size" 3 (Indexer.size z);
  Alcotest.(check (pair int int)) "random access" (2, 12) (Indexer.get z 2)

let test_indexer_slice () =
  let ix = Indexer.of_array [| 0; 1; 2; 3; 4; 5 |] in
  let s = Indexer.slice ix 2 3 in
  check_il "slice" [ 2; 3; 4 ] (Indexer.to_list s);
  check_int "rebased" 2 (Indexer.get s 0);
  let ss = Indexer.slice s 1 1 in
  check_il "slice of slice" [ 3 ] (Indexer.to_list ss);
  Alcotest.check_raises "oob" (Invalid_argument "Indexer.slice") (fun () ->
      ignore (Indexer.slice ix 4 3))

let test_indexer_random_access_parallel_order () =
  (* Indexers permit arbitrary evaluation order (Figure 1: Parallel=yes). *)
  let ix = Indexer.map (( * ) 3) (Indexer.range 0 8) in
  let backwards = List.init 8 (fun i -> Indexer.get ix (7 - i)) in
  check_il "reverse order" [ 21; 18; 15; 12; 9; 6; 3; 0 ] backwards

let test_indexer_2d () =
  let ix = Indexer.init (Shape.dim2 2 3) (fun (i, j) -> (10 * i) + j) in
  check_int "size" 6 (Indexer.size ix);
  check_il "row major fold" [ 0; 1; 2; 10; 11; 12 ] (Indexer.to_list ix);
  Alcotest.(check (array int))
    "to_array" [| 0; 1; 2; 10; 11; 12 |]
    (Indexer.to_array 0 ix)

let test_indexer_conversions () =
  let ix = Indexer.range 0 5 in
  check_il "to_stepper" [ 0; 1; 2; 3; 4 ] (slist (Indexer.to_stepper ix));
  check_il "to_folder" [ 0; 1; 2; 3; 4 ] (flist (Indexer.to_folder ix));
  check_il "to_collector" [ 0; 1; 2; 3; 4 ] (clist (Indexer.to_collector ix))

let test_indexer_enumerate () =
  let ix = Indexer.enumerate (Indexer.of_array [| "a"; "b" |]) in
  Alcotest.(check (pair int string)) "enum" (1, "b") (Indexer.get ix 1)

(* ------------------------------------------------------------------ *)
(* Figure 1 capability matrix, as executable checks                    *)

let test_fig1_stepper_not_random_access () =
  (* Steppers only expose the "next" element; getting element k costs a
     sequential walk of k steps. We verify the only access is ordered. *)
  let trace = ref [] in
  let st =
    Stepper.map
      (fun x ->
        trace := x :: !trace;
        x)
      (Stepper.range 0 4)
  in
  ignore (Stepper.to_list st);
  check_il "strictly in order" [ 0; 1; 2; 3 ] (List.rev !trace)

let test_fig1_fold_no_zip () =
  (* Folds fix execution order completely: there is no zip over folds in
     the API; zipping requires converting through a stepper. *)
  let f = Folder.of_list [ 1; 2; 3 ] in
  let as_stepper =
    Stepper.unfold (Folder.to_list f) (function
      | [] -> Stepper.Done
      | x :: rest -> Stepper.Yield (x, rest))
  in
  Alcotest.(check (list (pair int int)))
    "fold zips only via conversion + materialization"
    [ (1, 10); (2, 11); (3, 12) ]
    (slist (Stepper.zip as_stepper (Stepper.range 10 20)))

let test_fig1_indexer_filter_needs_nesting () =
  (* An indexer cannot encode filter's variable-length output directly:
     the hybrid representation wraps each element in a 0/1-length
     stepper instead (tested in test_seq_iter). Here: the indexer of a
     filtered structure must produce element *candidates*, one per input
     index. *)
  let input = [| 1; -2; 3 |] in
  let candidates =
    Indexer.map
      (fun x -> if x > 0 then Some x else None)
      (Indexer.of_array input)
  in
  check_int "one candidate per input" 3 (Indexer.size candidates)

let test_fig1_idx_to_coll_loses_parallelism () =
  (* idxToColl: converting an indexer to a collector yields a sequential
     side-effecting traversal (the conversion in section 3.1). *)
  let seen = ref [] in
  let coll = Indexer.to_collector (Indexer.range 0 4) in
  Collector.iter (fun x -> seen := x :: !seen) coll;
  check_il "sequential order" [ 0; 1; 2; 3 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let gen_small_list = QCheck2.Gen.(list_size (int_bound 40) (int_bound 100))

let prop_stepper_map_fusion =
  qtest "stepper: map f . map g = map (f.g)" gen_small_list (fun l ->
      let f x = x + 1 and g x = x * 2 in
      slist (Stepper.map f (Stepper.map g (Stepper.of_list l)))
      = slist (Stepper.map (fun x -> f (g x)) (Stepper.of_list l)))

let prop_stepper_filter_fusion =
  qtest "stepper: filter p . filter q = filter (p&&q)" gen_small_list
    (fun l ->
      let p x = x mod 2 = 0 and q x = x > 10 in
      slist (Stepper.filter p (Stepper.filter q (Stepper.of_list l)))
      = slist (Stepper.filter (fun x -> q x && p x) (Stepper.of_list l)))

let prop_folder_sum_matches_list =
  qtest "folder: sum = List sum" gen_small_list (fun l ->
      Folder.sum_int (Folder.of_list l) = List.fold_left ( + ) 0 l)

let prop_collector_filter_matches_list =
  qtest "collector: filter = List.filter" gen_small_list (fun l ->
      let p x = x mod 3 <> 0 in
      clist (Collector.filter p (Collector.of_list l)) = List.filter p l)

let prop_indexer_slice_concat =
  qtest "indexer: slices concatenate to whole"
    QCheck2.Gen.(pair (int_range 1 50) (int_range 1 8))
    (fun (n, k) ->
      let ix = Indexer.map (fun i -> (i * 7) mod 13) (Indexer.range 0 n) in
      let parts = Triolet_runtime.Partition.blocks ~parts:k n in
      let glued =
        Array.to_list parts
        |> List.concat_map (fun (off, len) ->
               Indexer.to_list (Indexer.slice ix off len))
      in
      glued = Indexer.to_list ix)

let prop_conversions_agree =
  qtest "stepper/folder/collector agree on contents" gen_small_list (fun l ->
      let st = Stepper.of_list l in
      slist st = flist (Folder.of_stepper (Stepper.of_list l))
      && slist (Stepper.of_list l)
         = clist (Collector.of_stepper (Stepper.of_list l)))

let prop_concat_map_matches_list =
  qtest "stepper: concat_map = List.concat_map"
    QCheck2.Gen.(list_size (int_bound 20) (int_bound 6))
    (fun l ->
      slist
        (Stepper.concat_map (fun n -> Stepper.range 0 n) (Stepper.of_list l))
      = List.concat_map (fun n -> List.init n Fun.id) l)

let () =
  Alcotest.run "encodings"
    [
      ( "shape",
        [
          Alcotest.test_case "sizes" `Quick test_shape_sizes;
          Alcotest.test_case "linearization" `Quick test_shape_linearization;
          Alcotest.test_case "mem" `Quick test_shape_mem;
          Alcotest.test_case "fold row-major" `Quick test_shape_fold_row_major;
          Alcotest.test_case "intersect" `Quick test_shape_intersect;
          Alcotest.test_case "invalid" `Quick test_shape_invalid;
        ] );
      ( "stepper",
        [
          Alcotest.test_case "sources" `Quick test_stepper_sources;
          Alcotest.test_case "map/filter" `Quick test_stepper_map_filter;
          Alcotest.test_case "zip" `Quick test_stepper_zip;
          Alcotest.test_case "zip skips" `Quick test_stepper_zip_skips;
          Alcotest.test_case "concat_map" `Quick test_stepper_concat_map;
          Alcotest.test_case "take/drop/append" `Quick
            test_stepper_take_drop_append;
          Alcotest.test_case "enumerate/fold" `Quick test_stepper_enumerate_fold;
          prop_stepper_map_fusion;
          prop_stepper_filter_fusion;
          prop_concat_map_matches_list;
        ] );
      ( "folder",
        [
          Alcotest.test_case "sources" `Quick test_folder_sources;
          Alcotest.test_case "ops" `Quick test_folder_ops;
          Alcotest.test_case "of_stepper" `Quick test_folder_of_stepper;
          prop_folder_sum_matches_list;
        ] );
      ( "collector",
        [
          Alcotest.test_case "sources" `Quick test_collector_sources;
          Alcotest.test_case "ops" `Quick test_collector_ops;
          Alcotest.test_case "mutation (histogram)" `Quick
            test_collector_mutation;
          Alcotest.test_case "weighted histogram" `Quick
            test_collector_weighted_histogram;
          Alcotest.test_case "pack variable-length" `Quick test_collector_pack;
          Alcotest.test_case "histograms into accumulators" `Quick
            test_collector_into_accumulates;
          Alcotest.test_case "scatter_add: one grid per worker" `Quick
            test_scatter_add_one_grid_per_worker;
          prop_collector_filter_matches_list;
        ] );
      ( "indexer",
        [
          Alcotest.test_case "basics" `Quick test_indexer_basics;
          Alcotest.test_case "map fuses lookup" `Quick
            test_indexer_map_fuses_lookup;
          Alcotest.test_case "zip" `Quick test_indexer_zip;
          Alcotest.test_case "slice" `Quick test_indexer_slice;
          Alcotest.test_case "random access order" `Quick
            test_indexer_random_access_parallel_order;
          Alcotest.test_case "2d" `Quick test_indexer_2d;
          Alcotest.test_case "conversions" `Quick test_indexer_conversions;
          Alcotest.test_case "enumerate" `Quick test_indexer_enumerate;
          prop_indexer_slice_concat;
          prop_conversions_agree;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "stepper is sequential" `Quick
            test_fig1_stepper_not_random_access;
          Alcotest.test_case "fold cannot zip" `Quick test_fig1_fold_no_zip;
          Alcotest.test_case "indexer filter needs nesting" `Quick
            test_fig1_indexer_filter_needs_nesting;
          Alcotest.test_case "idxToColl is sequential" `Quick
            test_fig1_idx_to_coll_loses_parallelism;
        ] );
    ]
