(* Tests for matrices and 2-D iterators: rows/outer_product block
   decomposition (the paper's two-line sgemm), to_matrix on all
   execution paths, and transposition. *)

open Triolet
module Cluster = Triolet_runtime.Cluster
module Stats = Triolet_runtime.Stats

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

let () = Triolet_runtime.Pool.set_default_width 2

let () =
  Exec.set_ambient (Exec.make ~nodes:(4) ~cores_per_node:(2) ())

let mk rows cols f = Matrix.init rows cols f

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)

let test_matrix_get_set () =
  let m = Matrix.create 2 3 in
  Matrix.set m 1 2 5.0;
  check_float "set/get" 5.0 (Matrix.get m 1 2);
  check_float "zero init" 0.0 (Matrix.get m 0 0);
  Alcotest.check_raises "oob" (Invalid_argument "Matrix.get") (fun () ->
      ignore (Matrix.get m 2 0))

let test_matrix_row_views () =
  let m = mk 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  let r = Matrix.row m 1 in
  check_int "len" 4 (Matrix.view_len r);
  check_float "elem" 12.0 (Matrix.view_get r 2);
  Alcotest.check_raises "view oob" (Invalid_argument "Matrix.view_get")
    (fun () -> ignore (Matrix.view_get r 4))

let test_matrix_view_dot () =
  let m = mk 2 3 (fun i j -> float_of_int (i + j + 1)) in
  (* row0 = [1;2;3], row1 = [2;3;4] -> dot = 2+6+12 = 20 *)
  check_float "dot" 20.0 (Matrix.view_dot (Matrix.row m 0) (Matrix.row m 1))

let test_matrix_copy_rows_blit () =
  let m = mk 4 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let sub = Matrix.copy_rows m 1 2 in
  check_int "rows" 2 (Matrix.rows sub);
  check_float "content" (Matrix.get m 2 1) (Matrix.get sub 1 1);
  let dst = Matrix.create 4 4 in
  Matrix.blit_block ~src:sub ~dst ~r0:1 ~c0:1;
  check_float "blitted" (Matrix.get m 1 0) (Matrix.get dst 1 1);
  check_float "outside untouched" 0.0 (Matrix.get dst 0 0)

let test_matrix_transpose () =
  let m = mk 3 5 (fun i j -> float_of_int ((i * 5) + j)) in
  let t = Matrix.transpose m in
  check_int "rows" 5 (Matrix.rows t);
  check_int "cols" 3 (Matrix.cols t);
  for i = 0 to 2 do
    for j = 0 to 4 do
      check_float "transposed" (Matrix.get m i j) (Matrix.get t j i)
    done
  done

let test_matrix_transpose_par_matches () =
  let rng = Triolet_base.Rng.create 5 in
  let m = Matrix.random rng 17 23 (-1.0) 1.0 in
  let p = Triolet_runtime.Pool.default () in
  Alcotest.(check bool) "par = seq" true
    (Matrix.equal_eps ~eps:0.0 (Matrix.transpose m) (Matrix.transpose_par p m))

let test_matrix_mul_ref () =
  (* 2x2: A = [1 2; 3 4], B = [5 6; 7 8], AB = [19 22; 43 50].
     mul_ref takes B^T. *)
  let a = mk 2 2 (fun i j -> float_of_int ((i * 2) + j + 1)) in
  let b = mk 2 2 (fun i j -> float_of_int ((i * 2) + j + 5)) in
  let c = Matrix.mul_ref ~alpha:1.0 a (Matrix.transpose b) in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

(* ------------------------------------------------------------------ *)
(* 2-D iterators                                                       *)

let with_hint2 h it =
  match h with
  | Iter.Sequential -> Iter.sequential it
  | Iter.Local -> Iter.localpar it
  | Iter.Distributed -> Iter.par it

let each_hint2 f =
  List.iter
    (fun (name, h) -> f name h)
    [ ("seq", Iter.Sequential); ("localpar", Iter.Local);
      ("par", Iter.Distributed) ]

let test_build_of_matrix_identity () =
  let m = mk 5 7 (fun i j -> float_of_int ((i * 7) + j)) in
  each_hint2 (fun name h ->
      let rebuilt = Iter.to_matrix (with_hint2 h (Iter.of_matrix m)) in
      Alcotest.(check bool) (name ^ " identity") true
        (Matrix.equal_eps ~eps:0.0 m rebuilt))

let test_transpose_iter () =
  let m = mk 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  let t = Iter.to_matrix (Iter.localpar (Iter.transpose m)) in
  Alcotest.(check bool) "matches Matrix.transpose" true
    (Matrix.equal_eps ~eps:0.0 (Matrix.transpose m) t)

(* The paper's two-line sgemm. *)
let sgemm_triolet ?(alpha = 1.0) hint a b =
  let bt = Matrix.transpose b in
  let zipped = Iter.outer_product (Iter.rows a) (Iter.rows bt) in
  Iter.to_matrix (hint (Iter.map (fun (u, v) -> alpha *. Matrix.view_dot u v) zipped))

let test_sgemm_two_lines_all_hints () =
  let rng = Triolet_base.Rng.create 42 in
  let a = Matrix.random rng 13 9 (-1.0) 1.0 in
  let b = Matrix.random rng 9 11 (-1.0) 1.0 in
  let reference = Matrix.mul_ref ~alpha:1.0 a (Matrix.transpose b) in
  each_hint2 (fun name h ->
      let c = sgemm_triolet (with_hint2 h) a b in
      Alcotest.(check bool) (name ^ " matches reference") true
        (Matrix.equal_eps ~eps:1e-9 reference c))

let test_sgemm_alpha () =
  let rng = Triolet_base.Rng.create 1 in
  let a = Matrix.random rng 4 4 0.0 1.0 in
  let b = Matrix.random rng 4 4 0.0 1.0 in
  let c1 = sgemm_triolet ~alpha:1.0 Iter.sequential a b in
  let c2 = sgemm_triolet ~alpha:2.5 Iter.par a b in
  let scaled = Matrix.init 4 4 (fun i j -> 2.5 *. Matrix.get c1 i j) in
  Alcotest.(check bool) "alpha scales" true (Matrix.equal_eps ~eps:1e-9 scaled c2)

let test_sgemm_nonsquare_distributed () =
  (* Uneven dimensions across a 4-node (2x2 block) cluster. *)
  let rng = Triolet_base.Rng.create 9 in
  let a = Matrix.random rng 7 5 (-2.0) 2.0 in
  let b = Matrix.random rng 5 3 (-2.0) 2.0 in
  let reference = Matrix.mul_ref ~alpha:1.0 a (Matrix.transpose b) in
  let c = sgemm_triolet Iter.par a b in
  Alcotest.(check bool) "distributed nonsquare" true
    (Matrix.equal_eps ~eps:1e-9 reference c)

let test_outer_product_block_payload_is_rows_only () =
  (* A 2D block decomposition of outer_product(rows A, rows BT) must
     ship, per node, one row band of A and one of BT — not the whole
     matrices. With a 2x2 grid over an n x n product, each input row
     band is shared by the two blocks in its grid row/column, so the
     scatter volume is 2 copies of A + 2 copies of BT = 4 matrices
     worth, plus 1 output matrix gathered. The naive whole-input scheme
     (both matrices to all 4 nodes) would scatter 8 matrices worth. *)
  let n = 32 in
  let rng = Triolet_base.Rng.create 3 in
  let a = Matrix.random rng n n 0.0 1.0 in
  let b = Matrix.random rng n n 0.0 1.0 in
  Stats.reset ();
  let _, delta = Stats.measure (fun () -> sgemm_triolet Iter.par a b) in
  let matrix_bytes = 8 * n * n in
  Alcotest.(check bool) "sliced traffic" true
    (delta.Stats.bytes_sent < (6 * matrix_bytes) + 2048);
  Alcotest.(check bool) "at least the slices" true
    (delta.Stats.bytes_sent >= 5 * matrix_bytes)

let test_rows_iterator () =
  let m = mk 4 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let rws = Iter.rows m in
  check_int "len" 4 (Iter.length rws);
  let sums = Iter.to_list (Iter.map (fun v ->
      let s = ref 0.0 in
      for k = 0 to Matrix.view_len v - 1 do s := !s +. Matrix.view_get v k done;
      !s) rws)
  in
  Alcotest.(check (list (float 0.0))) "row sums" [ 3.0; 12.0; 21.0; 30.0 ] sums

let test_rows_distributed_sum () =
  let m = mk 50 8 (fun i j -> float_of_int (i + j)) in
  let expected = ref 0.0 in
  for i = 0 to 49 do
    for j = 0 to 7 do
      expected := !expected +. float_of_int (i + j)
    done
  done;
  let s =
    Iter.sum
      (Iter.map
         (fun v ->
           let s = ref 0.0 in
           for k = 0 to Matrix.view_len v - 1 do
             s := !s +. Matrix.view_get v k
           done;
           !s)
         (Iter.par (Iter.rows m)))
  in
  Alcotest.(check (float 1e-6)) "distributed row sum" !expected s

let test_iter2_map_composition () =
  let m = mk 3 3 (fun i j -> float_of_int (i * j)) in
  let doubled =
    Iter.to_matrix (Iter.map (fun x -> 2.0 *. x) (Iter.of_matrix m))
  in
  check_float "composed" (2.0 *. Matrix.get m 2 2) (Matrix.get doubled 2 2)

let test_iter2_sum_all_hints () =
  let m = mk 9 7 (fun i j -> float_of_int ((i * 7) + j)) in
  let expected = float_of_int (63 * 62 / 2) in
  each_hint2 (fun name h ->
      Alcotest.(check (float 1e-9)) ("sum " ^ name) expected
        (Iter.sum (with_hint2 h (Iter.of_matrix m))))

let test_iter2_sum_distributed_outer_product () =
  (* Frobenius-like sum over outer_product: sum of all pairwise row
     dots = sum_i sum_j <r_i, r_j> = |sum_i r_i|^2 elementwise. *)
  let m = mk 6 4 (fun i j -> float_of_int (i + j)) in
  let zipped = Iter.outer_product (Iter.rows m) (Iter.rows m) in
  let total =
    Iter.sum (Iter.par (Iter.map (fun (u, v) -> Matrix.view_dot u v) zipped))
  in
  let colsum = Array.init 4 (fun j ->
      let s = ref 0.0 in
      for i = 0 to 5 do s := !s +. Matrix.get m i j done;
      !s)
  in
  let expected = Array.fold_left (fun a c -> a +. (c *. c)) 0.0 colsum in
  Alcotest.(check (float 1e-6)) "pairwise dots" expected total

let test_iter2_map2 () =
  let a = mk 3 3 (fun i j -> float_of_int (i + j)) in
  let b = mk 3 3 (fun i j -> float_of_int (i * j)) in
  let s =
    Iter.to_matrix (Iter.zip_with ( +. ) (Iter.of_matrix a) (Iter.of_matrix b))
  in
  check_float "combined" (Matrix.get a 2 1 +. Matrix.get b 2 1) (Matrix.get s 2 1);
  (* intersection of extents *)
  let small = mk 2 5 (fun _ _ -> 1.0) in
  let c = Iter.zip_with ( +. ) (Iter.of_matrix a) (Iter.of_matrix small) in
  let (Shape.Dim2 (rows, cols)) = Iter.shape c in
  check_int "rows" 2 rows;
  check_int "cols" 3 cols

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let gen_dims = QCheck2.Gen.(triple (int_range 1 12) (int_range 1 12) (int_range 1 12))

let prop_sgemm_hint_invariance =
  qtest "sgemm result independent of hint" gen_dims (fun (m, k, n) ->
      let rng = Triolet_base.Rng.create (m + (100 * k) + (10000 * n)) in
      let a = Matrix.random rng m k (-1.0) 1.0 in
      let b = Matrix.random rng k n (-1.0) 1.0 in
      let s = sgemm_triolet Iter.sequential a b in
      let l = sgemm_triolet Iter.localpar a b in
      let d = sgemm_triolet Iter.par a b in
      Matrix.equal_eps ~eps:1e-9 s l && Matrix.equal_eps ~eps:1e-9 s d)

let prop_transpose_involution =
  qtest "transpose . transpose = id"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 20))
    (fun (r, c) ->
      let rng = Triolet_base.Rng.create (r + (31 * c)) in
      let m = Matrix.random rng r c (-5.0) 5.0 in
      Matrix.equal_eps ~eps:0.0 m (Matrix.transpose (Matrix.transpose m)))

let prop_rows_ship_roundtrip =
  qtest "rows payload rebuild preserves content"
    QCheck2.Gen.(pair (int_range 1 15) (int_range 1 10))
    (fun (r, c) ->
      let rng = Triolet_base.Rng.create (r * c) in
      let m = Matrix.random rng r c 0.0 1.0 in
      let s1 =
        Iter.sum
          (Iter.map (fun v -> Matrix.view_dot v v) (Iter.par (Iter.rows m)))
      in
      let s2 =
        Iter.sum
          (Iter.map (fun v -> Matrix.view_dot v v) (Iter.rows m))
      in
      Float.abs (s1 -. s2) <= 1e-9 *. (1.0 +. Float.abs s2))

let () =
  Alcotest.run "iter2"
    [
      ( "matrix",
        [
          Alcotest.test_case "get/set" `Quick test_matrix_get_set;
          Alcotest.test_case "row views" `Quick test_matrix_row_views;
          Alcotest.test_case "view dot" `Quick test_matrix_view_dot;
          Alcotest.test_case "copy_rows/blit" `Quick test_matrix_copy_rows_blit;
          Alcotest.test_case "transpose" `Quick test_matrix_transpose;
          Alcotest.test_case "transpose par" `Quick
            test_matrix_transpose_par_matches;
          Alcotest.test_case "mul_ref" `Quick test_matrix_mul_ref;
          prop_transpose_involution;
        ] );
      ( "iter2",
        [
          Alcotest.test_case "build identity" `Quick test_build_of_matrix_identity;
          Alcotest.test_case "transpose iter" `Quick test_transpose_iter;
          Alcotest.test_case "map composition" `Quick test_iter2_map_composition;
        ] );
      ( "sgemm",
        [
          Alcotest.test_case "two-line sgemm all hints" `Quick
            test_sgemm_two_lines_all_hints;
          Alcotest.test_case "alpha" `Quick test_sgemm_alpha;
          Alcotest.test_case "nonsquare distributed" `Quick
            test_sgemm_nonsquare_distributed;
          Alcotest.test_case "block payload = row slices" `Quick
            test_outer_product_block_payload_is_rows_only;
          prop_sgemm_hint_invariance;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "sum all hints" `Quick test_iter2_sum_all_hints;
          Alcotest.test_case "sum of outer product" `Quick
            test_iter2_sum_distributed_outer_product;
          Alcotest.test_case "map2" `Quick test_iter2_map2;
        ] );
      ( "rows",
        [
          Alcotest.test_case "rows iterator" `Quick test_rows_iterator;
          Alcotest.test_case "distributed row sum" `Quick
            test_rows_distributed_sum;
          prop_rows_ship_roundtrip;
        ] );
    ]
