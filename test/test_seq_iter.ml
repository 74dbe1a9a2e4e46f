(* Tests for the hybrid iterator representation (paper, section 3.2 and
   Figure 2). Each group checks one Figure 2 function across all five
   constructors, plus the structural claims the paper makes: filter and
   concat_map on flat indexers preserve a random-access outer loop, and
   a filtered flat level allocates no inner stream per element. *)

open Triolet

let check_int = Alcotest.(check int)
let check_il = Alcotest.(check (list int))
let check_float = Alcotest.(check (float 1e-9))

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

let ilist it = Seq_iter.to_list it

(* Builders producing each of the five constructors with the same
   element contents, so every equation can be checked on every loop
   structure. *)
let idx_flat l = Seq_iter.of_array (Array.of_list l)
let step_flat l = Seq_iter.of_stepper (Stepper.of_list l)

let idx_nest l =
  (* nest: [ [x]; [x]; ... ] under a random-access outer loop *)
  Seq_iter.concat_map (fun x -> Seq_iter.singleton x) (idx_flat l)

let step_nest l =
  Seq_iter.concat_map (fun x -> Seq_iter.singleton x) (step_flat l)

let idx_opt l =
  (* guarded level: every element is followed by a dropped lookup *)
  Seq_iter.filter_map Fun.id
    (idx_flat (List.concat_map (fun x -> [ Some x; None ]) l))

let constructors = [ ("idx_flat", idx_flat); ("step_flat", step_flat);
                     ("idx_nest", idx_nest); ("step_nest", step_nest);
                     ("idx_opt", idx_opt) ]

let is_idx_outer = function
  | Seq_iter.Idx_flat _ | Seq_iter.Idx_opt _ | Seq_iter.Idx_nest _ -> true
  | Seq_iter.Step_flat _ | Seq_iter.Step_nest _ -> false

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)

let test_constructor_shapes () =
  Alcotest.(check bool) "of_array is IdxFlat" true
    (match idx_flat [ 1 ] with Seq_iter.Idx_flat _ -> true | _ -> false);
  Alcotest.(check bool) "of_stepper is StepFlat" true
    (match step_flat [ 1 ] with Seq_iter.Step_flat _ -> true | _ -> false);
  Alcotest.(check bool) "concat_map of IdxFlat is IdxNest" true
    (match idx_nest [ 1 ] with Seq_iter.Idx_nest _ -> true | _ -> false);
  Alcotest.(check bool) "concat_map of StepFlat is StepNest" true
    (match step_nest [ 1 ] with Seq_iter.Step_nest _ -> true | _ -> false);
  Alcotest.(check bool) "filter_map of IdxFlat is IdxOpt" true
    (match idx_opt [ 1 ] with Seq_iter.Idx_opt _ -> true | _ -> false);
  Alcotest.(check bool) "filter of IdxOpt stays IdxOpt" true
    (match Seq_iter.filter (fun _ -> true) (idx_opt [ 1 ]) with
    | Seq_iter.Idx_opt _ -> true
    | _ -> false)

let test_filter_keeps_outer_random_access () =
  (* The central representational claim: filtering a flat indexer yields
     an Idx_nest — irregularity is pushed into inner steppers while the
     outer loop remains partitionable. *)
  let it = Seq_iter.filter (fun x -> x > 0) (idx_flat [ 1; -2; 3 ]) in
  Alcotest.(check bool) "IdxNest" true (is_idx_outer it);
  check_int "outer length = input length" 3
    (Option.get (Seq_iter.outer_length it));
  check_il "contents" [ 1; 3 ] (ilist it)

let test_concat_map_keeps_outer_random_access () =
  let it =
    Seq_iter.concat_map (fun n -> Seq_iter.range 0 n) (idx_flat [ 2; 0; 3 ])
  in
  Alcotest.(check bool) "IdxNest" true (is_idx_outer it);
  check_int "outer length" 3 (Option.get (Seq_iter.outer_length it));
  check_il "contents" [ 0; 1; 0; 1; 2 ] (ilist it)

let test_outer_length_none_for_steppers () =
  Alcotest.(check (option int)) "step_flat" None
    (Seq_iter.outer_length (step_flat [ 1; 2 ]));
  Alcotest.(check (option int)) "step_nest" None
    (Seq_iter.outer_length (step_nest [ 1; 2 ]));
  Alcotest.(check (option int)) "idx_opt counts dropped lookups" (Some 4)
    (Seq_iter.outer_length (idx_opt [ 1; 2 ]))

let test_slice_outer () =
  let it = Seq_iter.filter (fun x -> x mod 2 = 0) (Seq_iter.range 0 10) in
  (* slicing the outer loop of the filtered iterator partitions the
     *inputs*, not the outputs: slice [0,5) sees inputs 0..4. *)
  check_il "first half inputs" [ 0; 2; 4 ] (ilist (Seq_iter.slice_outer it 0 5));
  check_il "second half inputs" [ 6; 8 ] (ilist (Seq_iter.slice_outer it 5 5));
  Alcotest.check_raises "stepper cannot slice"
    (Invalid_argument "Seq_iter.slice_outer: outer loop is not random-access")
    (fun () -> ignore (Seq_iter.slice_outer (step_flat [ 1 ]) 0 1))

(* ------------------------------------------------------------------ *)
(* Figure 2 equations: semantics across all constructors               *)

let test_map_all_constructors () =
  List.iter
    (fun (name, mk) ->
      check_il name [ 2; 4; 6 ] (ilist (Seq_iter.map (( * ) 2) (mk [ 1; 2; 3 ]))))
    constructors

let test_filter_all_constructors () =
  List.iter
    (fun (name, mk) ->
      check_il name [ 2; 4 ]
        (ilist (Seq_iter.filter (fun x -> x mod 2 = 0) (mk [ 1; 2; 3; 4 ]))))
    constructors

let test_concat_map_all_constructors () =
  List.iter
    (fun (name, mk) ->
      check_il name [ 0; 0; 1; 0; 1; 2 ]
        (ilist (Seq_iter.concat_map (fun n -> Seq_iter.range 0 n) (mk [ 1; 2; 3 ]))))
    constructors

let test_zip_all_pairs () =
  List.iter
    (fun (na, mka) ->
      List.iter
        (fun (nb, mkb) ->
          Alcotest.(check (list (pair int int)))
            (na ^ "/" ^ nb)
            [ (1, 7); (2, 8) ]
            (Seq_iter.to_list (Seq_iter.zip (mka [ 1; 2 ]) (mkb [ 7; 8; 9 ]))))
        constructors)
    constructors

let test_zip_idx_idx_stays_indexed () =
  (* zip (IdxFlat, IdxFlat) = IdxFlat (zipIdx ...): parallelism survives. *)
  match Seq_iter.zip (idx_flat [ 1 ]) (idx_flat [ 2 ]) with
  | Seq_iter.Idx_flat _ -> ()
  | _ -> Alcotest.fail "zip of two flat indexers must stay a flat indexer"

let test_collect_all_constructors () =
  List.iter
    (fun (name, mk) ->
      check_il name [ 5; 6 ] (Collector.to_list (Seq_iter.collect (mk [ 5; 6 ]))))
    constructors

let test_sum_fold_all_constructors () =
  List.iter
    (fun (name, mk) ->
      check_int name 6 (Seq_iter.sum_int (mk [ 1; 2; 3 ]));
      check_int (name ^ " fold") 6
        (Seq_iter.fold (fun a x -> a + x) 0 (mk [ 1; 2; 3 ])))
    constructors

let test_to_stepper_all_constructors () =
  List.iter
    (fun (name, mk) ->
      check_il name [ 9; 8; 7 ] (Stepper.to_list (Seq_iter.to_stepper (mk [ 9; 8; 7 ]))))
    constructors

(* A filtered flat level is one counted loop with a branch: consuming
   it allocates at most the [Some] of each kept element (2 words) and
   nothing for a dropped one; the slack covers per-traversal closures. *)
let test_filter_allocation () =
  let n = 100_000 in
  let sink = ref 0 in
  let consumers =
    [
      ("sum_int", fun it -> sink := Seq_iter.sum_int it);
      ("iter", fun it -> Seq_iter.iter (fun x -> sink := !sink + x) it);
      ("fold", fun it -> sink := Seq_iter.fold (fun a x -> a + x) 0 it);
    ]
  in
  let pipelines =
    [
      ("filter", fun p -> Seq_iter.filter p (Seq_iter.range 0 n));
      ( "filter_map",
        fun p ->
          Seq_iter.filter_map
            (fun x -> if p x then Some x else None)
            (Seq_iter.range 0 n) );
    ]
  in
  List.iter
    (fun (pname, pipe) ->
      List.iter
        (fun (cname, consume) ->
          List.iter
            (fun (kept, p) ->
              let it = pipe p in
              let before = Gc.minor_words () in
              consume it;
              let words = Gc.minor_words () -. before in
              let bound = float_of_int ((2 * kept) + 200) in
              if words > bound then
                Alcotest.failf "%s/%s keeping %d of %d: %.0f minor words > %.0f"
                  pname cname kept n words bound)
            [ (n / 2, fun x -> x land 1 = 0); (0, fun _ -> false) ])
        consumers)
    pipelines

(* ------------------------------------------------------------------ *)
(* The paper's worked example: sum of filter                           *)

let test_sum_of_filter_example () =
  (* Section 3.2: xs = [1; -2; -4; 1; 3; 4], filter (> 0), sum = 9. *)
  let xs = idx_flat [ 1; -2; -4; 1; 3; 4 ] in
  let filtered = Seq_iter.filter (fun x -> x > 0) xs in
  Alcotest.(check bool) "indexer of steppers" true (is_idx_outer filtered);
  check_int "sum" 9 (Seq_iter.sum_int filtered);
  (* Partition the *inputs* across two tasks, as in the paper: the
     nested list [[1];[];[];[1];[3];[4]] splits into halves summing to
     1 and 8. *)
  check_int "first half" 1 (Seq_iter.sum_int (Seq_iter.slice_outer filtered 0 3));
  check_int "second half" 8 (Seq_iter.sum_int (Seq_iter.slice_outer filtered 3 3))

let test_fusion_no_materialization () =
  (* Pipelines run in one pass: a counting source proves each element is
     produced exactly once even through filter + map + concat_map. *)
  let produced = ref 0 in
  let src =
    Seq_iter.of_indexer
      (Indexer.init (Shape.seq 100) (fun i -> incr produced; i))
  in
  let result =
    src
    |> Seq_iter.filter (fun x -> x mod 2 = 0)
    |> Seq_iter.map (fun x -> x / 2)
    |> Seq_iter.concat_map (fun x -> if x mod 5 = 0 then Seq_iter.singleton x else Seq_iter.empty)
    |> Seq_iter.sum_int
  in
  check_int "result" (0 + 5 + 10 + 15 + 20 + 25 + 30 + 35 + 40 + 45) result;
  check_int "each input touched once" 100 !produced

let test_deep_nesting () =
  (* Three levels of concat_map: the inner loops compose. *)
  let it =
    Seq_iter.range 1 4
    |> Seq_iter.concat_map (fun a -> Seq_iter.range 0 a)
    |> Seq_iter.concat_map (fun b -> Seq_iter.range 0 b)
  in
  (* range 1 4 -> [0],[0;1],[0;1;2] -> inner ranges of each *)
  check_il "contents" [ 0; 0; 0; 1 ] (ilist it);
  check_int "length" 4 (Seq_iter.length it)

let test_empty_cases () =
  check_il "empty" [] (ilist Seq_iter.empty);
  check_il "filter all out" []
    (ilist (Seq_iter.filter (fun _ -> false) (Seq_iter.range 0 10)));
  check_il "concat_map to empties" []
    (ilist (Seq_iter.concat_map (fun _ -> Seq_iter.empty) (Seq_iter.range 0 5)));
  check_int "sum of empty" 0 (Seq_iter.sum_int Seq_iter.empty);
  Alcotest.(check (option int)) "reduce empty" None
    (Seq_iter.reduce ( + ) (Seq_iter.empty : int Seq_iter.t))

let test_reduce_and_to_array () =
  Alcotest.(check (option int)) "reduce" (Some 10)
    (Seq_iter.reduce ( + ) (Seq_iter.range 0 5));
  Alcotest.(check (array int)) "to_array" [| 0; 1; 2 |]
    (Seq_iter.to_array (-1) (Seq_iter.range 0 3));
  let fa = Seq_iter.to_floatarray (Seq_iter.map float_of_int (Seq_iter.range 0 4)) in
  check_float "to_floatarray" 3.0 (Float.Array.get fa 3)

(* ------------------------------------------------------------------ *)
(* Properties: Figure 2 equations against list semantics               *)

let gen_ops =
  (* A random pipeline: encode operations as ints and apply them both to
     a Seq_iter and to a plain list; results must agree. *)
  QCheck2.Gen.(pair (list_size (int_bound 30) (int_range (-20) 20))
                 (list_size (int_bound 6) (int_bound 3)))

let apply_op_list op l =
  match op with
  | 0 -> List.filter (fun x -> x mod 2 = 0) l
  | 1 -> List.map (fun x -> x + 3) l
  | 2 -> List.concat_map (fun x -> List.init (abs x mod 3) (fun k -> x + k)) l
  | _ -> List.filter (fun x -> x > 0) l

let apply_op_iter op it =
  match op with
  | 0 -> Seq_iter.filter (fun x -> x mod 2 = 0) it
  | 1 -> Seq_iter.map (fun x -> x + 3) it
  | 2 ->
      Seq_iter.concat_map
        (fun x ->
          Seq_iter.of_indexer
            (Indexer.init (Shape.seq (abs x mod 3)) (fun k -> x + k)))
        it
  | _ -> Seq_iter.filter (fun x -> x > 0) it

let prop_pipeline_matches_list =
  qtest "random pipelines match list semantics" gen_ops (fun (l, ops) ->
      let it = List.fold_left (fun it op -> apply_op_iter op it) (idx_flat l) ops in
      let ll = List.fold_left (fun l op -> apply_op_list op l) l ops in
      ilist it = ll)

let prop_pipeline_outer_sliceable =
  qtest "pipelines over indexers stay outer-sliceable" gen_ops
    (fun (l, ops) ->
      let it = List.fold_left (fun it op -> apply_op_iter op it) (idx_flat l) ops in
      match Seq_iter.outer_length it with
      | None -> false (* must remain random-access outer *)
      | Some n ->
          n = List.length l
          &&
          let mid = n / 2 in
          ilist (Seq_iter.slice_outer it 0 mid)
          @ ilist (Seq_iter.slice_outer it mid (n - mid))
          = ilist it)

let prop_zip_matches_combine =
  qtest "zip = List.combine (truncated)"
    QCheck2.Gen.(pair (list_size (int_bound 20) int) (list_size (int_bound 20) int))
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      let trunc l = List.filteri (fun i _ -> i < n) l in
      Seq_iter.to_list (Seq_iter.zip (idx_flat a) (step_flat b))
      = List.combine (trunc a) (trunc b))

let prop_sum_float_assoc =
  qtest "sum over slices = total sum"
    QCheck2.Gen.(pair (list_size (int_bound 40) (int_range 0 1000)) (int_range 1 6))
    (fun (l, k) ->
      let n = List.length l in
      if n = 0 then true
      else begin
        let it = idx_flat l in
        let parts = Triolet_runtime.Partition.blocks ~parts:k n in
        let total =
          Array.fold_left
            (fun acc (off, len) ->
              acc + Seq_iter.sum_int (Seq_iter.slice_outer it off len))
            0 parts
        in
        total = Seq_iter.sum_int it
      end)

let () =
  Alcotest.run "seq_iter"
    [
      ( "structure",
        [
          Alcotest.test_case "constructor shapes" `Quick test_constructor_shapes;
          Alcotest.test_case "filter keeps outer indexer" `Quick
            test_filter_keeps_outer_random_access;
          Alcotest.test_case "concat_map keeps outer indexer" `Quick
            test_concat_map_keeps_outer_random_access;
          Alcotest.test_case "steppers have no outer length" `Quick
            test_outer_length_none_for_steppers;
          Alcotest.test_case "slice_outer" `Quick test_slice_outer;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "map" `Quick test_map_all_constructors;
          Alcotest.test_case "filter" `Quick test_filter_all_constructors;
          Alcotest.test_case "concat_map" `Quick test_concat_map_all_constructors;
          Alcotest.test_case "zip (all 25 pairs)" `Quick test_zip_all_pairs;
          Alcotest.test_case "zip idx/idx stays indexed" `Quick
            test_zip_idx_idx_stays_indexed;
          Alcotest.test_case "collect" `Quick test_collect_all_constructors;
          Alcotest.test_case "sum/fold" `Quick test_sum_fold_all_constructors;
          Alcotest.test_case "to_stepper" `Quick test_to_stepper_all_constructors;
        ] );
      ( "describe",
        [
          Alcotest.test_case "structures" `Quick (fun () ->
              Alcotest.(check string) "flat" "IdxFlat[3]"
                (Seq_iter.describe (idx_flat [ 1; 2; 3 ]));
              Alcotest.(check string) "step" "StepFlat"
                (Seq_iter.describe (step_flat [ 1 ]));
              Alcotest.(check string) "filter nest" "IdxNest[4](StepFlat)"
                (Seq_iter.describe
                   (Seq_iter.filter (fun x -> x > 0) (idx_flat [ 1; -2; 3; 4 ])));
              Alcotest.(check string) "double nest" "IdxNest[2](IdxNest[2](StepFlat))"
                (Seq_iter.describe
                   (Seq_iter.filter
                      (fun x -> x > 0)
                      (Seq_iter.concat_map
                         (fun x -> idx_flat [ x; x ])
                         (idx_flat [ 1; 2 ]))));
              Alcotest.(check string) "empty nest" "IdxNest[0](empty)"
                (Seq_iter.describe
                   (Seq_iter.concat_map Seq_iter.singleton (idx_flat []))));
        ] );
      ( "examples",
        [
          Alcotest.test_case "sum-of-filter (paper 3.2)" `Quick
            test_sum_of_filter_example;
          Alcotest.test_case "fusion: single pass" `Quick
            test_fusion_no_materialization;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "empty cases" `Quick test_empty_cases;
          Alcotest.test_case "filter allocates per kept element only" `Quick
            test_filter_allocation;
          Alcotest.test_case "reduce / to_array" `Quick test_reduce_and_to_array;
        ] );
      ( "properties",
        [
          prop_pipeline_matches_list;
          prop_pipeline_outer_sliceable;
          prop_zip_matches_combine;
          prop_sum_float_assoc;
        ] );
    ]
