(* Tests for the static plan analyzer and the bounded protocol model
   checker: the coverage oracle (including a mutation check against an
   off-by-one grid), the qcheck tiling properties for Partition, plan
   reification over the real kernels, each verification pass, the
   unsafe-access ratchet, and the model checker on clean and
   deliberately broken protocol models. *)

open Triolet_analysis
module Partition = Triolet_runtime.Partition
module D = Triolet_kernels.Dataset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Coverage oracle                                                     *)

let test_coverage_clean () =
  List.iter
    (fun (parts, n) ->
      check_bool
        (Printf.sprintf "blocks %d/%d" parts n)
        true
        (Coverage.covers_exactly_once ~n (Partition.blocks ~parts n)))
    [ (1, 0); (4, 0); (4, 1); (4, 3); (4, 13); (7, 100); (16, 17) ]

let test_coverage_gap () =
  match Coverage.check_blocks ~n:10 [| (0, 4); (6, 4) |] with
  | [ Coverage.Gap _ ] -> ()
  | vs ->
      Alcotest.failf "expected one gap, got: %s"
        (String.concat "; " (List.map Coverage.violation_to_string vs))

let test_coverage_overlap_names_blocks () =
  match Coverage.check_blocks ~n:10 [| (0, 5); (4, 6) |] with
  | [ Coverage.Overlap { block_a = 0; block_b = 1; _ } ] -> ()
  | vs ->
      Alcotest.failf "expected overlap of #0/#1, got: %s"
        (String.concat "; " (List.map Coverage.violation_to_string vs))

let test_coverage_empty_and_oob () =
  let vs = Coverage.check_blocks ~n:5 [| (0, 0); (0, 6) |] in
  check_bool "empty reported" true
    (List.exists
       (function Coverage.Empty_block { block = 0; _ } -> true | _ -> false)
       vs);
  check_bool "oob reported" true
    (List.exists
       (function
         | Coverage.Out_of_bounds { block = 1; _ } -> true | _ -> false)
       vs)

(* Mutation check: an off-by-one copy of Partition.grid — every row
   band after the first starts one row early — must be caught with the
   exact offending blocks named.  The clean grid passes the same
   oracle, so this is the coverage pass's discriminating power. *)
let buggy_grid ~row_parts ~col_parts ~rows ~cols =
  let row_blocks = Partition.blocks ~parts:row_parts rows in
  let col_blocks = Partition.blocks ~parts:col_parts cols in
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun i (r0, nr) ->
            let r0, nr = if i > 0 then (r0 - 1, nr + 1) else (r0, nr) in
            Array.map (fun (c0, nc) -> (r0, nr, c0, nc)) col_blocks)
          row_blocks))

let test_mutated_grid_caught () =
  let rows = 7 and cols = 5 in
  let clean =
    Partition.grid ~row_parts:3 ~col_parts:2 ~rows ~cols
  in
  check_bool "clean grid passes" true
    (Coverage.grid_covers_exactly_once ~rows ~cols clean);
  let vs =
    Coverage.check_grid ~rows ~cols
      (buggy_grid ~row_parts:3 ~col_parts:2 ~rows ~cols)
  in
  check_bool "mutant caught" true (vs <> []);
  (* Row band 1 (blocks 2 and 3 in row-major block order) now overlaps
     band 0 (blocks 0 and 1): the witnesses must name those blocks. *)
  check_bool "overlap names blocks 0 and 2" true
    (List.exists
       (function
         | Coverage.Overlap { block_a = 0; block_b = 2; _ } -> true
         | _ -> false)
       vs);
  check_bool "overlap names blocks 1 and 3" true
    (List.exists
       (function
         | Coverage.Overlap { block_a = 1; block_b = 3; _ } -> true
         | _ -> false)
       vs)

(* ------------------------------------------------------------------ *)
(* qcheck tiling properties, expressed through the shared oracle       *)

let adversarial_n =
  (* skews toward the nasty cases: n < parts, n = 0, primes *)
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.int_range 0 7;
      QCheck2.Gen.oneofl [ 0; 1; 2; 3; 5; 7; 11; 13; 17; 19; 23; 97; 101 ];
      QCheck2.Gen.int_range 0 300;
    ]

let prop_blocks_cover =
  qtest "blocks tile [0, n) exactly once"
    QCheck2.Gen.(pair adversarial_n (int_range 1 17))
    (fun (n, parts) ->
      Coverage.covers_exactly_once ~n (Partition.blocks ~parts n))

let prop_grid_covers =
  qtest "grid tiles rows x cols exactly once"
    QCheck2.Gen.(
      tup4 (int_range 0 40) (int_range 0 40) (int_range 1 7) (int_range 1 7))
    (fun (rows, cols, rp, cp) ->
      Coverage.grid_covers_exactly_once ~rows ~cols
        (Partition.grid ~row_parts:rp ~col_parts:cp ~rows ~cols))

let prop_owner_agrees =
  qtest "owner agrees with blocks"
    QCheck2.Gen.(pair adversarial_n (int_range 1 17))
    (fun (n, parts) ->
      let blocks = Partition.blocks ~parts n in
      let ok = ref true in
      for i = 0 to n - 1 do
        let b = Partition.owner ~parts n i in
        let off, len = blocks.(b) in
        if not (off <= i && i < off + len) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Partition degenerate inputs                                         *)

let test_grid_degenerate () =
  check_int "rows = 0" 0
    (Array.length (Partition.grid ~row_parts:3 ~col_parts:2 ~rows:0 ~cols:5));
  check_int "cols = 0" 0
    (Array.length (Partition.grid ~row_parts:3 ~col_parts:2 ~rows:5 ~cols:0));
  (* more parts than cells: capped, never empty or overlapping *)
  let g = Partition.grid ~row_parts:5 ~col_parts:4 ~rows:2 ~cols:3 in
  check_int "capped at cells" 6 (Array.length g);
  check_bool "still tiles" true
    (Coverage.grid_covers_exactly_once ~rows:2 ~cols:3 g)

let test_grid_invalid () =
  Alcotest.check_raises "zero parts"
    (Invalid_argument "Partition.grid: parts must be positive") (fun () ->
      ignore (Partition.grid ~row_parts:0 ~col_parts:2 ~rows:4 ~cols:4));
  Alcotest.check_raises "negative extent"
    (Invalid_argument "Partition.grid: negative extent") (fun () ->
      ignore (Partition.grid ~row_parts:2 ~col_parts:2 ~rows:(-1) ~cols:4))

let test_square_factors () =
  for p = 1 to 64 do
    let r, c = Partition.square_factors p in
    check_int (Printf.sprintf "factors of %d" p) p (r * c);
    check_bool "near-square order" true (r <= c)
  done

(* ------------------------------------------------------------------ *)
(* Plan reification over the real kernels                              *)

(* Plans at a two-level geometry: in-process nodes, whatever backend
   the environment selects. *)
let two_level ~nodes =
  Triolet.Exec.make ~nodes ~cores_per_node:2
    ~backend:Triolet_runtime.Cluster.Inprocess ()

let with_cluster f = Triolet.Exec.with_context (two_level ~nodes:4) f

let kernel_plans () =
  [
    Plan.of_iter ~name:"mri-q"
      (Triolet_kernels.Mriq.pipeline (D.mriq ~seed:11 ~samples:16 ~voxels:40));
    (let a, b = D.sgemm_matrices ~seed:21 ~m:9 ~k:6 ~n:7 in
     Plan.of_iter ~name:"sgemm" (Triolet_kernels.Sgemm.pipeline a b));
    (let d = D.tpacf ~seed:31 ~points:16 ~random_sets:3 in
     Plan.of_iter ~name:"tpacf-dd" (Triolet_kernels.Tpacf.dd_pipeline ~bins:8 d));
    (let d = D.tpacf ~seed:31 ~points:16 ~random_sets:3 in
     Plan.of_iter ~name:"tpacf-dr" (Triolet_kernels.Tpacf.dr_pipeline ~bins:8 d));
    (let d = D.tpacf ~seed:31 ~points:16 ~random_sets:3 in
     Plan.of_iter ~name:"tpacf-rr" (Triolet_kernels.Tpacf.rr_pipeline ~bins:8 d));
    Plan.of_iter ~name:"cutcp"
      (Triolet_kernels.Cutcp.pipeline
         (D.cutcp ~seed:41 ~atoms:16 ~nx:6 ~ny:6 ~nz:6 ~spacing:0.5
            ~cutoff:1.5));
  ]

let test_kernel_plans_clean () =
  with_cluster (fun () ->
      let findings = Passes.run_all (kernel_plans ()) in
      List.iter
        (fun f ->
          if f.Passes.severity <> Passes.Info then
            Alcotest.failf "unexpected finding: %s" (Passes.to_string f))
        findings;
      check_bool "no errors" false (Passes.has_errors findings))

let test_plan_shapes () =
  with_cluster (fun () ->
      let shape name =
        let p = List.find (fun p -> p.Plan.name = name) (kernel_plans ()) in
        p.Plan.shape
      in
      (match shape "mri-q" with
      | Some (Triolet.Seq_iter.Shape_idx_flat _) -> ()
      | s ->
          Alcotest.failf "mri-q: expected IdxFlat, got %s"
            (match s with
            | Some s -> Triolet.Seq_iter.shape_to_string s
            | None -> "none"));
      match shape "tpacf-dd" with
      | Some (Triolet.Seq_iter.Shape_idx_nest _) -> ()
      | s ->
          Alcotest.failf "tpacf-dd: expected IdxNest, got %s"
            (match s with
            | Some s -> Triolet.Seq_iter.shape_to_string s
            | None -> "none"))

let test_plan_partitions () =
  with_cluster (fun () ->
      let plan name =
        List.find (fun p -> p.Plan.name = name) (kernel_plans ())
      in
      (match (plan "mri-q").Plan.partition with
      | Plan.Static_blocks b -> check_int "mri-q blocks" 4 (Array.length b)
      | _ -> Alcotest.fail "mri-q: expected static blocks");
      (match (plan "sgemm").Plan.partition with
      | Plan.Static_grid { row_parts; col_parts; _ } ->
          check_int "sgemm grid" 4 (row_parts * col_parts)
      | _ -> Alcotest.fail "sgemm: expected a block grid");
      match (plan "tpacf-dd").Plan.partition with
      | Plan.Dynamic_ranges { overridden = false; _ } -> ()
      | _ -> Alcotest.fail "tpacf-dd: expected auto dynamic ranges")

(* The exact plan text of every kernel plan at the 4x2 geometry and at
   3 nodes (the degenerate 1x3 grid), as the per-module iterators
   rendered it — apart from sgemm's nest column — so a drift in blocks
   or payload bytes fails here, not just a drift in the block count.
   Only the local plan's worker count follows the host's pool. *)
let test_plan_text_pinned () =
  let local =
    Printf.sprintf
      "plan tpacf-dd   local       space [0, 16)      nest \
       IdxNest[4](IdxFlat[15])\n\
      \  dynamic ranges over %d workers, grain 1 (auto)"
      (Triolet_runtime.Pool.size (Triolet_runtime.Pool.default ()))
  in
  let expected nodes grid sgemm_bytes =
    [
      Printf.sprintf
        "plan mri-q      distributed space [0, 40)      nest IdxFlat[4]\n\
        \  %d static blocks over %d workers, 960 payload bytes"
        nodes nodes;
      Printf.sprintf
        "plan sgemm      distributed space 9 x 7        nest \
         IdxNest[4](IdxFlat[7])\n\
        \  %s block grid (%d blocks) over %d workers, %d payload bytes"
        grid nodes nodes sgemm_bytes;
      local;
      Printf.sprintf
        "plan tpacf-dr   distributed space [0, 3)       nest IdxFlat[3]\n\
        \  3 static blocks over %d workers, 1248 payload bytes"
        nodes;
      Printf.sprintf
        "plan tpacf-rr   distributed space [0, 3)       nest IdxFlat[3]\n\
        \  3 static blocks over %d workers, 1248 payload bytes"
        nodes;
      Printf.sprintf
        "plan cutcp      distributed space [0, 16)      nest \
         IdxNest[4](IdxNest[5](IdxNest[6](IdxNest[4](StepFlat))))\n\
        \  %d static blocks over %d workers, 512 payload bytes"
        nodes nodes;
    ]
  in
  List.iter
    (fun (nodes, want) ->
      Triolet.Exec.with_context (two_level ~nodes) (fun () ->
          Alcotest.(check (list string))
            (Printf.sprintf "%d nodes" nodes)
            want
            (List.map Plan.to_string (kernel_plans ()))))
    [ (4, expected 4 "2x2" 1664); (3, expected 3 "1x3" 1728) ]

(* The plan predicts what a consumer ships: at flat 2x2 (four workers),
   one node per planned block, each a scatter and a reply. *)
let test_plan_matches_shipping () =
  let ctx =
    Triolet.Exec.make ~nodes:2 ~cores_per_node:2
      ~backend:Triolet_runtime.Cluster.Flat ()
  in
  let ships name it consume =
    Triolet.Exec.with_context ctx (fun () ->
        let blocks = List.length (Plan.of_iter ~name it).Plan.tasks in
        check_int (name ^ ": planned blocks") 4 blocks;
        let (), d = Triolet_runtime.Stats.measure (fun () -> consume it) in
        check_int (name ^ ": messages") (2 * blocks)
          d.Triolet_runtime.Stats.messages)
  in
  let m = Triolet.Matrix.init 64 64 (fun i j -> float_of_int ((64 * i) + j)) in
  ships "to_matrix"
    Triolet.Iter.(par (of_matrix m))
    (fun it -> ignore (Triolet.Iter.to_matrix it));
  ships "collect_floats"
    Triolet.Iter.(par (of_floatarray (Float.Array.init 1000 float_of_int)))
    (fun it -> ignore (Triolet.Iter.collect_floats it))

(* A 3-D domain reifies as z-slab plane ranges that tile its depth. *)
let test_plan_3d () =
  with_cluster (fun () ->
      let g = Triolet.Grid3.init 3 2 5 (fun x y z -> float_of_int (x + y + z)) in
      let p =
        Plan.of_iter ~name:"grid" (Triolet.Iter.par (Triolet.Iter.of_grid g))
      in
      check_bool "passes clean" false (Passes.has_errors (Passes.run_plan p));
      Alcotest.(check string)
        "plan text"
        "plan grid       distributed space 5 x 2 x 3    nest \
         IdxNest[4](IdxNest[2](IdxFlat[3]))\n\
        \  4 static blocks over 4 workers, 336 payload bytes"
        (Plan.to_string p))

(* ------------------------------------------------------------------ *)
(* Individual passes on synthetic plans                                *)

(* zipping a non-flat operand (here: a filtered iterator, which is an
   IdxNest) degrades the whole nest to a flat stepper — the paper's
   "fusion lost" case. *)
let stepper_pipeline () =
  Triolet.Iter.zip
    (Triolet.Iter.filter (fun i -> i mod 2 = 0) (Triolet.Iter.range 0 10))
    (Triolet.Iter.range 0 10)

let test_fusion_warns_on_stepper () =
  with_cluster (fun () ->
      (* under a parallel hint the fusion pass must warn that random
         access — and with it partitioning — is lost *)
      let it = Triolet.Iter.localpar (stepper_pipeline ()) in
      let p = Plan.of_iter ~name:"stepper" it in
      match Passes.fusion p with
      | [ { Passes.severity = Passes.Warning; _ } ] -> ()
      | fs ->
          Alcotest.failf "expected one warning, got: %s"
            (String.concat "; " (List.map Passes.to_string fs)))

let test_fusion_silent_when_sequential () =
  (* the same stepper-headed nest is fine sequentially *)
  check_int "no findings" 0
    (List.length
       (Passes.fusion (Plan.of_iter ~name:"seq" (stepper_pipeline ()))))

let test_serialization_error_without_codec () =
  with_cluster (fun () ->
      (* a boxed source without a codec cannot be sliced for
         distribution: the pass must fail the plan *)
      let it = Triolet.Iter.par (Triolet.Iter.of_array [| "a"; "b"; "c" |]) in
      let p = Plan.of_iter ~name:"boxed" it in
      check_bool "error raised" true (Passes.has_errors (Passes.serialization p)))

let test_serialization_raw_is_info () =
  with_cluster (fun () ->
      let d = D.tpacf ~seed:31 ~points:16 ~random_sets:3 in
      let p =
        Plan.of_iter ~name:"tpacf-rr"
          (Triolet_kernels.Tpacf.rr_pipeline ~bins:8 d)
      in
      let fs = Passes.serialization p in
      check_bool "raw noted" true
        (List.exists (fun f -> f.Passes.severity = Passes.Info) fs);
      check_bool "but not an error" false (Passes.has_errors fs))

let test_coverage_pass_catches_bad_partition () =
  (* splice the buggy grid into an otherwise clean plan: the coverage
     pass must reject it and name the offending block pair *)
  with_cluster (fun () ->
      let a, b = D.sgemm_matrices ~seed:21 ~m:9 ~k:6 ~n:7 in
      let p =
        Plan.of_iter ~name:"sgemm-mutant" (Triolet_kernels.Sgemm.pipeline a b)
      in
      let p =
        {
          p with
          Plan.partition =
            Plan.Static_grid
              {
                row_parts = 3;
                col_parts = 2;
                blocks = buggy_grid ~row_parts:3 ~col_parts:2 ~rows:9 ~cols:7;
              };
        }
      in
      let fs = Passes.coverage p in
      check_bool "mutant rejected" true (Passes.has_errors fs);
      check_bool "names blocks" true
        (List.exists
           (fun f ->
             f.Passes.severity = Passes.Error
             && f.Passes.pass = "coverage"
             && f.Passes.plan = "sgemm-mutant")
           fs))

let test_grain_advisory () =
  let base =
    {
      Plan.name = "synthetic";
      hint = Triolet.Iter.Local;
      space = Plan.Space_1d 100;
      shape = None;
      partition = Plan.Dynamic_ranges { grain = 50; overridden = true };
      workers = 4;
      tasks = [];
    }
  in
  (* override yielding 2 chunks for 4 workers: starvation warning *)
  check_int "override warns" 1 (List.length (Passes.grain_advisory base));
  (* the same grain chosen automatically never warns *)
  check_int "auto silent" 0
    (List.length
       (Passes.grain_advisory
          {
            base with
            Plan.partition = Plan.Dynamic_ranges { grain = 50; overridden = false };
          }));
  (* a fine-grained override is fine *)
  check_int "fine override silent" 0
    (List.length
       (Passes.grain_advisory
          {
            base with
            Plan.partition = Plan.Dynamic_ranges { grain = 5; overridden = true };
          }))

(* ------------------------------------------------------------------ *)
(* Unsafe-access ratchet                                               *)

let test_unsafe_scan_flags_new_site () =
  let root = Filename.temp_file "triolet_scan" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Unix.mkdir (Filename.concat root "lib") 0o755;
  let file = Filename.concat (Filename.concat root "lib") "fresh.ml" in
  let oc = open_out file in
  (* assembled so the test file itself stays clean under the scan *)
  let call = "Float." ^ "Array." ^ "unsafe_get" in
  output_string oc
    (Printf.sprintf "let f a i = %s a i +. %s a (i + 1)\n" call call);
  close_out oc;
  let fs = Unsafe_scan.run ~root () in
  check_bool "new site is an error" true (Passes.has_errors fs);
  check_bool "file named" true
    (List.exists (fun f -> f.Passes.plan = "lib/fresh.ml") fs);
  Sys.remove file;
  Unix.rmdir (Filename.concat root "lib");
  Unix.rmdir root

let test_unsafe_scan_empty_tree_clean () =
  let root = Filename.temp_file "triolet_scan" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  check_int "no findings" 0 (List.length (Unsafe_scan.run ~root ()));
  Unix.rmdir root

(* ------------------------------------------------------------------ *)
(* Protocol model checker                                              *)

module W = Triolet_sim.Protocol_models.Wsdeque_model

let test_wsdeque_clean () =
  let r = W.check () in
  check_bool "no violation" true (r.Triolet_sim.Modelcheck.violation = None);
  check_int "scenarios" 127 r.Triolet_sim.Modelcheck.scenarios;
  check_bool "explored" true (r.Triolet_sim.Modelcheck.interleavings > 1000)

let test_wsdeque_bugs_caught () =
  let dup = W.check ~bug:W.Steal_no_remove () in
  (match dup.Triolet_sim.Modelcheck.violation with
  | Some v ->
      check_bool "duplication named" true
        (String.length v.Triolet_sim.Modelcheck.message > 0)
  | None -> Alcotest.fail "Steal_no_remove not caught");
  let lost = W.check ~bug:W.Lose_pop_race () in
  match lost.Triolet_sim.Modelcheck.violation with
  | Some _ -> ()
  | None -> Alcotest.fail "Lose_pop_race not caught"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "coverage",
        [
          Alcotest.test_case "clean partitions" `Quick test_coverage_clean;
          Alcotest.test_case "gap" `Quick test_coverage_gap;
          Alcotest.test_case "overlap names blocks" `Quick
            test_coverage_overlap_names_blocks;
          Alcotest.test_case "empty and out of bounds" `Quick
            test_coverage_empty_and_oob;
          Alcotest.test_case "mutated grid caught" `Quick
            test_mutated_grid_caught;
          prop_blocks_cover;
          prop_grid_covers;
          prop_owner_agrees;
        ] );
      ( "partition",
        [
          Alcotest.test_case "degenerate grids" `Quick test_grid_degenerate;
          Alcotest.test_case "invalid grids" `Quick test_grid_invalid;
          Alcotest.test_case "square factors" `Quick test_square_factors;
        ] );
      ( "plans",
        [
          Alcotest.test_case "kernel plans clean" `Quick
            test_kernel_plans_clean;
          Alcotest.test_case "shapes" `Quick test_plan_shapes;
          Alcotest.test_case "partitions" `Quick test_plan_partitions;
          Alcotest.test_case "plan text pinned" `Quick test_plan_text_pinned;
          Alcotest.test_case "3-D plan" `Quick test_plan_3d;
          Alcotest.test_case "plan matches what ships" `Quick
            test_plan_matches_shipping;
        ] );
      ( "passes",
        [
          Alcotest.test_case "fusion warns on stepper" `Quick
            test_fusion_warns_on_stepper;
          Alcotest.test_case "fusion silent when sequential" `Quick
            test_fusion_silent_when_sequential;
          Alcotest.test_case "serialization error without codec" `Quick
            test_serialization_error_without_codec;
          Alcotest.test_case "raw payloads are info" `Quick
            test_serialization_raw_is_info;
          Alcotest.test_case "coverage pass catches bad partition" `Quick
            test_coverage_pass_catches_bad_partition;
          Alcotest.test_case "grain advisory" `Quick test_grain_advisory;
        ] );
      ( "unsafe scan",
        [
          Alcotest.test_case "flags a new site" `Quick
            test_unsafe_scan_flags_new_site;
          Alcotest.test_case "clean tree" `Quick
            test_unsafe_scan_empty_tree_clean;
        ] );
      ( "model checker",
        [
          Alcotest.test_case "wsdeque clean" `Quick test_wsdeque_clean;
          Alcotest.test_case "wsdeque bugs caught" `Quick
            test_wsdeque_bugs_caught;
        ] );
    ]
