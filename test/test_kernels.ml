(* Tests for the four Parboil kernels: the Triolet-iterator and
   Eden-list implementations must agree with the imperative C-style
   reference on small instances, across execution hints and cluster
   configurations; plus tests for the calibrated simulator models. *)

open Triolet
open Triolet_kernels
module Cluster = Triolet_runtime.Cluster

let () = Triolet_runtime.Pool.set_default_width 2

let () =
  Exec.set_ambient (Exec.make ~nodes:(3) ~cores_per_node:(2) ())

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

(* ------------------------------------------------------------------ *)
(* mri-q                                                               *)

let test_mriq_triolet_matches_c () =
  let d = Dataset.mriq ~seed:11 ~samples:64 ~voxels:200 in
  let c = Mriq.run_c d in
  Alcotest.(check bool) "par" true
    (Mriq.agrees ~eps:1e-9 c (Mriq.run_triolet ~hint:Iter.par d));
  Alcotest.(check bool) "localpar" true
    (Mriq.agrees ~eps:1e-9 c (Mriq.run_triolet ~hint:Iter.localpar d));
  Alcotest.(check bool) "seq" true
    (Mriq.agrees ~eps:1e-9 c (Mriq.run_triolet ~hint:Iter.sequential d))

let test_mriq_eden_matches_c () =
  let d = Dataset.mriq ~seed:12 ~samples:32 ~voxels:100 in
  Alcotest.(check bool) "eden" true
    (Mriq.agrees ~eps:1e-9 (Mriq.run_c d) (Mriq.run_eden d))

let test_mriq_single_voxel_sample () =
  let d = Dataset.mriq ~seed:13 ~samples:1 ~voxels:1 in
  Alcotest.(check bool) "degenerate" true
    (Mriq.agrees (Mriq.run_c d) (Mriq.run_triolet d))

let prop_mriq_agreement =
  qtest "mriq triolet = C on random sizes"
    QCheck2.Gen.(pair (int_range 1 40) (int_range 1 60))
    (fun (samples, voxels) ->
      let d = Dataset.mriq ~seed:(samples + (100 * voxels)) ~samples ~voxels in
      Mriq.agrees ~eps:1e-9 (Mriq.run_c d) (Mriq.run_triolet d))

(* ------------------------------------------------------------------ *)
(* sgemm                                                               *)

let test_sgemm_triolet_matches_c () =
  let a, b = Dataset.sgemm_matrices ~seed:21 ~m:17 ~k:13 ~n:19 in
  let c = Sgemm.run_c a b in
  Alcotest.(check bool) "par" true
    (Sgemm.agrees c (Sgemm.run_triolet ~hint:Iter.par a b));
  Alcotest.(check bool) "localpar" true
    (Sgemm.agrees c (Sgemm.run_triolet ~hint:Iter.localpar a b))

let test_sgemm_eden_matches_c () =
  let a, b = Dataset.sgemm_matrices ~seed:22 ~m:8 ~k:6 ~n:7 in
  Alcotest.(check bool) "eden" true
    (Sgemm.agrees (Sgemm.run_c a b) (Sgemm.run_eden a b))

let test_sgemm_alpha_scaling () =
  let a, b = Dataset.sgemm_matrices ~seed:23 ~m:5 ~k:5 ~n:5 in
  let c1 = Sgemm.run_c ~alpha:3.0 a b in
  let c2 = Sgemm.run_triolet ~alpha:3.0 a b in
  Alcotest.(check bool) "alpha" true (Sgemm.agrees c1 c2)

let test_sgemm_identity () =
  let n = 6 in
  let id = Matrix.init n n (fun i j -> if i = j then 1.0 else 0.0) in
  let rng = Triolet_base.Rng.create 24 in
  let a = Matrix.random rng n n (-1.0) 1.0 in
  Alcotest.(check bool) "A * I = A" true
    (Sgemm.agrees a (Sgemm.run_triolet a id))

let prop_sgemm_agreement =
  qtest "sgemm triolet = C on random shapes"
    QCheck2.Gen.(triple (int_range 1 12) (int_range 1 12) (int_range 1 12))
    (fun (m, k, n) ->
      let a, b = Dataset.sgemm_matrices ~seed:(m + (13 * k) + (169 * n)) ~m ~k ~n in
      Sgemm.agrees (Sgemm.run_c a b) (Sgemm.run_triolet a b))

(* ------------------------------------------------------------------ *)
(* tpacf                                                               *)

let test_tpacf_triolet_matches_c () =
  let d = Dataset.tpacf ~seed:31 ~points:40 ~random_sets:3 in
  let c = Tpacf.run_c ~bins:16 d in
  Alcotest.(check bool) "triolet" true
    (Tpacf.agrees c (Tpacf.run_triolet ~bins:16 d))

let test_tpacf_eden_matches_c () =
  let d = Dataset.tpacf ~seed:32 ~points:30 ~random_sets:2 in
  Alcotest.(check bool) "eden" true
    (Tpacf.agrees (Tpacf.run_c ~bins:8 d) (Tpacf.run_eden ~bins:8 d))

let test_tpacf_pair_counts () =
  (* Histogram totals are determined by the pair counts: DD = n(n-1)/2,
     DR = R * n^2, RR = R * n(n-1)/2. *)
  let n = 25 and r = 4 in
  let d = Dataset.tpacf ~seed:33 ~points:n ~random_sets:r in
  let res = Tpacf.run_triolet ~bins:12 d in
  let total a = Array.fold_left ( + ) 0 a in
  Alcotest.(check int) "DD pairs" (n * (n - 1) / 2) (total res.Tpacf.dd);
  Alcotest.(check int) "DR pairs" (r * n * n) (total res.Tpacf.dr);
  Alcotest.(check int) "RR pairs" (r * n * (n - 1) / 2) (total res.Tpacf.rr)

let test_tpacf_bin_function () =
  Alcotest.(check int) "identical points -> top bin" 15
    (Tpacf.bin_of_dot ~bins:16 1.0);
  Alcotest.(check int) "antipodal -> bin 0" 0 (Tpacf.bin_of_dot ~bins:16 (-1.0));
  Alcotest.(check int) "orthogonal -> middle" 8 (Tpacf.bin_of_dot ~bins:16 0.0);
  (* out-of-range dots from rounding are clamped *)
  Alcotest.(check int) "clamp high" 15 (Tpacf.bin_of_dot ~bins:16 1.0000001);
  Alcotest.(check int) "clamp low" 0 (Tpacf.bin_of_dot ~bins:16 (-1.0000001))

let test_tpacf_flat_cluster () =
  let d = Dataset.tpacf ~seed:34 ~points:20 ~random_sets:2 in
  let c = Tpacf.run_c ~bins:8 d in
  Exec.with_context (Exec.make ~nodes:(2) ~cores_per_node:(2) ~backend:Cluster.Flat ())
    (fun () ->
      Alcotest.(check bool) "flat mode agrees" true
        (Tpacf.agrees c (Tpacf.run_triolet ~bins:8 d)))

let prop_tpacf_agreement =
  qtest "tpacf triolet = C on random sizes"
    QCheck2.Gen.(pair (int_range 2 30) (int_range 1 4))
    (fun (points, sets) ->
      let d = Dataset.tpacf ~seed:(points + (31 * sets)) ~points ~random_sets:sets in
      Tpacf.agrees (Tpacf.run_c ~bins:10 d) (Tpacf.run_triolet ~bins:10 d))

(* ------------------------------------------------------------------ *)
(* cutcp                                                               *)

let small_cutcp seed =
  Dataset.cutcp ~seed ~atoms:30 ~nx:12 ~ny:10 ~nz:8 ~spacing:0.5 ~cutoff:1.6

let test_cutcp_triolet_matches_c () =
  let c = small_cutcp 41 in
  let g = Cutcp.run_c c in
  Alcotest.(check bool) "par" true
    (Cutcp.agrees ~eps:1e-9 g (Cutcp.run_triolet ~hint:Iter.par c));
  Alcotest.(check bool) "localpar" true
    (Cutcp.agrees ~eps:1e-9 g (Cutcp.run_triolet ~hint:Iter.localpar c))

let test_cutcp_eden_matches_c () =
  let c = small_cutcp 42 in
  Alcotest.(check bool) "eden" true
    (Cutcp.agrees ~eps:1e-9 (Cutcp.run_c c) (Cutcp.run_eden c))

let test_cutcp_cutoff_respected () =
  (* With a cutoff smaller than the spacing, only points essentially on
     top of an atom get contributions; far grid corners stay zero. *)
  let c =
    Dataset.cutcp ~seed:43 ~atoms:3 ~nx:20 ~ny:20 ~nz:20 ~spacing:1.0
      ~cutoff:1.5
  in
  let g = Cutcp.run_triolet c in
  let nonzero = ref 0 in
  Float.Array.iter (fun v -> if v <> 0.0 then incr nonzero) g;
  Alcotest.(check bool) "sparse updates" true
    (!nonzero > 0 && !nonzero < Dataset.grid_points c / 10)

let test_cutcp_positive_charge_positive_potential () =
  let c =
    {
      (small_cutcp 44) with
      Dataset.aq = Float.Array.make 30 1.0 (* all positive charges *);
    }
  in
  let g = Cutcp.run_c c in
  Float.Array.iter
    (fun v -> Alcotest.(check bool) "nonnegative" true (v >= 0.0))
    g

let prop_cutcp_agreement =
  qtest "cutcp triolet = C on random boxes"
    QCheck2.Gen.(pair (int_range 1 25) (int_range 4 12))
    (fun (atoms, nx) ->
      let c =
        Dataset.cutcp ~seed:(atoms + (100 * nx)) ~atoms ~nx ~ny:nx ~nz:nx
          ~spacing:0.5 ~cutoff:1.4
      in
      Cutcp.agrees ~eps:1e-9 (Cutcp.run_c c) (Cutcp.run_triolet c))

(* ------------------------------------------------------------------ *)
(* Dataset generators                                                  *)

let test_dataset_determinism () =
  let d1 = Dataset.mriq ~seed:7 ~samples:16 ~voxels:16 in
  let d2 = Dataset.mriq ~seed:7 ~samples:16 ~voxels:16 in
  Alcotest.(check bool) "same seed same data" true
    (Float.Array.for_all (fun _ -> true) d1.Dataset.kx
    && d1.Dataset.kx = d2.Dataset.kx
    && d1.Dataset.phi_i = d2.Dataset.phi_i)

let test_dataset_catalog_on_sphere () =
  let rng = Triolet_base.Rng.create 9 in
  let c = Dataset.catalog rng 200 in
  for i = 0 to 199 do
    let x = Float.Array.get c.Dataset.cx i
    and y = Float.Array.get c.Dataset.cy i
    and z = Float.Array.get c.Dataset.cz i in
    let r = sqrt ((x *. x) +. (y *. y) +. (z *. z)) in
    Alcotest.(check (float 1e-9)) "unit norm" 1.0 r
  done

let test_dataset_cutcp_in_box () =
  let c = small_cutcp 45 in
  let lx = float_of_int (c.Dataset.nx - 1) *. c.Dataset.spacing in
  Float.Array.iter
    (fun x -> Alcotest.(check bool) "in box" true (x >= 0.0 && x <= lx))
    c.Dataset.ax

(* ------------------------------------------------------------------ *)
(* Simulator models                                                    *)

let test_models_sequential_times_in_paper_window () =
  (* The paper selects inputs with sequential C times of 20-200 s; the
     calibrated models (at default rates) must land in that window. *)
  List.iter
    (fun app ->
      let t = Triolet_sim.App_model.sequential_time app in
      Alcotest.(check bool)
        (app.Triolet_sim.App_model.name ^ " in window")
        true
        (t > 20.0 && t < 200.0))
    (Models.all ())

let test_models_measure_rates_sane () =
  let r = Models.measure_rates () in
  let positive x = x > 1e-12 && x < 1e-3 in
  Alcotest.(check bool) "mriq" true (positive r.Models.mriq_pair_s);
  Alcotest.(check bool) "sgemm" true (positive r.Models.sgemm_mac_s);
  Alcotest.(check bool) "tpacf" true (positive r.Models.tpacf_pair_s);
  Alcotest.(check bool) "cutcp" true (positive r.Models.cutcp_point_s)

let test_models_task_structure () =
  let m = Models.tpacf_model () in
  (* DD tasks (group 0) are self-correlations: cheaper than DR. *)
  let dd = m.Triolet_sim.App_model.task_cost 0 in
  let dr = m.Triolet_sim.App_model.task_cost 16 in
  Alcotest.(check bool) "self < cross cost" true (dd < dr);
  let s = Models.sgemm_model () in
  Alcotest.(check bool) "sgemm has setup" true
    (s.Triolet_sim.App_model.seq_setup_time > 0.0);
  let c = Models.cutcp_model () in
  Alcotest.(check bool) "cutcp node output is the grid" true
    (c.Triolet_sim.App_model.node_out_bytes = 8 * 192 * 192 * 192)

let test_mriq_pair_packing_order () =
  (* collect_float_pairs must keep voxel order under distribution. *)
  let d = Dataset.mriq ~seed:14 ~samples:8 ~voxels:37 in
  let seq = Mriq.run_triolet ~hint:Iter.sequential d in
  let dist = Mriq.run_triolet ~hint:Iter.par d in
  Alcotest.(check bool) "order preserved" true (Mriq.agrees ~eps:0.0 seq dist)

let test_sgemm_three_node_grid () =
  (* 3 nodes force a degenerate 1x3 block grid. *)
  Exec.with_context (Exec.make ~nodes:(3) ~cores_per_node:(1) ())
    (fun () ->
      let a, b = Dataset.sgemm_matrices ~seed:25 ~m:10 ~k:6 ~n:9 in
      Alcotest.(check bool) "1x3 grid" true
        (Sgemm.agrees (Sgemm.run_c a b) (Sgemm.run_triolet a b)))

let test_cutcp_flat_cluster () =
  let c = small_cutcp 46 in
  Exec.with_context (Exec.make ~nodes:(2) ~cores_per_node:(3) ~backend:Cluster.Flat ())
    (fun () ->
      Alcotest.(check bool) "flat mode" true
        (Cutcp.agrees ~eps:1e-9 (Cutcp.run_c c) (Cutcp.run_triolet c)))

let test_tpacf_single_random_set () =
  let d = Dataset.tpacf ~seed:35 ~points:15 ~random_sets:1 in
  Alcotest.(check bool) "one set" true
    (Tpacf.agrees (Tpacf.run_c ~bins:6 d) (Tpacf.run_triolet ~bins:6 d))

let test_cutcp_no_atoms () =
  let c =
    { (small_cutcp 47) with
      Dataset.ax = Float.Array.create 0;
      ay = Float.Array.create 0;
      az = Float.Array.create 0;
      aq = Float.Array.create 0 }
  in
  let g = Cutcp.run_triolet c in
  Alcotest.(check bool) "all zeros" true
    (Float.Array.for_all (fun v -> v = 0.0) g)

let test_mriq_rate_independence () =
  (* The magnitude precomputation must not change results vs inlining:
     |phi|^2 computed once per sample. *)
  let d = Dataset.mriq ~seed:15 ~samples:5 ~voxels:5 in
  let r1 = Mriq.run_c d in
  let r2 = Mriq.run_c d in
  Alcotest.(check bool) "deterministic" true (Mriq.agrees ~eps:0.0 r1 r2)

(* A sequential run is sequential: under [run_seq] no loop of any
   registry kernel reaches the (2-wide) default pool, and the result is
   the C reference's. *)
let test_run_seq_is_sequential () =
  List.iter
    (fun (module K : Kernel.S) ->
      let inst = K.instance ~size:"tiny" () in
      let (), delta = Triolet_runtime.Stats.measure inst.Kernel.run_seq in
      Alcotest.(check int)
        (K.name ^ ": pool chunks") 0 delta.Triolet_runtime.Stats.chunks_run;
      Alcotest.(check bool) (K.name ^ ": agrees with C") true
        (inst.Kernel.check_seq ()))
    (Kernel.all ())

(* Busy time adds up: a nested job runs inside a grain that already
   times its CPU, so over every registry kernel on 2 in-process nodes
   the workers' summed busy time stays within the process's CPU time.
   The 1 ms allowance covers the two clocks' sampling, not a grain. *)
let test_busy_within_cpu () =
  let ctx = Exec.make ~nodes:2 ~cores_per_node:1 ~backend:Cluster.Inprocess () in
  let cpu_ms () =
    let t = Unix.times () in
    (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e3
  in
  List.iter
    (fun (module K : Kernel.S) ->
      let inst = K.instance ~size:"tiny" () in
      let c0 = cpu_ms () in
      let (), d = Triolet_runtime.Stats.measure (fun () -> inst.Kernel.run_triolet ~ctx ()) in
      let cpu = cpu_ms () -. c0 in
      let busy =
        Array.fold_left
          (fun a w -> a + w.Triolet_runtime.Stats.w_busy_ns)
          0 d.Triolet_runtime.Stats.per_worker
      in
      let busy = float_of_int busy /. 1e6 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: busy %.3f ms <= CPU %.3f ms" K.name busy cpu)
        true
        (busy <= cpu +. 1.0))
    (Kernel.all ())

let () =
  Alcotest.run "kernels"
    [
      ( "edge-cases",
        [
          Alcotest.test_case "mriq pair packing order" `Quick
            test_mriq_pair_packing_order;
          Alcotest.test_case "sgemm 1x3 grid" `Quick test_sgemm_three_node_grid;
          Alcotest.test_case "cutcp flat cluster" `Quick test_cutcp_flat_cluster;
          Alcotest.test_case "tpacf one set" `Quick test_tpacf_single_random_set;
          Alcotest.test_case "cutcp no atoms" `Quick test_cutcp_no_atoms;
          Alcotest.test_case "mriq deterministic" `Quick
            test_mriq_rate_independence;
          Alcotest.test_case "run_seq stays off the pool" `Quick
            test_run_seq_is_sequential;
          Alcotest.test_case "busy time within process CPU" `Quick
            test_busy_within_cpu;
        ] );
      ( "mriq",
        [
          Alcotest.test_case "triolet = C" `Quick test_mriq_triolet_matches_c;
          Alcotest.test_case "eden = C" `Quick test_mriq_eden_matches_c;
          Alcotest.test_case "degenerate" `Quick test_mriq_single_voxel_sample;
          prop_mriq_agreement;
        ] );
      ( "sgemm",
        [
          Alcotest.test_case "triolet = C" `Quick test_sgemm_triolet_matches_c;
          Alcotest.test_case "eden = C" `Quick test_sgemm_eden_matches_c;
          Alcotest.test_case "alpha" `Quick test_sgemm_alpha_scaling;
          Alcotest.test_case "identity" `Quick test_sgemm_identity;
          prop_sgemm_agreement;
        ] );
      ( "tpacf",
        [
          Alcotest.test_case "triolet = C" `Quick test_tpacf_triolet_matches_c;
          Alcotest.test_case "eden = C" `Quick test_tpacf_eden_matches_c;
          Alcotest.test_case "pair counts" `Quick test_tpacf_pair_counts;
          Alcotest.test_case "bin function" `Quick test_tpacf_bin_function;
          Alcotest.test_case "flat cluster" `Quick test_tpacf_flat_cluster;
          prop_tpacf_agreement;
        ] );
      ( "cutcp",
        [
          Alcotest.test_case "triolet = C" `Quick test_cutcp_triolet_matches_c;
          Alcotest.test_case "eden = C" `Quick test_cutcp_eden_matches_c;
          Alcotest.test_case "cutoff respected" `Quick
            test_cutcp_cutoff_respected;
          Alcotest.test_case "positive charges" `Quick
            test_cutcp_positive_charge_positive_potential;
          prop_cutcp_agreement;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "determinism" `Quick test_dataset_determinism;
          Alcotest.test_case "catalog on sphere" `Quick
            test_dataset_catalog_on_sphere;
          Alcotest.test_case "atoms in box" `Quick test_dataset_cutcp_in_box;
        ] );
      ( "models",
        [
          Alcotest.test_case "paper time window" `Quick
            test_models_sequential_times_in_paper_window;
          Alcotest.test_case "measured rates sane" `Quick
            test_models_measure_rates_sane;
          Alcotest.test_case "task structure" `Quick test_models_task_structure;
        ] );
    ]
