(** Calibration runs: real measured timings that anchor the simulator.

    Two kinds of measurement, both on scaled-down instances of the
    Parboil-shaped workloads (full paper sizes take 20–200 s *per
    style*, which the sealed 1-core box cannot afford per figure):

    - {!fig3}: wall time of the three implementation styles (C-style
      imperative, Triolet iterators, Eden boxed lists) of each kernel —
      the data behind Figure 3 and the sequential-efficiency ratios the
      simulator profiles consume;
    - {!Triolet_kernels.Models.measure_rates}: per-operation rates of
      the reference kernels that set the simulated task costs. *)

open Triolet_kernels

type style_times = {
  kernel : string;
  c_time : float;
  triolet_time : float;
  eden_time : float;
}

(* Best-of-3 wall time: single-shot timings on a shared 1-core box are
   noisy; the minimum is the standard robust estimator for compute-bound
   kernels. *)
let time f =
  let once () = Triolet_runtime.Clock.duration f in
  let r, t1 = once () in
  let _, t2 = once () in
  let _, t3 = once () in
  (r, Float.min t1 (Float.min t2 t3))

(** Triolet-style runs are measured with sequential hints: Figure 3
    compares single-thread code quality, not parallel dispatch. *)
let run_fig3 ?(scale = 1.0) () =
  let s x = max 1 (int_of_float (float_of_int x *. scale)) in
  let checkf name ok = if not ok then failwith (name ^ ": styles disagree") in
  (* mri-q *)
  let mriq =
    let d = Dataset.mriq ~seed:101 ~samples:(s 1024) ~voxels:(s 3072) in
    let rc, c_time = time (fun () -> Mriq.run_c d) in
    let rt, triolet_time =
      time (fun () -> Mriq.run_triolet ~hint:Triolet.Iter.sequential d)
    in
    let re, eden_time = time (fun () -> Mriq.run_eden d) in
    checkf "mri-q/triolet" (Mriq.agrees ~eps:1e-6 rc rt);
    checkf "mri-q/eden" (Mriq.agrees ~eps:1e-6 rc re);
    { kernel = "mri-q"; c_time; triolet_time; eden_time }
  in
  (* sgemm *)
  let sgemm =
    let n = s 224 in
    let a, b = Dataset.sgemm_matrices ~seed:102 ~m:n ~k:n ~n in
    let rc, c_time = time (fun () -> Sgemm.run_c a b) in
    let rt, triolet_time =
      time (fun () -> Sgemm.run_triolet ~hint:Triolet.Iter.sequential a b)
    in
    let re, eden_time = time (fun () -> Sgemm.run_eden a b) in
    checkf "sgemm/triolet" (Sgemm.agrees ~eps:1e-6 rc rt);
    checkf "sgemm/eden" (Sgemm.agrees ~eps:1e-6 rc re);
    { kernel = "sgemm"; c_time; triolet_time; eden_time }
  in
  (* tpacf *)
  let tpacf =
    let d = Dataset.tpacf ~seed:103 ~points:(s 896) ~random_sets:2 in
    let bins = 32 in
    let rc, c_time = time (fun () -> Tpacf.run_c ~bins d) in
    let rt, triolet_time =
      time (fun () -> Tpacf.run_triolet ~hint:Triolet.Iter.Sequential ~bins d)
    in
    let re, eden_time = time (fun () -> Tpacf.run_eden ~bins d) in
    checkf "tpacf/triolet" (Tpacf.agrees rc rt);
    checkf "tpacf/eden" (Tpacf.agrees rc re);
    { kernel = "tpacf"; c_time; triolet_time; eden_time }
  in
  (* cutcp *)
  let cutcp =
    let d =
      Dataset.cutcp ~seed:104 ~atoms:(s 2048) ~nx:32 ~ny:32 ~nz:32
        ~spacing:0.5 ~cutoff:3.0
    in
    let rc, c_time = time (fun () -> Cutcp.run_c d) in
    let rt, triolet_time =
      time (fun () -> Cutcp.run_triolet ~hint:Triolet.Iter.sequential d)
    in
    let re, eden_time = time (fun () -> Cutcp.run_eden d) in
    checkf "cutcp/triolet" (Cutcp.agrees ~eps:1e-6 rc rt);
    checkf "cutcp/eden" (Cutcp.agrees ~eps:1e-6 rc re);
    { kernel = "cutcp"; c_time; triolet_time; eden_time }
  in
  [ mriq; sgemm; tpacf; cutcp ]

(** Sequential efficiencies (fraction of C-style speed) per kernel and
    system, derived from a {!run_fig3} measurement.  Clamped away from
    zero so a degenerate measurement cannot break the simulator. *)
let efficiencies times =
  let clamp e = Float.max 0.02 (Float.min 1.5 e) in
  let eff t = function
    | "Triolet" -> clamp (t.c_time /. t.triolet_time)
    | "Eden" -> clamp (t.c_time /. t.eden_time)
    | _ -> 1.0
  in
  fun system kernel ->
    match List.find_opt (fun t -> t.kernel = kernel) times with
    | Some t -> eff t system
    | None -> 1.0
