(** Calibrated simulator models of the four benchmarks.

    The scalability figures replay the paper's problem sizes through the
    discrete-event simulator.  Per-unit compute costs come from *rates
    measured on this machine* by running the real reference kernels on
    small instances ({!measure_rates}); communication volumes are
    computed from the same formulas the real iterator runtime uses
    (slices, broadcast data, per-node bands, result arrays).

    Problem sizes follow section 4: datasets chosen so the sequential C
    time lands in the paper's 20–200 s window. *)

module App = Triolet_sim.App_model

type rates = {
  mriq_pair_s : float;  (** one (voxel, sample) contribution, C style *)
  sgemm_mac_s : float;  (** one multiply-accumulate, C style *)
  tpacf_pair_s : float;  (** one point-pair score + histogram update *)
  cutcp_point_s : float;  (** one candidate grid-point visit *)
}

(** Rates typical of one core of the paper's Xeon E5-2670 era hardware;
    used when calibration is skipped. *)
let default_rates =
  {
    mriq_pair_s = 25e-9;
    sgemm_mac_s = 1.5e-9;
    tpacf_pair_s = 12e-9;
    cutcp_point_s = 6e-9;
  }

(* Monotonic durations: calibration rates must never go negative or get
   skewed by an NTP step mid-measurement. *)
let time f = Triolet_runtime.Clock.duration f

(** Measure real per-operation rates by timing the reference kernels on
    small instances. *)
let measure_rates () =
  let mriq_pair_s =
    let d = Dataset.mriq ~seed:1 ~samples:256 ~voxels:512 in
    let _, t = time (fun () -> Mriq.run_c d) in
    t /. float_of_int (256 * 512)
  in
  let sgemm_mac_s =
    let n = 128 in
    let a, b = Dataset.sgemm_matrices ~seed:2 ~m:n ~k:n ~n in
    let _, t = time (fun () -> Sgemm.run_c a b) in
    t /. float_of_int (n * n * n)
  in
  let tpacf_pair_s =
    let d = Dataset.tpacf ~seed:3 ~points:512 ~random_sets:1 in
    let _, t = time (fun () -> Tpacf.run_c ~bins:32 d) in
    let n = 512.0 in
    (* DD + DR + RR pair counts for one random set *)
    let pairs = (n *. n /. 2.0) +. (n *. n) +. (n *. n /. 2.0) in
    t /. pairs
  in
  let cutcp_point_s =
    let c =
      Dataset.cutcp ~seed:4 ~atoms:512 ~nx:32 ~ny:32 ~nz:32 ~spacing:0.5
        ~cutoff:4.0
    in
    let _, t = time (fun () -> Cutcp.run_c c) in
    let box = (2.0 *. c.Dataset.cutoff /. c.Dataset.spacing) +. 1.0 in
    t /. (float_of_int 512 *. (box ** 3.0))
  in
  { mriq_pair_s; sgemm_mac_s; tpacf_pair_s; cutcp_point_s }

(* ------------------------------------------------------------------ *)
(* mri-q: parallel map over voxel chunks of a sequential sum over
   samples; paper scale is 64^3 voxels x 4096 samples, chunked 64
   voxels per unit.  Smaller instances shrink the chunk so the unit
   count stays high enough to decompose. *)

let mriq_model_sized ?(rates = default_rates) ~voxels ~samples () =
  let chunk = max 1 (min 64 (voxels / 64)) in
  let tasks = max 1 (voxels / chunk) in
  App.make ~name:"mri-q" ~tasks
    ~task_cost:(fun _ ->
      float_of_int (chunk * samples) *. rates.mriq_pair_s)
      (* each unit ships its voxel coordinates and returns Qr/Qi *)
    ~task_in_bytes:(fun _ -> 3 * 8 * chunk)
    ~broadcast_bytes:(5 * 8 * samples)
    ~whole_in_bytes:((3 * 8 * voxels) + (5 * 8 * samples))
    ~task_out_bytes:(fun _ -> 2 * 8 * chunk)
    ()

let mriq_model ?rates () =
  mriq_model_sized ?rates ~voxels:(64 * 64 * 64) ~samples:4096 ()

(* ------------------------------------------------------------------ *)
(* sgemm: units are output row bands; the 2-D block decomposition's
   communication appears as a per-node band of A and B^T whose size
   depends on the grid shape.  Paper scale is 4k x 4k matrices.        *)

let sgemm_model_sized ?(rates = default_rates) ~m ~k ~n () =
  let tasks = m in
  (* one unit = one output row *)
  let a_bytes = 8 * m * k and b_bytes = 8 * k * n in
  App.make ~name:"sgemm" ~tasks
    ~task_cost:(fun _ -> float_of_int (k * n) *. rates.sgemm_mac_s)
    ~node_extra_in_bytes:(fun nodes ->
      (* the block grid Iter.to_matrix cuts the m x n output into *)
      let rp, cp =
        Triolet.Shape.(grid_parts (blocks ~parts:nodes (dim2 m n)))
      in
      (a_bytes / rp) + (b_bytes / cp))
    ~whole_in_bytes:(a_bytes + b_bytes)
    ~task_out_bytes:(fun _ -> 8 * n)
      (* building the outgoing block messages allocates them afresh in a
         GC'd runtime (the paper attributes 40% of Triolet's overhead at
         8 nodes to exactly this, section 4.3) *)
    ~task_alloc_bytes:(fun _ -> 2 * 8 * n)
    ~seq_setup_time:(float_of_int (k * n) *. 8.0 *. rates.sgemm_mac_s)
    ~setup_shared_mem_ok:true ()

let sgemm_model ?rates () = sgemm_model_sized ?rates ~m:4096 ~k:4096 ~n:4096 ()

(* ------------------------------------------------------------------ *)
(* tpacf: units are (catalog, slice) pieces of the DD/DR/RR loops;
   paper scale is one observed + 64 random catalogs of 8192 points.    *)

let tpacf_model_sized ?(rates = default_rates) ~points ~sets ~bins () =
  let n = points in
  let slices = 16 in
  (* Unit kinds: DD slices, then per set DR slices and RR slices.  Self
     correlations do half the pairs of cross correlations, giving the
     irregular unit costs that reward over-decomposed scheduling. *)
  let nf = float_of_int n in
  let sf = float_of_int slices in
  (* A self-correlation's outer loop is triangular: slice s of the
     i-range does sum_{i in slice} (n - i) pairs, a linear ramp from
     ~2x the mean down to ~0 — the irregularity that static thread
     schedules leave unbalanced. *)
  let self_cost s =
    let mean = nf *. nf /. 2.0 /. sf in
    let weight = 2.0 *. (1.0 -. ((float_of_int s +. 0.5) /. sf)) in
    mean *. weight *. rates.tpacf_pair_s
  in
  let cross_cost = nf *. nf /. sf *. rates.tpacf_pair_s in
  let tasks = slices * ((2 * sets) + 1) in
  let catalog_bytes = 3 * 8 * n in
  App.make ~name:"tpacf" ~tasks
    ~task_cost:(fun i ->
      let group = i / slices and s = i mod slices in
      if group = 0 then self_cost s (* DD *)
      else if (group - 1) mod 2 = 0 then cross_cost (* DR *)
      else self_cost s (* RR *))
    ~task_in_bytes:(fun _ -> catalog_bytes / slices)
    ~broadcast_bytes:catalog_bytes (* the observed set, everywhere *)
    ~whole_in_bytes:((sets + 1) * catalog_bytes)
    ~node_out_bytes:(8 * bins) ()

let tpacf_model ?rates () =
  tpacf_model_sized ?rates ~points:8192 ~sets:64 ~bins:64 ()

(* ------------------------------------------------------------------ *)
(* cutcp: units are atom chunks; every worker returns a full copy of
   the potential grid that the main process must receive and sum — the
   output-reduction bottleneck that saturates Figure 8 (section 4.5).
   Paper scale is 600k atoms over a 192^3 grid.                        *)

let cutcp_model_sized ?(rates = default_rates) ~atoms ~nx ~ny ~nz ~spacing
    ~cutoff () =
  let grid_bytes = 8 * nx * ny * nz in
  let chunk = max 1 (min 256 (atoms / 16)) in
  let tasks = max 1 (atoms / chunk) in
  let box = (2.0 *. cutoff /. spacing) +. 1.0 in
  let points_per_atom = box *. box *. box in
  App.make ~name:"cutcp" ~tasks
    ~task_cost:(fun _ ->
      float_of_int chunk *. points_per_atom *. rates.cutcp_point_s)
    ~task_in_bytes:(fun _ -> 4 * 8 * chunk)
    ~whole_in_bytes:(4 * 8 * atoms)
    ~node_out_bytes:grid_bytes
      (* each produced (index, value) update is a short-lived boxed
         tuple (two boxes plus a pair, ~5 words) in a GC'd runtime: the
         allocation overhead
         that costs Triolet ~60% of its execution time at 8 nodes
         (section 4.5) *)
    ~task_alloc_bytes:(fun _ ->
      int_of_float (float_of_int chunk *. points_per_atom *. 40.0))
    ()

let cutcp_model ?rates () =
  cutcp_model_sized ?rates ~atoms:600_000 ~nx:192 ~ny:192 ~nz:192 ~spacing:0.5
    ~cutoff:6.0 ()

let all ?rates () =
  [
    mriq_model ?rates ();
    sgemm_model ?rates ();
    tpacf_model ?rates ();
    cutcp_model ?rates ();
  ]
