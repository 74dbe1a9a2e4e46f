(** mri-q: non-uniform 3-D inverse Fourier transform (paper, section
    4.2).

    For every voxel r, sum the contributions of every k-space sample:
    Q(r) = sum_k |phi(k)|^2 * exp(2*pi*i * k.r), yielding a real and an
    imaginary accumulator per voxel.  Three implementations:

    - [run_c]: the "sequential C" stand-in — plain nested loops over
      unboxed arrays, the normalization baseline of every figure;
    - [run_triolet]: the paper's two-line version — a parallel map over
      voxels of a sequential sum over samples;
    - [run_eden]: Eden-style boxed-list code. *)

open Triolet
module D = Dataset

type result = { qr : floatarray; qi : floatarray }

let two_pi = 8.0 *. atan 1.0

(* |phi|^2 for each sample, precomputed once as in the Parboil code. *)
let magnitudes (d : D.mriq) =
  let k = Float.Array.length d.D.phi_r in
  Float.Array.init k (fun i ->
      let r = Float.Array.get d.D.phi_r i and im = Float.Array.get d.D.phi_i i in
      (r *. r) +. (im *. im))

(* ------------------------------------------------------------------ *)

let run_c (d : D.mriq) : result =
  let k = Float.Array.length d.D.kx in
  let n = Float.Array.length d.D.x in
  let mu = magnitudes d in
  let qr = Float.Array.make n 0.0 and qi = Float.Array.make n 0.0 in
  for v = 0 to n - 1 do
    let x = Float.Array.unsafe_get d.D.x v
    and y = Float.Array.unsafe_get d.D.y v
    and z = Float.Array.unsafe_get d.D.z v in
    let sr = ref 0.0 and si = ref 0.0 in
    for s = 0 to k - 1 do
      let phase =
        two_pi
        *. ((Float.Array.unsafe_get d.D.kx s *. x)
           +. (Float.Array.unsafe_get d.D.ky s *. y)
           +. (Float.Array.unsafe_get d.D.kz s *. z))
      in
      let m = Float.Array.unsafe_get mu s in
      sr := !sr +. (m *. cos phase);
      si := !si +. (m *. sin phase)
    done;
    Float.Array.unsafe_set qr v !sr;
    Float.Array.unsafe_set qi v !si
  done;
  { qr; qi }

(* ------------------------------------------------------------------ *)

(* The paper's Triolet code:
     [sum(ftcoeff(k, r) for k in ks) for r in par(zip3(x, y, z))]
   ftcoeff yields a complex contribution; the inner sum is sequential,
   the outer map over voxels is the parallel loop.  [pipeline] is the
   fused iterator collect_float_pairs consumes, exposed as a
   plan-reification hook for [triolet analyze]. *)
let pipeline ?(hint = Iter.par) (d : D.mriq) =
  let mu = magnitudes d in
  (* The sample arrays are bound here so [voxel_sum] captures them, not
     [d]: the task code ships what the closure captures, and the voxel
     arrays already travel as payload. *)
  let kx = d.D.kx and ky = d.D.ky and kz = d.D.kz in
  let k = Float.Array.length kx in
  let voxel_sum (x, y, z) =
    let sr = ref 0.0 and si = ref 0.0 in
    for s = 0 to k - 1 do
      let phase =
        two_pi
        *. ((Float.Array.unsafe_get kx s *. x)
           +. (Float.Array.unsafe_get ky s *. y)
           +. (Float.Array.unsafe_get kz s *. z))
      in
      let m = Float.Array.unsafe_get mu s in
      sr := !sr +. (m *. cos phase);
      si := !si +. (m *. sin phase)
    done;
    (!sr, !si)
  in
  let voxels =
    Iter.zip3
      (Iter.of_floatarray d.D.x)
      (Iter.of_floatarray d.D.y)
      (Iter.of_floatarray d.D.z)
  in
  Iter.map voxel_sum (hint voxels)

(* Size taxonomy shared with the auto-mapper: one (voxel, sample)
   contribution is the work unit. *)
let size_class (d : D.mriq) =
  Mapping.size_class_of_work
    (Float.Array.length d.D.x * Float.Array.length d.D.kx)

let run_triolet ?ctx ?hint (d : D.mriq) : result =
  let ctx = Exec.for_kernel ?ctx ~kernel:"mri-q" ~size:(size_class d) () in
  Triolet_obs.Obs.span ~name:"kernel.mriq" (fun () ->
      let qr, qi = Iter.collect_float_pairs ~ctx (pipeline ?hint d) in
      { qr; qi })

(* ------------------------------------------------------------------ *)

(* Eden-style: the voxel list and the sample list are boxed lists of
   tuples; the inner sum traverses a list per voxel. *)
let run_eden (d : D.mriq) : result =
  let module E = Triolet_baselines.Eden_list in
  let mu = magnitudes d in
  let to_list a = List.init (Float.Array.length a) (Float.Array.get a) in
  let samples =
    E.zip3 (to_list d.D.kx) (to_list d.D.ky) (to_list d.D.kz)
    |> List.mapi (fun s (kx, ky, kz) -> (kx, ky, kz, Float.Array.get mu s))
  in
  let voxels = E.zip3 (to_list d.D.x) (to_list d.D.y) (to_list d.D.z) in
  let results =
    E.map
      (fun (x, y, z) ->
        E.fold
          (fun (sr, si) (kx, ky, kz, m) ->
            let phase = two_pi *. ((kx *. x) +. (ky *. y) +. (kz *. z)) in
            (sr +. (m *. cos phase), si +. (m *. sin phase)))
          (0.0, 0.0) samples)
      voxels
  in
  {
    qr = Float.Array.of_list (List.map fst results);
    qi = Float.Array.of_list (List.map snd results);
  }

(* ------------------------------------------------------------------ *)

let max_abs_diff a b =
  let d = ref 0.0 in
  for i = 0 to Float.Array.length a - 1 do
    d := Float.max !d (Float.abs (Float.Array.get a i -. Float.Array.get b i))
  done;
  !d

(** Agreement check between two results (used by tests and the bench
    harness's self-check). *)
let agrees ?(eps = 1e-9) r1 r2 =
  Float.Array.length r1.qr = Float.Array.length r2.qr
  && max_abs_diff r1.qr r2.qr <= eps
  && max_abs_diff r1.qi r2.qi <= eps
