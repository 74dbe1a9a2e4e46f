(** cutcp: cutoff Coulombic potential on a 3-D grid (paper, section
    4.5).

    For each charged atom, visit every grid point within cutoff distance
    c and add the atom's contribution q * (1/r - 1/c); points beyond the
    cutoff are skipped.  The computation is a floating-point histogram:
    a nested, irregular loop (atoms -> nearby grid points -> conditional
    update) that conventional fusion frameworks cannot fuse, and the
    motivating example of the paper's introduction.

    - [run_c]: nested loops and conditionals over unboxed arrays;
    - [run_triolet]: atoms |> par |> concat_map (grid points near the
      atom) |> scatter_add — the list-comprehension structure
      [floatHist [f a r | a <- atoms, r <- gridPts a]];
    - [run_eden]: the boxed-list equivalent. *)

open Triolet
module D = Dataset
module Vec = Triolet_base.Vec

let grid_index (c : D.cutcp) ix iy iz =
  ((iz * c.D.ny) + iy) * c.D.nx + ix

(* Neighborhood box of an atom: inclusive index bounds clipped to the
   grid. *)
let bounds (c : D.cutcp) x lo_n =
  let lo = int_of_float (ceil ((x -. c.D.cutoff) /. c.D.spacing)) in
  let hi = int_of_float (floor ((x +. c.D.cutoff) /. c.D.spacing)) in
  (max 0 lo, min (lo_n - 1) hi)

let contribution (c : D.cutcp) ~x ~y ~z ~q ix iy iz =
  let gx = float_of_int ix *. c.D.spacing in
  let gy = float_of_int iy *. c.D.spacing in
  let gz = float_of_int iz *. c.D.spacing in
  let dx = gx -. x and dy = gy -. y and dz = gz -. z in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
  if r2 > 0.0 && r2 < c.D.cutoff *. c.D.cutoff then
    let r = sqrt r2 in
    Some (q *. ((1.0 /. r) -. (1.0 /. c.D.cutoff)))
  else None

(* ------------------------------------------------------------------ *)

(* Scatter the atoms of [c] into the z-slab [(s0, planes)] of its grid:
   [grid] holds planes [s0, s0 + planes), plane [s0] first.  The one
   imperative scatter loop: [run_c] is the slab [(0, nz)], and every
   resident node runs it over its own slab. *)
let scatter_slab (c : D.cutcp) (s0, planes) grid =
  let base = grid_index c 0 0 s0 in
  let atoms = Float.Array.length c.D.ax in
  for a = 0 to atoms - 1 do
    let x = Vec.fget c.D.ax a
    and y = Vec.fget c.D.ay a
    and z = Vec.fget c.D.az a
    and q = Vec.fget c.D.aq a in
    let x0, x1 = bounds c x c.D.nx in
    let y0, y1 = bounds c y c.D.ny in
    let z0, z1 = bounds c z c.D.nz in
    for iz = Int.max z0 s0 to Int.min z1 (s0 + planes - 1) do
      for iy = y0 to y1 do
        for ix = x0 to x1 do
          match contribution c ~x ~y ~z ~q ix iy iz with
          | Some v ->
              let g = grid_index c ix iy iz - base in
              Vec.fset grid g (Vec.fget grid g +. v)
          | None -> ()
        done
      done
    done
  done

let run_c (c : D.cutcp) : floatarray =
  let grid = Float.Array.make (D.grid_points c) 0.0 in
  scatter_slab c (0, c.D.nz) grid;
  grid

(* ------------------------------------------------------------------ *)

(* Grid points near one atom, as a fusible nested loop: three nested
   ranges with a filter — irregularity stays in inner steppers while
   the atom loop remains partitionable. *)
let[@fuse] grid_pts (c : D.cutcp) (x, y, z, q) =
  let x0, x1 = bounds c x c.D.nx in
  let y0, y1 = bounds c y c.D.ny in
  let z0, z1 = bounds c z c.D.nz in
  Seq_iter.range z0 (z1 + 1)
  |> Seq_iter.concat_map (fun iz ->
         Seq_iter.range y0 (y1 + 1)
         |> Seq_iter.concat_map (fun iy ->
                Seq_iter.range x0 (x1 + 1)
                |> Seq_iter.filter_map (fun ix ->
                       match contribution c ~x ~y ~z ~q ix iy iz with
                       | Some v -> Some (grid_index c ix iy iz, v)
                       | None -> None)))

(* [c] without its atoms: what task code may capture.  Whatever a
   closure captures reaches the nodes as code bytes, outside the
   accounted payload, so capturing the atom arrays would re-ship the
   atoms beside their slices. *)
let geometry (c : D.cutcp) =
  let none = Float.Array.create 0 in
  { c with ax = none; ay = none; az = none; aq = none }

(* The fused (index, weight) pipeline scatter_add consumes, exposed as
   a plan-reification hook for [triolet analyze]. *)
let[@fuse] pipeline ?(hint = Iter.par) (c : D.cutcp) =
  let atoms =
    Iter.zip_with
      (fun (x, y, z) q -> (x, y, z, q))
      (Iter.zip3
         (Iter.of_floatarray c.D.ax)
         (Iter.of_floatarray c.D.ay)
         (Iter.of_floatarray c.D.az))
      (Iter.of_floatarray c.D.aq)
  in
  Iter.concat_map (grid_pts (geometry c)) (hint atoms)

(* Size taxonomy shared with the auto-mapper: one candidate grid-point
   visit is the work unit. *)
let size_class (c : D.cutcp) =
  let box = int_of_float ((2.0 *. c.D.cutoff /. c.D.spacing) +. 1.0) in
  Mapping.size_class_of_work (Float.Array.length c.D.ax * box * box * box)

(* [%fuse] compiles each atom's z/y/x nest into flat loops over each
   band of atoms. *)
let run_triolet ?ctx ?hint (c : D.cutcp) : floatarray =
  let ctx = Exec.for_kernel ?ctx ~kernel:"cutcp" ~size:(size_class c) () in
  Triolet_obs.Obs.span ~name:"kernel.cutcp" (fun () ->
      [%fuse Iter.scatter_add ~ctx ~size:(D.grid_points c) (pipeline ?hint c)])

(* ------------------------------------------------------------------ *)

let run_eden (c : D.cutcp) : floatarray =
  let module E = Triolet_baselines.Eden_list in
  let to_list a = List.init (Float.Array.length a) (Float.Array.get a) in
  let atoms =
    E.zip (E.zip3 (to_list c.D.ax) (to_list c.D.ay) (to_list c.D.az))
      (to_list c.D.aq)
  in
  let updates =
    E.concat_map
      (fun ((x, y, z), q) ->
        let x0, x1 = bounds c x c.D.nx in
        let y0, y1 = bounds c y c.D.ny in
        let z0, z1 = bounds c z c.D.nz in
        List.concat_map
          (fun iz ->
            List.concat_map
              (fun iy ->
                List.filter_map
                  (fun ix ->
                    match contribution c ~x ~y ~z ~q ix iy iz with
                    | Some v -> Some (grid_index c ix iy iz, v)
                    | None -> None)
                  (List.init (x1 - x0 + 1) (fun k -> x0 + k)))
              (List.init (y1 - y0 + 1) (fun k -> y0 + k)))
          (List.init (z1 - z0 + 1) (fun k -> z0 + k)))
      atoms
  in
  E.weighted_histogram ~bins:(D.grid_points c) updates

(* ------------------------------------------------------------------ *)

let agrees ?(eps = 1e-9) g1 g2 =
  Float.Array.length g1 = Float.Array.length g2
  &&
  let ok = ref true in
  for i = 0 to Float.Array.length g1 - 1 do
    let a = Float.Array.get g1 i and b = Float.Array.get g2 i in
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    if Float.abs (a -. b) > eps *. scale then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)

(* Resident z-slab variant with halo exchange: the grid is decomposed
   into z-slabs, one per node, and the atoms are distributed to the
   slab their z coordinate falls in.  A slab's potential needs its own
   atoms plus the atoms of other slabs within cutoff of its z extent —
   a boundary-plane halo that rides as the slab segment's ghost.  Each
   round ships only what moved: an unchanged slab's atoms are a
   key-sized reuse, an unchanged halo likewise (ghost versions bump
   only on content change), so local perturbations re-ship only the
   affected slab and its neighbours' halos. *)

module Payload = Triolet_base.Payload

module Resident = struct
  type t = {
    res : Skeletons.Resident.t;
    c : D.cutcp;  (* parent-side atom state, mutable under {!displace} *)
    mutable round : int;
  }

  (* The atoms whose z passes [keep], as four planes (x, y, z, q). *)
  let select (c : D.cutcp) keep =
    let sel = ref [] in
    for a = Float.Array.length c.D.ax - 1 downto 0 do
      if keep (Vec.fget c.D.az a) then sel := a :: !sel
    done;
    let pick a = Payload.Floats (Float.Array.of_list (List.map (Vec.fget a) !sel)) in
    [ pick c.D.ax; pick c.D.ay; pick c.D.az; pick c.D.aq ]

  let plane_of_z (c : D.cutcp) z =
    Int.max 0 (Int.min (c.D.nz - 1) (int_of_float (Float.floor (z /. c.D.spacing))))

  (* Atoms owned by slab [(z0, n)]: z falls inside the slab's plane range. *)
  let own_payload c (z0, n) =
    select c (fun z ->
        let iz = plane_of_z c z in
        iz >= z0 && iz < z0 + n)

  (* Halo of slab [(z0, n)]: atoms of other slabs within cutoff of the
     slab's z extent — the only foreign atoms whose contribution can
     reach a grid point of the slab. *)
  let halo_payload (c : D.cutcp) (z0, n) =
    let zlo = (float_of_int z0 *. c.D.spacing) -. c.D.cutoff in
    let zhi = (float_of_int (z0 + n - 1) *. c.D.spacing) +. c.D.cutoff in
    select c (fun z ->
        let iz = plane_of_z c z in
        (iz < z0 || iz >= z0 + n) && z >= zlo && z <= zhi)

  (* Child-side compute: resident = own atoms (4 planes) then halo
     atoms (4 planes); the reply is the slab's grid.  [geom] is a
     {!geometry}, so results cannot bypass the shipped segments. *)
  let work (geom : D.cutcp) ~block ~resident ~arg:_ =
    let grid = Float.Array.make (snd block * geom.D.ny * geom.D.nx) 0.0 in
    let fa = function
      | Payload.Floats f -> f
      | _ -> invalid_arg "Cutcp.Resident: bad atom plane"
    in
    let rec scatter = function
      | [] -> ()
      | ax :: ay :: az :: aq :: rest ->
          scatter_slab { geom with ax = fa ax; ay = fa ay; az = fa az; aq = fa aq } block grid;
          scatter rest
      | _ -> invalid_arg "Cutcp.Resident: bad resident payload"
    in
    scatter resident;
    [ Payload.Floats grid ]

  let exchange_halo t =
    let blocks = Skeletons.Resident.blocks t.res in
    Triolet_runtime.Darray.exchange_halo (Skeletons.Resident.array t.res)
      ~compute:(fun i -> halo_payload t.c blocks.(i))

  let create ?ctx (c : D.cutcp) =
    let geom = geometry c in
    let c =
      {
        c with
        ax = Float.Array.copy c.D.ax;
        ay = Float.Array.copy c.D.ay;
        az = Float.Array.copy c.D.az;
        aq = Float.Array.copy c.D.aq;
      }
    in
    let res =
      Skeletons.Resident.create ?ctx ~len:c.D.nz ~segment:(own_payload c)
        ~work:(work geom) ()
    in
    let t = { res; c; round = 0 } in
    ignore (exchange_halo t);
    t

  (* Move one atom (parent-side state only; {!resync} ships deltas). *)
  let displace t ~atom ~dx ~dy ~dz =
    Vec.fset t.c.D.ax atom (Vec.fget t.c.D.ax atom +. dx);
    Vec.fset t.c.D.ay atom (Vec.fget t.c.D.ay atom +. dy);
    Vec.fset t.c.D.az atom (Vec.fget t.c.D.az atom +. dz)

  (* Re-derive slab contents and halos from the current atom state;
     only slabs and halos whose bytes changed re-ship.  Returns
     (changed slabs, changed halos). *)
  let resync t =
    let slabs = Skeletons.Resident.refresh t.res ~segment:(own_payload t.c) in
    (slabs, exchange_halo t)

  (* One round: compute every slab against its resident atoms + halo
     and reassemble the full grid (slabs are contiguous z ranges). *)
  let potential t =
    t.round <- t.round + 1;
    let out = Float.Array.make (D.grid_points t.c) 0.0 in
    let (), report =
      Skeletons.Resident.round t.res
        ~arg:[ Payload.Ints [| t.round |] ]
        ~merge:(fun () (z0, _) reply ->
          match reply with
          | [ Payload.Floats slab ] ->
              Float.Array.blit slab 0 out (grid_index t.c 0 0 z0) (Float.Array.length slab)
          | _ -> invalid_arg "Cutcp.Resident: bad reply")
        ~init:()
    in
    (out, report)

  let close t = Skeletons.Resident.close t.res
end

(* Gather formulation over a 3-D iterator: for each grid point, sum the
   contributions of every atom within the cutoff.  This is the
   inverse-direction variant GPU implementations of cutcp use (the
   scatter version above matches the paper's CPU code); it exercises
   the Dim3 domain of section 3.3, indexed (z, y, x), with z-slab
   distribution.  O(points x atoms) without a spatial index, so it
   suits small boxes. *)
let run_gather ?(hint = Triolet.Iter.par) (c : D.cutcp) : floatarray =
  let atoms = Float.Array.length c.D.ax in
  let cut2 = c.D.cutoff *. c.D.cutoff in
  let potential (z, y, x) =
    let gx = float_of_int x *. c.D.spacing in
    let gy = float_of_int y *. c.D.spacing in
    let gz = float_of_int z *. c.D.spacing in
    let acc = ref 0.0 in
    for a = 0 to atoms - 1 do
      let dx = gx -. Vec.fget c.D.ax a in
      let dy = gy -. Vec.fget c.D.ay a in
      let dz = gz -. Vec.fget c.D.az a in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      if r2 > 0.0 && r2 < cut2 then
        acc :=
          !acc
          +. Vec.fget c.D.aq a
             *. ((1.0 /. sqrt r2) -. (1.0 /. c.D.cutoff))
    done;
    !acc
  in
  let it =
    Triolet.Iter.init (Triolet.Shape.dim3 c.D.nz c.D.ny c.D.nx) potential
  in
  Triolet.Grid3.data (Triolet.Iter.to_grid (hint it))
