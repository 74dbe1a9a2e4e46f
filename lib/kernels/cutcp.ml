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

let run_c (c : D.cutcp) : floatarray =
  let grid = Float.Array.make (D.grid_points c) 0.0 in
  let atoms = Float.Array.length c.D.ax in
  for a = 0 to atoms - 1 do
    let x = Vec.fget c.D.ax a
    and y = Vec.fget c.D.ay a
    and z = Vec.fget c.D.az a
    and q = Vec.fget c.D.aq a in
    let x0, x1 = bounds c x c.D.nx in
    let y0, y1 = bounds c y c.D.ny in
    let z0, z1 = bounds c z c.D.nz in
    for iz = z0 to z1 do
      for iy = y0 to y1 do
        for ix = x0 to x1 do
          match contribution c ~x ~y ~z ~q ix iy iz with
          | Some v ->
              let g = grid_index c ix iy iz in
              Vec.fset grid g (Vec.fget grid g +. v)
          | None -> ()
        done
      done
    done
  done;
  grid

(* ------------------------------------------------------------------ *)

(* Grid points near one atom, as a fusible nested loop: three nested
   ranges with a filter — irregularity stays in inner steppers while
   the atom loop remains partitionable. *)
let grid_pts (c : D.cutcp) (x, y, z, q) =
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

(* The fused (index, weight) pipeline scatter_add consumes, exposed as
   a plan-reification hook for [triolet analyze]. *)
let pipeline ?(hint = Iter.par) (c : D.cutcp) =
  let atoms =
    Iter.zip_with
      (fun (x, y, z) q -> (x, y, z, q))
      (Iter.zip3
         (Iter.of_floatarray c.D.ax)
         (Iter.of_floatarray c.D.ay)
         (Iter.of_floatarray c.D.az))
      (Iter.of_floatarray c.D.aq)
  in
  Iter.concat_map (grid_pts c) (hint atoms)

(* Size taxonomy shared with the auto-mapper: one candidate grid-point
   visit is the work unit. *)
let size_class (c : D.cutcp) =
  let box = int_of_float ((2.0 *. c.D.cutoff /. c.D.spacing) +. 1.0) in
  Mapping.size_class_of_work (Float.Array.length c.D.ax * box * box * box)

let run_triolet ?ctx ?hint (c : D.cutcp) : floatarray =
  let ctx = Exec.for_kernel ?ctx ~kernel:"cutcp" ~size:(size_class c) () in
  Triolet_obs.Obs.span ~name:"kernel.cutcp" (fun () ->
      Iter.scatter_add ~ctx ~size:(D.grid_points c) (pipeline ?hint c))

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

module Darray = Triolet_runtime.Darray
module Payload = Triolet_base.Payload

module Resident = struct
  (* Scalar geometry only — the closure forks into the children, and
     capturing the atom arrays would let results bypass the shipped
     segments. *)
  type geom = {
    nx : int;
    ny : int;
    nz : int;
    spacing : float;
    cutoff : float;
    zblocks : (int * int) array;  (* (z0, planes) per slab/node *)
  }

  type t = {
    session : Darray.session;
    arr : Darray.t;
    g : geom;
    (* Parent-side atom state, mutable under {!displace}. *)
    ax : floatarray;
    ay : floatarray;
    az : floatarray;
    aq : floatarray;
    mutable own_payloads : Payload.t array;  (* shipped state, to diff *)
    mutable round : int;
  }

  let quad_payload (sel : int list) ax ay az aq =
    let pick a = Float.Array.of_list (List.map (Vec.fget a) sel) in
    [
      Payload.Floats (pick ax);
      Payload.Floats (pick ay);
      Payload.Floats (pick az);
      Payload.Floats (pick aq);
    ]

  let slab_of_z g z =
    let iz = int_of_float (Float.floor (z /. g.spacing)) in
    let iz = max 0 (min (g.nz - 1) iz) in
    let s = ref 0 in
    Array.iteri
      (fun i (z0, n) -> if n > 0 && iz >= z0 && iz < z0 + n then s := i)
      g.zblocks;
    !s

  (* Atoms owned by slab [s]: z falls inside the slab's plane range. *)
  let own_payload_of g ax ay az aq s =
    let sel = ref [] in
    for a = Float.Array.length ax - 1 downto 0 do
      if slab_of_z g (Vec.fget az a) = s then sel := a :: !sel
    done;
    quad_payload !sel ax ay az aq

  (* Halo of slab [s]: atoms of other slabs within cutoff of the
     slab's z extent — the only foreign atoms whose contribution can
     reach a grid point of the slab. *)
  let halo_payload_of g ax ay az aq s =
    let z0, n = g.zblocks.(s) in
    if n = 0 then quad_payload [] ax ay az aq
    else begin
      let zlo = (float_of_int z0 *. g.spacing) -. g.cutoff in
      let zhi = (float_of_int (z0 + n - 1) *. g.spacing) +. g.cutoff in
      let sel = ref [] in
      for a = Float.Array.length ax - 1 downto 0 do
        let z = Vec.fget az a in
        if slab_of_z g z <> s && z >= zlo && z <= zhi then sel := a :: !sel
      done;
      quad_payload !sel ax ay az aq
    end

  let own_payload t s = own_payload_of t.g t.ax t.ay t.az t.aq s
  let halo_payload t s = halo_payload_of t.g t.ax t.ay t.az t.aq s

  (* Child-side compute: resident = own atoms (4 planes) then halo
     atoms (4 planes); the reply is the slab's grid. *)
  let work (g : geom) ~node ~resident ~arg:_ =
    let z0, nzs = g.zblocks.(node) in
    let grid = Float.Array.make (nzs * g.ny * g.nx) 0.0 in
    let fa = function
      | Payload.Floats f -> f
      | _ -> invalid_arg "Cutcp.Resident: bad atom plane"
    in
    let groups =
      match resident with
      | [ ax; ay; az; aq ] -> [ (fa ax, fa ay, fa az, fa aq) ]
      | [ ax; ay; az; aq; gx; gy; gz; gq ] ->
          [ (fa ax, fa ay, fa az, fa aq); (fa gx, fa gy, fa gz, fa gq) ]
      | _ -> invalid_arg "Cutcp.Resident: bad resident payload"
    in
    if nzs > 0 then
      List.iter
        (fun (ax, ay, az, aq) ->
          for a = 0 to Float.Array.length ax - 1 do
            let x = Vec.fget ax a
            and y = Vec.fget ay a
            and z = Vec.fget az a
            and q = Vec.fget aq a in
            let x0 =
              max 0 (int_of_float (ceil ((x -. g.cutoff) /. g.spacing)))
            and x1 =
              min (g.nx - 1)
                (int_of_float (floor ((x +. g.cutoff) /. g.spacing)))
            in
            let y0 =
              max 0 (int_of_float (ceil ((y -. g.cutoff) /. g.spacing)))
            and y1 =
              min (g.ny - 1)
                (int_of_float (floor ((y +. g.cutoff) /. g.spacing)))
            in
            let z0' =
              max z0 (int_of_float (ceil ((z -. g.cutoff) /. g.spacing)))
            and z1' =
              min
                (z0 + nzs - 1)
                (int_of_float (floor ((z +. g.cutoff) /. g.spacing)))
            in
            for iz = z0' to z1' do
              for iy = y0 to y1 do
                for ix = x0 to x1 do
                  let gx = float_of_int ix *. g.spacing in
                  let gy = float_of_int iy *. g.spacing in
                  let gz = float_of_int iz *. g.spacing in
                  let dx = gx -. x and dy = gy -. y and dz = gz -. z in
                  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
                  if r2 > 0.0 && r2 < g.cutoff *. g.cutoff then begin
                    let i = ((((iz - z0) * g.ny) + iy) * g.nx) + ix in
                    Vec.fset grid i
                      (Vec.fget grid i
                      +. (q *. ((1.0 /. sqrt r2) -. (1.0 /. g.cutoff))))
                  end
                done
              done
            done
          done)
        groups;
    [ Payload.Floats grid ]

  let create ?ctx (c : D.cutcp) =
    let zblocks = Skeletons.resident_blocks ?ctx ~len:c.D.nz () in
    let g =
      {
        nx = c.D.nx;
        ny = c.D.ny;
        nz = c.D.nz;
        spacing = c.D.spacing;
        cutoff = c.D.cutoff;
        zblocks;
      }
    in
    let session = Skeletons.resident_session ?ctx ~work:(work g) () in
    let ax = Float.Array.copy c.D.ax
    and ay = Float.Array.copy c.D.ay
    and az = Float.Array.copy c.D.az
    and aq = Float.Array.copy c.D.aq in
    let own =
      Array.init (Array.length zblocks) (own_payload_of g ax ay az aq)
    in
    let arr = Darray.create session ~segments:own in
    let t = { session; arr; g; ax; ay; az; aq; own_payloads = own; round = 0 }
    in
    ignore (Darray.exchange_halo t.arr ~compute:(halo_payload t));
    t

  (* Move one atom (parent-side state only; {!resync} ships deltas). *)
  let displace t ~atom ~dx ~dy ~dz =
    Vec.fset t.ax atom (Vec.fget t.ax atom +. dx);
    Vec.fset t.ay atom (Vec.fget t.ay atom +. dy);
    Vec.fset t.az atom (Vec.fget t.az atom +. dz)

  (* Re-derive slab contents and halos from the current atom state;
     only slabs and halos whose bytes changed re-ship.  Returns
     (changed slabs, changed halos). *)
  let resync t =
    let slabs = ref 0 in
    Array.iteri
      (fun i old ->
        let p = own_payload t i in
        if p <> old then begin
          t.own_payloads.(i) <- p;
          Darray.update t.arr i p;
          incr slabs
        end)
      t.own_payloads;
    let halos = Darray.exchange_halo t.arr ~compute:(halo_payload t) in
    (!slabs, halos)

  (* One round: compute every slab against its resident atoms + halo
     and reassemble the full grid (slabs are contiguous z ranges, so
     node-order replies concatenate). *)
  let potential t =
    t.round <- t.round + 1;
    let out = Float.Array.make (t.g.nx * t.g.ny * t.g.nz) 0.0 in
    let node = ref 0 in
    let (), report =
      Darray.run1 t.arr
        ~arg:(fun _ -> [ Payload.Ints [| t.round |] ])
        ~merge:(fun () reply ->
          let slab =
            match reply with
            | [ Payload.Floats f ] -> f
            | _ -> invalid_arg "Cutcp.Resident: bad reply"
          in
          let z0, _ = t.g.zblocks.(!node) in
          Float.Array.blit slab 0 out
            (z0 * t.g.ny * t.g.nx)
            (Float.Array.length slab);
          incr node)
        ~init:()
    in
    (out, report)

  let close t = Darray.close_session t.session
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
