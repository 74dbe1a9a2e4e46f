(** cutcp: cutoff Coulombic potential on a 3-D grid (paper, sections 1
    and 4.5) — the motivating floating-point histogram: a parallel loop
    over atoms, an irregular inner loop over nearby grid points, and a
    scatter-add of contributions q * (1/r - 1/c). *)

val grid_index : Dataset.cutcp -> int -> int -> int -> int
(** Linear index of grid point (ix, iy, iz). *)

val run_c : Dataset.cutcp -> floatarray
(** Nested loops and conditionals over unboxed arrays. *)

val run_triolet :
  ?ctx:Triolet.Exec.t ->
  ?hint:
    ((float * float * float * float) Triolet.Iter.t ->
     (float * float * float * float) Triolet.Iter.t) ->
  Dataset.cutcp ->
  floatarray
(** atoms |> par |> concat_map gridPts |> scatter_add — the paper's
    [floatHist [f a r | a <- atoms, r <- gridPts a]], compiled by a
    [[%fuse]] site.  [hint] defaults to [Iter.par]. *)

val pipeline :
  ?hint:
    ((float * float * float * float) Triolet.Iter.t ->
     (float * float * float * float) Triolet.Iter.t) ->
  Dataset.cutcp ->
  (int * float) Triolet.Iter.t
(** Plan-reification hook: the (index, weight) pipeline
    {!run_triolet}'s [[%fuse]] site compiles, as a library value.
    [Iter.scatter_add] over it gives {!run_triolet}'s grid, bit for bit
    under [Iter.sequential]. *)

val run_eden : Dataset.cutcp -> floatarray

val agrees : ?eps:float -> floatarray -> floatarray -> bool

val run_gather :
  ?hint:
    ((int * int * int, float) Triolet.Iter.iter ->
    (int * int * int, float) Triolet.Iter.iter) ->
  Dataset.cutcp ->
  floatarray
(** Gather formulation over a 3-D iterator indexed (z, y, x) (one sum
    per grid point, the GPU-style variant), distributed in z-slabs.
    Agrees with {!run_c} up to floating-point rounding. *)

(** {1 Resident z-slabs with halo exchange}

    Grid z-slabs one per node; each slab's atoms install once as a
    resident segment, and the foreign atoms within cutoff of the
    slab's z extent ride as its ghost (the halo).  {!Resident.displace}
    + {!Resident.resync} re-ship only the slabs and halos whose
    contents changed, so a local perturbation costs a handful of atom
    records per round instead of the whole atom set. *)
module Resident : sig
  type t

  val create : ?ctx:Triolet.Exec.t -> Dataset.cutcp -> t

  val potential : t -> floatarray * Triolet_runtime.Cluster.report
  (** One round: every slab computes from resident atoms + halo; slabs
      reassemble into the full grid.  Agrees with {!run_c} up to
      floating-point rounding (per-point summation order differs). *)

  val displace : t -> atom:int -> dx:float -> dy:float -> dz:float -> unit
  (** Move one atom in the parent-side state; nothing ships until
      {!resync}. *)

  val resync : t -> int * int
  (** Re-derive slab contents and halos; only changed ones re-ship.
      Returns (changed slabs, changed halos). *)

  val close : t -> unit
end
