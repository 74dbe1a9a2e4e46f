(** tpacf: two-point angular correlation function (paper, section 4.4):
    DD, DR and RR histograms over angular separations of point pairs,
    binned uniformly in cos(angle). *)

type result = { dd : int array; dr : int array; rr : int array }

val bin_of_dot : bins:int -> float -> int
(** Bin of a pair with the given dot product; clamps to the valid
    range. *)

val run_c : bins:int -> Dataset.tpacf -> result
(** Imperative nested loops with direct histogram updates. *)

val run_triolet :
  ?ctx:Triolet.Exec.t ->
  ?hint:Triolet.Iter.hint ->
  bins:int ->
  Dataset.tpacf ->
  result
(** Follows the paper's Figure 6: a shared [correlation] over a pair
    iterator; a triangular nested comprehension for self-correlation;
    [par] over random sets with [localpar] pair loops inside.  [hint],
    when given, replaces the hint of every pair loop and of the
    random-set iterator ([Iter.Sequential] runs the whole kernel on the
    calling domain). *)

val run_eden : bins:int -> Dataset.tpacf -> result

val agrees : result -> result -> bool

(** {1 Plan-reification hooks}

    The pipelines {!run_triolet}'s [[%fuse]] sites compile, as library
    values built from the same definitions, exposed so [triolet
    analyze] can reify and verify their plans.  Consumed by the library ([Iter.histogram] for DD, a
    summing [Iter.reduce] for DR and RR), each gives {!run_triolet}'s
    stage bit for bit.  [hint] is {!run_triolet}'s. *)

val dd_pipeline :
  ?hint:Triolet.Iter.hint -> bins:int -> Dataset.tpacf -> int Triolet.Iter.t
(** DD's shared-memory triangular pair loop, mapped to bin indices. *)

val dr_pipeline :
  ?hint:Triolet.Iter.hint -> bins:int -> Dataset.tpacf -> int array Triolet.Iter.t
(** DR's distributed reduction over random sets, pre-merge: one
    observed-against-set histogram per shipped set. *)

val rr_pipeline :
  ?hint:Triolet.Iter.hint -> bins:int -> Dataset.tpacf -> int array Triolet.Iter.t
(** RR's distributed reduction over random sets, pre-merge: one
    histogram per shipped set. *)

val self_correlation :
  ?ctx:Triolet.Exec.t ->
  ?hint:Triolet.Iter.hint ->
  bins:int ->
  Dataset.catalog ->
  int array
(** DD's stage as {!run_triolet} runs it: the triangular pair loop of
    one catalog, histogrammed by a [[%fuse]] site. *)

(** {1 Resident multi-round DR}

    The observed catalog's blocks install once in a
    {!Triolet_runtime.Darray} session; each round ships one random set
    only.  Integer histograms with each observed point in exactly one
    block, so {!Resident.dr} equals {!run_c}'s DR exactly. *)
module Resident : sig
  type t

  val create : ?ctx:Triolet.Exec.t -> bins:int -> Dataset.catalog -> t

  val cross :
    t -> Dataset.catalog -> int array * Triolet_runtime.Cluster.report
  (** One warm round: resident observed blocks against one random
      set. *)

  val dr :
    t ->
    Dataset.catalog array ->
    int array * Triolet_runtime.Cluster.report array
  (** Sum of {!cross} over all sets, with the per-round reports (round
      0 pays the observed [Seg_put]s; later rounds ship reuses plus
      one random set). *)

  val close : t -> unit
end
