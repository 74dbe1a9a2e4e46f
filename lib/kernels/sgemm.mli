(** sgemm: scaled dense matrix product C = alpha * A * B (paper, section
    4.3), with B transposed first so inner loops run over contiguous
    memory. *)

val run_c : ?alpha:float -> Triolet.Matrix.t -> Triolet.Matrix.t -> Triolet.Matrix.t
(** Imperative loop nest over unboxed arrays. *)

type matrix_iter = (int * int, float) Triolet.Iter.iter
(** A 2-D float iterator: what {!run_triolet}'s [to_matrix] consumes. *)

val run_triolet :
  ?ctx:Triolet.Exec.t ->
  ?alpha:float ->
  ?hint:(matrix_iter -> matrix_iter) ->
  Triolet.Matrix.t ->
  Triolet.Matrix.t ->
  Triolet.Matrix.t
(** The paper's two-line rows/outerproduct version; transposition runs
    [localpar] over shared memory, or sequentially when [hint] sets
    [Iter.Sequential].  [hint] defaults to [Iter.par], and only the hint
    it sets is read.  The build is a [[%fuse]] site over {!pipeline}'s
    definition: each band is a loop nest over the two row blocks it
    reads, computing 2×2 blocks of dots per pass over k, each dot
    summing in {!run_c}'s order, so the two agree bit for bit. *)

val tile :
  ?ctx:Triolet.Exec.t ->
  alpha:float ->
  hint:Triolet.Iter.hint ->
  Triolet.Matrix.t ->
  Triolet.Matrix.t ->
  Triolet.Matrix.t
(** [tile ~alpha ~hint a bt]: {!run_triolet}'s fused build over A and B
    already transposed, under hint [hint] — the compiled stage, without
    the kernel's transposition, span or mapping lookup.  The resident
    nodes run it too, sequentially, on their row blocks. *)

val pipeline :
  ?alpha:float ->
  ?hint:(matrix_iter -> matrix_iter) ->
  Triolet.Matrix.t ->
  Triolet.Matrix.t ->
  matrix_iter
(** Plan-reification hook: the 2-D dot-product iterator over A and B
    already transposed, the definition {!run_triolet}'s fused build
    inlines.  [Iter.to_matrix] over it is the library form of that
    build. *)

val run_eden : ?alpha:float -> Triolet.Matrix.t -> Triolet.Matrix.t -> Triolet.Matrix.t
(** The paper's Eden style: boxed lists of unboxed row vectors
    ("chunked form"), sequential boxed transposition. *)

val agrees : ?eps:float -> Triolet.Matrix.t -> Triolet.Matrix.t -> bool

(** Resident iterative variant for [C_r = alpha * A * B_r] loops: A's
    row blocks install once in a {!Triolet_runtime.Darray} session and
    every {!Resident.multiply} ships only B (transposed) plus key-sized
    reuse envelopes — when A dwarfs B, per-round scatter bytes
    collapse.  Under the [Process] backend create before any domain is
    spawned. *)
module Resident : sig
  type t

  val create : ?ctx:Triolet.Exec.t -> ?alpha:float -> Triolet.Matrix.t -> t

  val multiply :
    t -> Triolet.Matrix.t -> Triolet.Matrix.t * Triolet_runtime.Cluster.report
  (** One round: ship B, compute row blocks against resident A with
      {!tile}, gather C (bit for bit {!run_c}'s product).  The first
      call's report counts A's [Seg_put]s; later calls count only
      reuses plus B. *)

  val update_a : t -> Triolet.Matrix.t -> int
  (** Replace A (same shape); returns how many row blocks actually
      changed — exactly those re-ship on the next multiply. *)

  val close : t -> unit
end
