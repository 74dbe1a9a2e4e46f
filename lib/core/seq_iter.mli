(** Hybrid iterators: the paper's core representation (section 3.2,
    Figure 2).

    A loop nest with an indexer or stepper at each nesting level.
    [filter] and [concat_map] on a flat indexer never reassign indices:
    each input index yields a short (possibly empty) inner stream, so
    irregularity is isolated in inner loops while the outer loop stays
    random-access and partitionable.  [concat_map] builds an [Idx_nest];
    [filter] and [filter_map], whose inner streams hold 0 or 1
    elements, build the fused [Idx_opt] — the paper's
    [IdxNest (mapIdx (filterStep p . unitStep))] run as one counted
    loop with a branch, with no inner stream per element. *)

type 'a t =
  | Idx_flat of (int, 'a) Indexer.t  (** flat, random access *)
  | Idx_opt of (int, 'a option) Indexer.t
      (** flat, random access, lookups that may yield nothing: a
          filtered flat level *)
  | Step_flat of 'a Stepper.t  (** flat, sequential *)
  | Idx_nest of (int, 'a t) Indexer.t  (** random-access outer loop *)
  | Step_nest of 'a t Stepper.t  (** sequential outer loop *)

(** {1 Construction} *)

val empty : 'a t
val singleton : 'a -> 'a t
val of_indexer : (int, 'a) Indexer.t -> 'a t
val of_stepper : 'a Stepper.t -> 'a t
val of_array : 'a array -> 'a t
val of_floatarray : floatarray -> float t
val of_list : 'a list -> 'a t
val range : int -> int -> int t

(** {1 The Figure 2 equations} *)

val to_stepper : 'a t -> 'a Stepper.t
(** [toStep]: demote to a flat sequential stream. *)

val zip : 'a t -> 'b t -> ('a * 'b) t
(** Two flat indexers zip by index (parallelism survives); any other
    combination zips sequentially through steppers. *)

val zip_with : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val map : ('a -> 'b) -> 'a t -> 'b t

val filter : ('a -> bool) -> 'a t -> 'a t
(** On a flat indexer (or an [Idx_opt]): an [Idx_opt] whose lookup
    keeps or drops each element under an unchanged outer index.  Its
    consumers allocate nothing per element beyond the [Some] of a kept
    one. *)

val concat_map : ('a -> 'b t) -> 'a t -> 'b t
(** Adds one nesting level, keeping the outer loop's encoding. *)

val collect : 'a t -> 'a Collector.t
(** Every nesting level becomes a sequential side-effecting loop. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** {1 Derived consumers} *)

val sum_float : float t -> float
val sum_int : int t -> int
val iter : ('a -> unit) -> 'a t -> unit
val length : 'a t -> int
val to_list : 'a t -> 'a list
val to_vec : 'a -> 'a t -> 'a Triolet_base.Vec.t
val to_array : 'a -> 'a t -> 'a array
val to_floatarray : float t -> floatarray
val reduce : ('a -> 'a -> 'a) -> 'a t -> 'a option
(** Left reduction of the elements in order; [None] when empty. *)

(** {1 Outer-loop structure (what the parallel layer needs)} *)

val outer_length : 'a t -> int option
(** Number of outer tasks when the outermost level is random-access. *)

val slice_outer : 'a t -> int -> int -> 'a t
(** Sub-range of a random-access outer loop; raises [Invalid_argument]
    on stepper-headed iterators. *)

(** {1 Extended operations} *)

val filter_map : ('a -> 'b option) -> 'a t -> 'b t
(** Fused map + filter; on a flat indexer its result is the [Idx_opt]
    whose lookup is [f], so it preserves a random-access outer loop like
    {!filter}. *)

val append : 'a t -> 'a t -> 'a t
(** Sequential concatenation (stepper-headed: the combined outer loop
    has no single random-access domain). *)

val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val find : ('a -> bool) -> 'a t -> 'a option
val min_float : float t -> float
val max_float : float t -> float

(** Monadic syntax: [let*] is {!concat_map}, [let+] is {!map}, so nested
    comprehensions read like the paper's examples. *)
module Let_syntax : sig
  val return : 'a -> 'a t
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( and* ) : 'a t -> 'b t -> ('a * 'b) t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( and+ ) : 'a t -> 'b t -> ('a * 'b) t
end

(** {1 Plan reification}

    The element-erased image of an iterator's loop nest, sampled from
    its first outer element where nests are heterogeneous.  This is the
    hook the static plan analyzer ({!Triolet_analysis.Plan}) uses to
    reason about which levels of a fused pipeline kept random access. *)

type shape =
  | Shape_idx_flat of int  (** flat random-access level of that size *)
  | Shape_step_flat  (** flat sequential stream *)
  | Shape_idx_nest of int * shape option
      (** random-access outer level; sampled inner shape ([None] when
          the outer level is empty) *)
  | Shape_step_nest of shape option  (** sequential outer level *)

val shape_of : 'a t -> shape
val shape_to_string : shape -> string

val describe : 'a t -> string
(** [shape_to_string (shape_of it)], e.g. ["IdxNest[6](StepFlat)"].
    An [Idx_opt] renders as the nest it fuses: [IdxNest[n](StepFlat)],
    or [IdxNest[0](empty)].  For inspection and tests. *)

val of_seq : 'a Seq.t -> 'a t
(** Stdlib [Seq] interop (sequential: a [Seq] has no random access). *)

val to_seq : 'a t -> 'a Seq.t
