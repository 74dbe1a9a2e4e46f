(** The collector encoding: an imperative fold whose worker updates its
    output by side effect (paper, section 3.1, "Collectors").

    The only encoding supporting mutation (Figure 1) — histogramming,
    packing variable-length output — at the price of parallelism:
    hybrid iterators use collectors only for the sequential leaves of a
    parallel loop, with private state merged afterwards. *)

type 'a t = { run : ('a -> unit) -> unit }

val empty : 'a t
val singleton : 'a -> 'a t
val of_list : 'a list -> 'a t
val of_array : 'a array -> 'a t
val of_floatarray : floatarray -> float t
val of_stepper : 'a Stepper.t -> 'a t
val of_folder : 'a Folder.t -> 'a t
val range : int -> int -> int t

val map : ('a -> 'b) -> 'a t -> 'b t
val filter : ('a -> bool) -> 'a t -> 'a t
val filter_map : ('a -> 'b option) -> 'a t -> 'b t
val concat_map : ('a -> 'b t) -> 'a t -> 'b t
val append : 'a t -> 'a t -> 'a t

val iter : ('a -> unit) -> 'a t -> unit
val length : 'a t -> int

val to_vec : 'a -> 'a t -> 'a Triolet_base.Vec.t
(** Pack variable-length output into contiguous storage. *)

val to_floatarray : float t -> floatarray
val to_list : 'a t -> 'a list

val histogram : bins:int -> int t -> int array
(** Counts occurrences of each bin index in [0, bins); out-of-range
    indices are ignored. *)

val histogram_into : int array -> int t -> unit
(** Adds the counts into an existing histogram in place; its length is
    the bin count.  A parallel task's private histogram accumulates
    all its ranges this way. *)

val weighted_histogram : bins:int -> (int * float) t -> floatarray
(** Floating-point histogram over (bin, weight) pairs — the cutcp
    pattern. *)

val weighted_histogram_into : floatarray -> (int * float) t -> unit
(** Adds the weights into an existing histogram in place, as
    {!histogram_into}. *)

val sum_float : float t -> float

(** {1 Extended operations} *)

val take : int -> 'a t -> 'a t
(** At most the first [n] elements (the traversal itself still runs to
    completion — collectors cannot stop their producer). *)

val reduce_by_key :
  size:int -> merge:('acc -> 'a -> 'acc) -> init:'acc -> (int * 'a) t ->
  'acc array
(** Keyed reduction into a dense table: the generalization of
    {!histogram} to arbitrary per-key accumulation. *)

val min_float : float t -> float
val max_float : float t -> float
