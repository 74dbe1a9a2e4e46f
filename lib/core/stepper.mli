(** The stepper encoding: a fusible stream with two faces (paper,
    section 3.1, "Steppers").

    The pull face is classic stream fusion in the style of Coutts et
    al.: a suspended loop state plus a step function yielding one
    element per resumption.  Steppers are inherently sequential: only
    the "next" element is reachable, so they cannot be partitioned
    (Figure 1: Parallel = no), but [Skip] makes variable-length
    producers like [filter] fusible.

    Since the indexed-stream-fusion rewrite each stepper also carries a
    push face — a polymorphic fold that runs the whole loop — which
    every one-pass consumer uses.  Pushed pipelines compose into plain
    nested loops with no per-element step constructors; only genuinely
    demand-driven consumers ([zip], [take], [find], [equal], [Seq]
    interop) pay pull-face costs. *)

type ('a, 's) step =
  | Yield of 'a * 's  (** an element and the next state *)
  | Skip of 's  (** no element this step (a filtered-out iteration) *)
  | Done

type 'a push = { push : 'acc. ('acc -> 'a -> 'acc) -> 'acc -> 'acc }
[@@unboxed]
(** The push face: a total fold over the stream's elements.  Must be
    restartable — invoking [push] twice folds the same sequence
    twice. *)

type 'a t
(** A stream carrying both faces. *)

(** {1 Construction} *)

val empty : 'a t
val singleton : 'a -> 'a t
(** One element: [unitStep] in the paper's filter equation. *)

val make : 's -> ('s -> ('a, 's) step) -> 'a push -> 'a t
(** Build from both faces.  The push face must fold exactly the
    sequence the pull face yields. *)

val unfold : 's -> ('s -> ('a, 's) step) -> 'a t
(** Build from a pull face alone; the push face is derived by driving
    the step function to exhaustion. *)

val range : int -> int -> int t
(** [range lo hi] yields [lo], ..., [hi - 1]. *)

val of_array : 'a array -> 'a t
val of_floatarray : floatarray -> float t
val of_list : 'a list -> 'a t

(** {1 Fusible transformations} *)

val map : ('a -> 'b) -> 'a t -> 'b t
val filter : ('a -> bool) -> 'a t -> 'a t
val filter_map : ('a -> 'b option) -> 'a t -> 'b t

val zip : 'a t -> 'b t -> ('a * 'b) t
(** Holds at most one pending left element while the right stream
    catches up; skips compose.  Inherently pull-driven. *)

val zip_with : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** Like [zip] but applies [f] to the pending pair directly — no
    intermediate tuple is built. *)

val enumerate : 'a t -> (int * 'a) t
val append : 'a t -> 'a t -> 'a t

val concat_map : ('a -> 'b t) -> 'a t -> 'b t
(** Nested traversal.  On the pull face the state carries the suspended
    inner stepper (Figure 1's "slow" cell); on the push face the inner
    stream's loop runs inside the outer worker — a clean nested loop. *)

val concat : 'a t t -> 'a t
val take : int -> 'a t -> 'a t
val drop : int -> 'a t -> 'a t

(** {1 Consumers} *)

val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
(** Runs on the push face. *)

val iter : ('a -> unit) -> 'a t -> unit
val length : 'a t -> int
val to_list : 'a t -> 'a list
val to_vec : 'a -> 'a t -> 'a Triolet_base.Vec.t

val sum_float : float t -> float
(** Accumulates through a single mutable float cell so the running sum
    stays unboxed. *)

val sum_int : int t -> int

(** {1 Extended operations} *)

val take_while : ('a -> bool) -> 'a t -> 'a t
val drop_while : ('a -> bool) -> 'a t -> 'a t

val scan : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b t
(** Prefix accumulation: yields the running accumulator after each
    element (a fusible sequential scan). *)

val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool

val find : ('a -> bool) -> 'a t -> 'a option
(** First matching element; stops stepping early (pull face). *)

val min_float : float t -> float
(** [infinity] on empty input. *)

val max_float : float t -> float

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Elementwise comparison of the yielded sequences (pull face). *)

val of_seq : 'a Seq.t -> 'a t
(** Interop with the standard library's on-demand sequences. *)

val to_seq : 'a t -> 'a Seq.t
