(** First-class kernel registry.

    Each benchmark kernel is a {!S} module: a name, its size classes,
    and an {!instance} constructor bundling every way the toolchain
    consumes a kernel — reference/Eden/Triolet runners, a sequential
    calibration runner, a correctness check, plan-reification pipelines
    for the analyzer, and a simulator model of the instance.  The CLI,
    bench harness, analyzer driver and auto-mapper enumerate kernels
    through {!all} instead of hand-written per-kernel match arms, so a
    new kernel registers once and appears everywhere. *)

(** An analyzer hook: the fused pipeline a kernel's consumer executes,
    over any domain, existentially packed so the registry needs no
    dependency on the analysis library (which reifies these with
    [Plan.of_iter]). *)
type pipeline = Pipe : ('i, 'a) Triolet.Iter.iter -> pipeline

type instance = {
  kernel : string;  (** registry name *)
  size : string;  (** size class this instance realizes *)
  work_units : int;  (** inner work units ({!Triolet.Mapping} taxonomy) *)
  run_ref : unit -> unit;  (** the sequential-C reference *)
  run_eden : unit -> unit;  (** the Eden-style baseline *)
  run_triolet : ?ctx:Triolet.Exec.t -> unit -> unit;
  run_seq : unit -> unit;
      (** the Triolet pipeline under a sequential hint: every loop runs
          on the calling domain, no pool and no cluster — what the
          auto-mapper calibrates per-unit costs from *)
  check_seq : unit -> bool;
      (** runs {!run_seq}'s pipeline and compares its result with the
          sequential-C reference's *)
  check : ?ctx:Triolet.Exec.t -> unit -> bool;
      (** runs the Triolet version and compares against the first run's
          result (computed on first call — call once up front to pin
          the reference before perturbing the ambient context) *)
  pipelines : unit -> (string * pipeline) list;
      (** named plan-reification hooks for the analyzer *)
  model : ?rates:Models.rates -> unit -> Triolet_sim.App_model.t;
      (** simulator model of exactly this instance *)
}

module type S = sig
  val name : string
  val size_classes : string list
  (** valid [~size] arguments, smallest first; each equals the
      {!Triolet.Mapping.size_class_of_work} class of the instance it
      names, so runtime mapping lookups hit tuned entries *)

  val default_size : string
  (** the class [autotune] tunes by default *)

  val instance : ?seed:int -> size:string -> unit -> instance
  (** Datasets are derived deterministically from [seed] and built
      lazily on first use.  Raises [Invalid_argument] on an unknown
      [size], listing the valid classes. *)
end

val register : (module S) -> unit
(** Later registrations of an existing name shadow earlier ones. *)

val all : unit -> (module S) list
(** Registration order; pre-seeded with mri-q, sgemm, tpacf, cutcp. *)

val find : string -> (module S) option
val names : unit -> string list
