(** The checked-in auto-mapping file ([tune/MAPPINGS.json]).

    [autotune] (lib/tune + the CLI) searches candidate execution
    contexts per (kernel, size class) against the simulator and writes
    the winners here; {!Exec.for_kernel} consults the file so kernel
    [run_triolet] calls pick up tuned geometry without any call-site
    change.  The file is advisory: a missing, unparseable, or
    schema-mismatched file is ignored (with a one-shot warning on
    stderr for the latter two), never an error. *)

val schema_version : int
(** Current schema version; files with any other [version] are
    ignored by the runtime loader and rejected by [autotune --check]. *)

type entry = {
  kernel : string;  (** registry name, e.g. ["mri-q"] *)
  size : string;  (** size class, e.g. ["small"] *)
  nodes : int;
  cores_per_node : int;
  backend : string;  (** ["inprocess"] | ["flat"] | ["process"] *)
  grain : int option;
  predicted_s : float;  (** host-projected predicted makespan, seconds *)
  cluster_s : float;  (** abstract-cluster simulated makespan, seconds *)
  seq_s : float;  (** measured sequential run used to calibrate costs *)
  measured_s : float option;  (** validation run at the tuned context *)
  delta : float option;
      (** |predicted - measured| / measured, when validated *)
}

type file = {
  version : int;
  objective : string;  (** ["host"] or ["cluster"] — the ranking axis *)
  host_cores : int;  (** cores of the machine the file was tuned on *)
  rates : (string * float) list;  (** reference-rate snapshot *)
  entries : entry list;
}

val to_json : file -> Triolet_obs.Json.t
val of_json : Triolet_obs.Json.t -> (file, string) result

val save : string -> file -> unit
(** Pretty-printed through {!Triolet_obs.Json}; creates parent dirs. *)

val load : string -> (file, string) result
(** [Error] covers unreadable, unparseable, and schema-mismatched
    files; the message says which. *)

val lookup : file -> kernel:string -> size:string -> entry option

val size_class_of_work : int -> string
(** Shared size taxonomy: the class of an instance doing [w] inner
    work units — ["tiny"] below [2^21], ["small"] below [2^28],
    ["paper"] above.  Kernels and the registry both classify through
    this so runtime lookups hit the tuned entries. *)

val default_path : unit -> string option
(** [TRIOLET_MAPPINGS] when set (empty string disables); otherwise the
    nearest [tune/MAPPINGS.json] walking up from the current
    directory. *)

val loaded : unit -> file option
(** Lazily loaded singleton from {!default_path}.  Load failures warn
    once on stderr and read as [None]. *)

val reload : unit -> unit
(** Drop the cached singleton (and the warn-once latch) so the next
    {!loaded} re-reads the environment — for tests. *)
