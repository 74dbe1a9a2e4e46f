(** Immutable execution contexts.

    Cluster geometry, transport backend, fault plan, grain policy —
    everything that answers *where and how* a skeleton runs lives in one
    immutable record, threaded through skeleton consumers as [?ctx], the
    way an MPI launch configuration does for the paper's runtime; *what*
    runs stays in the iterator pipeline itself.

    There is still one ambient context (the default for consumers called
    without [?ctx]), but it is a stack of whole values, not a bag of
    independently mutable cells: {!with_context} swaps the entire record
    and restores it exception-safely, so no combination of nested
    overrides can leave a half-updated configuration behind.

    Kernels resolve their context through {!for_kernel}, which layers in
    the checked-in auto-mapping file ({!Mapping}) when the caller has
    not pinned a context explicitly.  Precedence, strongest first:
    explicit [?ctx]; an explicitly installed ambient ({!set_ambient} /
    {!with_context}); the [TRIOLET_BACKEND] environment variable (for
    the backend field only); the mapping entry; {!default}. *)

module Cluster = Triolet_runtime.Cluster
module Fault = Triolet_runtime.Fault

type t = {
  nodes : int;  (** simulated cluster nodes *)
  cores_per_node : int;  (** cores (pool width) within each node *)
  backend : Cluster.backend;  (** transport realizing the geometry *)
  faults : Fault.spec option;  (** fault-injection plan, if any *)
  grain : int option;  (** scheduler grain override *)
  chunk_multiplier : int;  (** over-decomposition for pre-chunked loops *)
  deadline : float option;
      (** per-request compute budget in seconds for the long-lived
          service; [None] means no deadline *)
  queue_bound : int;  (** service admission-queue high-water mark *)
}

(* The backend can be selected from outside via TRIOLET_BACKEND
   ("inprocess" | "flat" | "process"), which is how `dune runtest` and
   the CLI exercise the whole iterator stack over the process transport
   without touching call sites.  A value that names no backend fails
   loudly: a typo ("proces") silently running everything in-process is
   exactly the kind of mapping bug this layer exists to prevent. *)
let env_backend () =
  match Sys.getenv_opt "TRIOLET_BACKEND" with
  | None | Some "" -> None
  | Some s -> (
      match Cluster.backend_of_string s with
      | Some b -> Some b
      | None ->
          invalid_arg
            (Printf.sprintf
               "TRIOLET_BACKEND=%S is not a known backend (valid values: \
                inprocess, flat, process)"
               s))

let default () =
  {
    nodes = 4;
    cores_per_node = 2;
    backend = Option.value (env_backend ()) ~default:Cluster.Inprocess;
    faults = None;
    grain = None;
    chunk_multiplier = 4;
    deadline = None;
    queue_bound = 64;
  }

(* Created lazily so the environment is read at first use, after a CLI
   has had the chance to set it.  [ambient_explicit] distinguishes "the
   ambient is just the materialized default" from "someone deliberately
   installed a context": the mapping file only applies in the former
   case, so a test or CLI flag that pins geometry is never second-
   guessed by a checked-in file. *)
let ambient : t option ref = ref None
let ambient_explicit = ref false

let current () =
  match !ambient with
  | Some c -> c
  | None ->
      let c = default () in
      ambient := Some c;
      c

let set_ambient c =
  ambient := Some c;
  ambient_explicit := true

let with_context c f =
  let old = !ambient and old_explicit = !ambient_explicit in
  ambient := Some c;
  ambient_explicit := true;
  Fun.protect
    ~finally:(fun () ->
      ambient := old;
      ambient_explicit := old_explicit)
    f

let resolve = function Some c -> c | None -> current ()

let make ?nodes ?cores_per_node ?backend ?faults ?grain ?chunk_multiplier
    ?deadline ?queue_bound () =
  let base = current () in
  (match queue_bound with
  | Some b when b < 1 -> invalid_arg "Exec.make: queue_bound < 1"
  | _ -> ());
  {
    nodes = Option.value nodes ~default:base.nodes;
    cores_per_node = Option.value cores_per_node ~default:base.cores_per_node;
    backend = Option.value backend ~default:base.backend;
    faults = (match faults with Some f -> f | None -> base.faults);
    grain = (match grain with Some g -> g | None -> base.grain);
    chunk_multiplier =
      Option.value chunk_multiplier ~default:base.chunk_multiplier;
    deadline = (match deadline with Some d -> d | None -> base.deadline);
    queue_bound = Option.value queue_bound ~default:base.queue_bound;
  }

let topology c =
  {
    Cluster.nodes = c.nodes;
    cores_per_node = c.cores_per_node;
    backend = c.backend;
  }

let worker_count c = Cluster.topology_workers (topology c)

(* Context for one kernel invocation: the auto-mapping hook.  Only
   consulted when nothing stronger pinned a context — see the module
   comment for the full precedence chain. *)
let for_kernel ?ctx ~kernel ~size () =
  match ctx with
  | Some c -> c
  | None when !ambient_explicit -> current ()
  | None -> (
      match Mapping.loaded () with
      | None -> current ()
      | Some file -> (
          match Mapping.lookup file ~kernel ~size with
          | None -> current ()
          | Some e ->
              let base = current () in
              let backend =
                match env_backend () with
                | Some b -> b
                | None -> (
                    match Cluster.backend_of_string e.Mapping.backend with
                    | Some b -> b
                    | None -> base.backend)
              in
              {
                base with
                nodes = max 1 e.Mapping.nodes;
                cores_per_node = max 1 e.Mapping.cores_per_node;
                backend;
                grain = e.Mapping.grain;
                chunk_multiplier = max 1 e.Mapping.chunk_multiplier;
              }))
