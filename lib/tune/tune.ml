(* Cost-model-driven auto-mapper.  See tune.mli for the contract.

   The search itself is deliberately free of wall-clock and randomness:
   measurement happens only in [measure] / [tune_instance], so [search]
   and [check] are pure functions of (model, lattice) — which is what
   makes `autotune --check` meaningful in CI and the determinism test
   possible at all. *)

module Cluster = Triolet_runtime.Cluster
module App = Triolet_sim.App_model
module Sim = Triolet_sim.Sched_sim
module Profile = Triolet_sim.Profile
module Netmodel = Triolet_sim.Netmodel
module Kernel = Triolet_kernels.Kernel
module Models = Triolet_kernels.Models
module Mapping = Triolet.Mapping
module Exec = Triolet.Exec

type candidate = {
  nodes : int;
  cores_per_node : int;
  grain : int option;
  backend : Cluster.backend;
}

type score = {
  cand : candidate;
  cluster_s : float;
  host_s : float;
  scatter_bytes : int;
  gather_bytes : int;
}

(* The constructor [Cluster] lives in the constructor namespace, so it
   does not clash with the [Cluster] module alias above. *)
type objective = Host | Cluster

let objective_to_string = function Host -> "host" | Cluster -> "cluster"

let objective_of_string = function
  | "host" -> Some Host
  | "cluster" -> Some Cluster
  | _ -> None

let default_host_cores () = Domain.recommended_domain_count ()

let default_lattice () =
  List.concat_map
    (fun nodes ->
      List.concat_map
        (fun cores_per_node ->
          List.concat_map
            (fun grain ->
              List.map
                (fun backend -> { nodes; cores_per_node; grain; backend })
                [ Cluster.Inprocess; Cluster.Flat; Cluster.Process ])
            [ None; Some 64; Some 256 ])
        [ 1; 2; 4 ])
    [ 1; 2; 4; 8 ]

let calibrate (app : App.t) ~measured_seq =
  let model_seq = App.sequential_time app in
  if model_seq <= 0.0 || measured_seq <= 0.0 then app
  else
    let f = measured_seq /. model_seq in
    {
      app with
      App.task_cost = (fun i -> app.App.task_cost i *. f);
      seq_setup_time = app.App.seq_setup_time *. f;
    }

(* ------------------------------------------------------------------ *)
(* Scoring                                                             *)

(* Per-backend communication constants for the host projection.
   In-process and flat nodes run inline in the caller's session: a
   message costs the payload encode/decode every distributed consumer
   performs and a queue push.  Process nodes are forked once per
   topology and kept warm; a message crosses a socket.  [spawn_s]
   charges every call a start-up cost: 20 us per in-process worker,
   and 12 ms per process node, the price of the fork per node per call
   that the process backend paid before its fabric stayed warm (a warm
   call's dispatch floor is about 1 ms).  The 12 ms stands until the
   auto-mapper's constants are calibrated from measurements, because
   the checked-in mappings were searched with it. *)
let ser_bytes_per_sec = 2e9

let per_message_s = function
  | Cluster.Process -> 2e-4
  | Cluster.Inprocess | Cluster.Flat -> 1e-5

let spawn_s cand =
  match cand.backend with
  | Cluster.Process -> 0.012 *. float_of_int cand.nodes
  | Cluster.Inprocess | Cluster.Flat ->
      2e-5 *. float_of_int (cand.nodes * cand.cores_per_node)

(* Workers the runtime actually fans out to (mirrors
   Cluster.topology_workers). *)
let workers_of cand =
  match cand.backend with
  | Cluster.Flat -> cand.nodes * cand.cores_per_node
  | Cluster.Inprocess | Cluster.Process -> cand.nodes

(* Total concurrent lanes the candidate asks the host for. *)
let lanes_of cand = cand.nodes * cand.cores_per_node

(* Each distributed consumer cuts one block per worker and never
   re-splits it, so every candidate is scored under static blocks. *)
let profile_of cand =
  let p = Profile.triolet ~efficiency:(fun _ -> 1.0) () in
  let net =
    match cand.backend with
    | Cluster.Process -> Netmodel.make ~latency:2e-4 ~bytes_per_sec:8e8 ()
    | Cluster.Inprocess | Cluster.Flat ->
        Netmodel.make ~latency:1e-5 ~bytes_per_sec:ser_bytes_per_sec ()
  in
  { p with Profile.node_scheduling = Profile.Static_blocks; net }

let machine_of cand =
  match cand.backend with
  | Cluster.Flat ->
      { Sim.nodes = cand.nodes * cand.cores_per_node; cores_per_node = 1 }
  | Cluster.Inprocess | Cluster.Process ->
      { Sim.nodes = cand.nodes; cores_per_node = cand.cores_per_node }

(* Local chunks a node's pool dispatches: the explicit grain, or the
   auto formula (Partition.grain targets ~32 chunks per worker). *)
let local_chunks app cand =
  let units = max 1 app.App.tasks in
  match cand.grain with
  | Some g -> (units + (max 1 g - 1)) / max 1 g
  | None -> min units (lanes_of cand * 32)

(* Project a candidate's makespan onto the machine actually running:
   bounded parallel compute with an oversubscription penalty, plus the
   serialization, message, spawn and dispatch costs the abstract
   cluster simulation attributes to free parallel hardware. *)
let host_project ~host_cores app cand (b : Sim.breakdown) =
  let seq = App.sequential_time app in
  let setup = app.App.seq_setup_time in
  let lanes = lanes_of cand in
  let par = float_of_int (max 1 (min host_cores lanes)) in
  let compute = ((seq -. setup) /. par) +. setup in
  let oversub = float_of_int lanes /. float_of_int (max 1 host_cores) in
  let compute =
    if oversub > 1.0 then
      compute *. (1.0 +. (0.04 *. (log oversub /. log 2.0)))
    else compute
  in
  let comm =
    float_of_int (b.Sim.bytes_scattered + b.Sim.bytes_gathered)
    /. ser_bytes_per_sec
  in
  let messages = 2 * workers_of cand in
  let dispatch =
    float_of_int (local_chunks app cand) *. 2e-6
    +. float_of_int (min app.App.tasks cand.nodes) *. 1e-5
  in
  compute +. comm
  +. (float_of_int messages *. per_message_s cand.backend)
  +. spawn_s cand +. dispatch

let score ?host_cores ~app cand =
  let host_cores =
    match host_cores with Some c -> c | None -> default_host_cores ()
  in
  match Sim.run app (profile_of cand) (machine_of cand) with
  | Sim.Failed _ ->
      {
        cand;
        cluster_s = infinity;
        host_s = infinity;
        scatter_bytes = 0;
        gather_bytes = 0;
      }
  | Sim.Completed b ->
      {
        cand;
        cluster_s = b.Sim.total;
        host_s = host_project ~host_cores app cand b;
        scatter_bytes = b.Sim.bytes_scattered;
        gather_bytes = b.Sim.bytes_gathered;
      }

let backend_rank = function
  | Cluster.Inprocess -> 0
  | Cluster.Flat -> 1
  | Cluster.Process -> 2

(* Total deterministic order: objective value, then preference for the
   cheapest-to-realize candidate among ties. *)
let compare_scores objective a b =
  let key s = match objective with Host -> s.host_s | Cluster -> s.cluster_s in
  let c = compare (key a) (key b) in
  if c <> 0 then c
  else
    let tie s =
      ( lanes_of s.cand,
        s.cand.nodes,
        s.cand.cores_per_node,
        (match s.cand.grain with None -> 0 | Some g -> g),
        backend_rank s.cand.backend )
    in
    compare (tie a) (tie b)

let search ?(objective = Host) ?lattice ?host_cores ~app () =
  let lattice =
    match lattice with Some l -> l | None -> default_lattice ()
  in
  let scored = List.map (score ?host_cores ~app) lattice in
  List.stable_sort (compare_scores objective) scored

let ctx_of_candidate cand =
  Exec.make ~nodes:cand.nodes ~cores_per_node:cand.cores_per_node
    ~backend:cand.backend ~grain:cand.grain ()

(* ------------------------------------------------------------------ *)
(* Measurement and per-instance tuning                                 *)

let measure ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to max 1 reps do
    let (), t = Triolet_runtime.Clock.duration f in
    if t < !best then best := t
  done;
  !best

let rates_to_assoc (r : Models.rates) =
  [
    ("mriq_pair_s", r.Models.mriq_pair_s);
    ("sgemm_mac_s", r.Models.sgemm_mac_s);
    ("tpacf_pair_s", r.Models.tpacf_pair_s);
    ("cutcp_point_s", r.Models.cutcp_point_s);
  ]

let rates_of_assoc kvs =
  let get k default =
    match List.assoc_opt k kvs with Some v -> v | None -> default
  in
  {
    Models.mriq_pair_s = get "mriq_pair_s" Models.default_rates.Models.mriq_pair_s;
    sgemm_mac_s = get "sgemm_mac_s" Models.default_rates.Models.sgemm_mac_s;
    tpacf_pair_s = get "tpacf_pair_s" Models.default_rates.Models.tpacf_pair_s;
    cutcp_point_s =
      get "cutcp_point_s" Models.default_rates.Models.cutcp_point_s;
  }

let entry_of_score ~kernel ~size ~seq_s ?measured_s (s : score) =
  let delta =
    match measured_s with
    | Some m when m > 0.0 -> Some (Float.abs (s.host_s -. m) /. m)
    | _ -> None
  in
  {
    Mapping.kernel;
    size;
    nodes = s.cand.nodes;
    cores_per_node = s.cand.cores_per_node;
    backend = Cluster.backend_to_string s.cand.backend;
    grain = s.cand.grain;
    predicted_s = s.host_s;
    cluster_s = s.cluster_s;
    seq_s;
    measured_s;
    delta;
  }

let tune_instance ?(objective = Host) ?lattice ?host_cores ?reps
    ?(validate = true) ~rates (inst : Kernel.instance) =
  let app0 = inst.Kernel.model ~rates () in
  (* One warm-up so dataset construction and code paths are paged in
     before anything is timed. *)
  inst.Kernel.run_seq ();
  let seq_s = measure ?reps inst.Kernel.run_seq in
  let app = calibrate app0 ~measured_seq:seq_s in
  let ranked = search ~objective ?lattice ?host_cores ~app () in
  let best =
    match ranked with
    | best :: _ -> best
    | [] -> invalid_arg "Tune.tune_instance: empty lattice"
  in
  let measured_s =
    if not validate then None
    else
      let ctx = ctx_of_candidate best.cand in
      let run () = inst.Kernel.run_triolet ~ctx () in
      run ();
      Some (measure ?reps run)
  in
  ( entry_of_score ~kernel:inst.Kernel.kernel ~size:inst.Kernel.size ~seq_s
      ?measured_s best,
    ranked )

(* ------------------------------------------------------------------ *)
(* Drift checking                                                      *)

type check_outcome = Check_ok | Check_drift of string list

(* An entry re-scores against the current registry + simulator using
   only data recorded in the file (rates snapshot, measured sequential
   time), so no re-measurement happens here. *)
let check_entry ~objective ~host_cores ~rates (e : Mapping.entry) =
  match Kernel.find e.Mapping.kernel with
  | None -> [ Printf.sprintf "entry %s: kernel not registered" e.Mapping.kernel ]
  | Some (module K) ->
      if not (List.mem e.Mapping.size K.size_classes) then
        [
          Printf.sprintf "entry %s/%s: not a size class of %s (valid: %s)"
            e.Mapping.kernel e.Mapping.size K.name
            (String.concat ", " K.size_classes);
        ]
      else if Cluster.backend_of_string e.Mapping.backend = None then
        [
          Printf.sprintf "entry %s/%s: unknown backend %S" e.Mapping.kernel
            e.Mapping.size e.Mapping.backend;
        ]
      else
        let inst = K.instance ~size:e.Mapping.size () in
        let app =
          calibrate (inst.Kernel.model ~rates ()) ~measured_seq:e.Mapping.seq_s
        in
        let ranked = search ~objective ~host_cores ~app () in
        let key s =
          match objective with Host -> s.host_s | Cluster -> s.cluster_s
        in
        let recorded =
          List.find_opt
            (fun s ->
              s.cand.nodes = e.Mapping.nodes
              && s.cand.cores_per_node = e.Mapping.cores_per_node
              && s.cand.grain = e.Mapping.grain
              && Cluster.backend_to_string s.cand.backend = e.Mapping.backend)
            ranked
        in
        let ctx = Printf.sprintf "entry %s/%s" e.Mapping.kernel e.Mapping.size in
        match (recorded, ranked) with
        | None, _ ->
            [ ctx ^ ": recorded context is no longer in the search lattice" ]
        | Some _, [] -> [ ctx ^ ": empty lattice" ]
        | Some r, best :: _ ->
            let issues = ref [] in
            let rel a b = Float.abs (a -. b) /. Float.max 1e-9 b in
            if rel (key r) e.Mapping.predicted_s > 0.10 then
              issues :=
                Printf.sprintf
                  "%s: cost model moved — re-scored %.4fs vs recorded %.4fs" ctx
                  (key r) e.Mapping.predicted_s
                :: !issues;
            if key r > 1.10 *. key best then
              issues :=
                Printf.sprintf
                  "%s: recorded context no longer near-optimal (%.4fs vs best \
                   %.4fs)"
                  ctx (key r) (key best)
                :: !issues;
            List.rev !issues

let check (file : Mapping.file) =
  let objective =
    match objective_of_string file.Mapping.objective with
    | Some o -> Some o
    | None -> None
  in
  match objective with
  | None ->
      Check_drift
        [ Printf.sprintf "unknown objective %S" file.Mapping.objective ]
  | Some objective ->
      let host_cores = max 1 file.Mapping.host_cores in
      let rates = rates_of_assoc file.Mapping.rates in
      let coverage =
        List.filter_map
          (fun (module K : Kernel.S) ->
            if
              List.exists
                (fun (e : Mapping.entry) ->
                  e.Mapping.kernel = K.name
                  && e.Mapping.size = K.default_size)
                file.Mapping.entries
            then None
            else
              Some
                (Printf.sprintf "kernel %s has no entry at size %s" K.name
                   K.default_size))
          (Kernel.all ())
      in
      let entry_issues =
        List.concat_map
          (check_entry ~objective ~host_cores ~rates)
          file.Mapping.entries
      in
      match coverage @ entry_issues with
      | [] -> Check_ok
      | issues -> Check_drift issues
