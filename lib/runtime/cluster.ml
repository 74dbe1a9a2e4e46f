(** Two-level distributed runtime: scatter/gather jobs on dispatch
    sessions.

    The paper's runtime distributes large units of work to cluster nodes
    over MPI, then subdivides each unit across cores with work-stealing
    threads (section 3.4).  Nodes here exchange *only* serialized
    bytes: payloads are encoded, shipped, and decoded into structurally
    fresh buffers, so a task can never touch the sender's memory.  Task
    *code* travels as closure bytes (serializing code is what the
    Triolet compiler adds); task *data* always travels as payload.

    A run is one job on a {!Dispatch} session, which owns the frames
    and the node code; this module keeps the topology's session config
    and the merge order.  In-process nodes run inline on a session that
    lives for the call.  Process nodes run on a session leased from the
    warm fabric ({!Dispatch.lease}) for the call: the first process
    caller of a topology — a call, a {!Darray} session or a {!Service}
    — forks one child per node, and every later one runs on the same
    children, which receive the call's code in a [Code] frame.  A fault
    plan gets a private session, closed after the call, so injected
    crashes never reach the warm children.  The engine owns checksums,
    retries, deduplication and recovery, so the fault-free and
    fault-injected paths are the same code. *)

module Obs = Triolet_obs.Obs

(* Execution backends.  [Flat] is the in-process transport with Eden's
   flat process view (one logical worker per core, no intra-node pool).
   [Process] is the real multi-process transport: one forked OS process
   per node, socketpair channels, a private pool per child. *)
type backend =
  | Inprocess  (** in-process nodes over the engine's inline queues *)
  | Flat  (** Eden-style: one in-process worker per core, no node pool *)
  | Process  (** one forked OS process per node, socket channels *)

let backend_to_string = function
  | Inprocess -> "inprocess"
  | Flat -> "flat"
  | Process -> "process"

let backend_of_string = function
  | "inprocess" -> Some Inprocess
  | "flat" -> Some Flat
  | "process" -> Some Process
  | _ -> None

type topology = { nodes : int; cores_per_node : int; backend : backend }

let default_topology = { nodes = 4; cores_per_node = 2; backend = Inprocess }

let topology_workers (t : topology) =
  match t.backend with
  | Flat -> t.nodes * t.cores_per_node
  | Inprocess | Process -> t.nodes

type report = Dispatch.report = {
  scatter_bytes : int;
  gather_bytes : int;
  scatter_messages : int;
  gather_messages : int;
  max_message_bytes : int;
  retries : int;
  redeliveries : int;
  corrupt_drops : int;
  crashed_nodes : int;
  faults_injected : int;
  recovery_ns : int;
  code_bytes : int;
}

let pp_report fmt r =
  Format.fprintf fmt
    "scatter: %d msgs / %d B; gather: %d msgs / %d B; max msg %d B"
    r.scatter_messages r.scatter_bytes r.gather_messages r.gather_bytes
    r.max_message_bytes;
  if
    r.retries > 0 || r.redeliveries > 0 || r.corrupt_drops > 0
    || r.crashed_nodes > 0 || r.faults_injected > 0
  then
    Format.fprintf fmt
      "; faults %d: %d retries, %d redeliveries, %d corrupt drops, %d \
       crashed nodes, recovery %.3f ms"
      r.faults_injected r.retries r.redeliveries r.corrupt_drops
      r.crashed_nodes
      (float_of_int r.recovery_ns /. 1e6)

exception Recovery_exhausted of { worker : int; attempts : int }
exception Unshippable_task = Dispatch.Unshippable_task

let () =
  Printexc.register_printer (function
    | Recovery_exhausted { worker; attempts } ->
        Some
          (Printf.sprintf
             "Cluster.Recovery_exhausted (worker %d still unresolved after %d \
              attempts)"
             worker attempts)
    | Unshippable_task why -> Some (Printf.sprintf "Cluster.Unshippable_task (%s)" why)
    | _ -> None)

let on_node = Dispatch.on_node

let ns s = int_of_float (s *. 1e9)

let run_topology ?pool ?faults (topo : topology) ~scatter ~work ~result_codec
    ~merge ~init =
  if topo.nodes <= 0 || topo.cores_per_node <= 0 then
    invalid_arg "Cluster.run: bad config";
  let workers = topology_workers topo in
  let policy =
    match faults with
    | None -> { Dispatch.max_attempts = max_int; timeout = None }
    | Some s ->
        {
          max_attempts = s.Fault.max_attempts;
          timeout = Some (ns s.base_timeout, ns s.max_timeout);
        }
  in
  (* Timers only under a fault plan: a clean run waits on none. *)
  let cfg = { Dispatch.nodes = workers; policy; supervision = None } in
  let fault = Option.map Fault.make faults in
  (* [work] sees the logical worker id whose slice it computes, stable
     across re-execution on another node.  Inline nodes keep the
     exception itself, re-raised as is. *)
  let raised = Array.make workers None in
  let work ~node:_ ~pool ~slice ~resident:_ arg =
    try work ~node:slice ~pool:(Lazy.force pool) arg
    with e ->
      raised.(slice) <- Some e;
      raise e
  in
  let job session =
    Dispatch.load session ~result:result_codec ~work;
    match Dispatch.run_job session ~slices:workers ~arg:scatter ~result:result_codec () with
    | Ok results, report -> (results, report)
    | Error (Dispatch.Exhausted { slice; attempts }), _ ->
        raise (Recovery_exhausted { worker = slice; attempts })
    | Error (Dispatch.Raised { slice; msg }), _ -> (
        match raised.(slice) with
        | Some e -> raise e
        | None -> failwith (Printf.sprintf "Cluster: node %d raised: %s" slice msg))
    | Error Dispatch.Expired, _ -> assert false (* no deadline on one-shot runs *)
  in
  let results, report =
    match topo.backend with
    | Inprocess | Flat ->
        (* Nodes share the caller's pool, or else the full default
           pool: its width is not capped at [cores_per_node].  A fresh
           per-call pool would cost a domain spawn per operation. *)
        let pool = match pool with Some p -> p | None -> Pool.default () in
        Stats.ensure_workers (Pool.size pool);
        job (Dispatch.inline ?faults:fault ~span:"cluster" ~pool:(Lazy.from_val pool) cfg)
    (* The parent does no task work: each child runs its slices on its
       own pool, so a caller-supplied pool is irrelevant. *)
    | Process ->
        let session = Dispatch.lease ?faults:fault ~span:"cluster" ~cores:topo.cores_per_node cfg in
        Fun.protect ~finally:(fun () -> Dispatch.close session) (fun () -> job session)
  in
  (* Merge strictly in worker order, never arrival order. *)
  let acc = Obs.span ~name:"cluster.merge" (fun () -> Array.fold_left merge init results) in
  (acc, report)
