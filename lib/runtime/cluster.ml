(** Two-level distributed runtime: one-shot scatter/gather sessions.

    The paper's runtime distributes large units of work to cluster nodes
    over MPI, then subdivides each unit across cores with work-stealing
    threads (section 3.4).  Nodes here exchange *only* serialized
    bytes: payloads are encoded, shipped, and decoded into structurally
    fresh buffers, so a task can never touch the sender's memory.  Task
    *code* travels as an OCaml closure (serializing code is what the
    Triolet compiler adds); task *data* always travels as bytes.

    A run is one job on a {!Dispatch} session that lives exactly as
    long as the call: in-process nodes executed inline, or one forked
    process per node.  The engine owns retries, deduplication and
    recovery, so the fault-free and fault-injected paths are the same
    code; a fault plan only adds checksums, link faults and timers. *)

module Codec = Triolet_base.Codec
module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

(* Execution backends.  [Flat] is the in-process transport with Eden's
   flat process view (one logical worker per core, no intra-node pool).
   [Process] is the real multi-process transport: one forked OS process
   per node, socketpair channels, a private pool per child. *)
type backend =
  | Inprocess  (** in-process nodes over mailbox channels *)
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

let () =
  Printexc.register_printer (function
    | Recovery_exhausted { worker; attempts } ->
        Some
          (Printf.sprintf
             "Cluster.Recovery_exhausted (worker %d still unresolved after %d \
              attempts)"
             worker attempts)
    | _ -> None)

let on_node = Dispatch.on_node

let ensure_forkable () =
  if Pool.domains_ever_spawned () then
    failwith
      "Cluster: the process backend forks one OS process per node, and \
       OCaml cannot fork once any domain has been spawned.  Select the \
       backend before creating any multi-domain pool (e.g. run with \
       TRIOLET_BACKEND=process so the default pool stays single-domain)."

let ns s = int_of_float (s *. 1e9)
let node_attr n = [ ("node", string_of_int n) ]

let run_topology ?pool ?faults (topo : topology) ~scatter ~work ~result_codec
    ~merge ~init =
  if topo.nodes <= 0 || topo.cores_per_node <= 0 then
    invalid_arg "Cluster.run: bad config";
  let workers = topology_workers topo in
  (* Checksums and timers only under a fault plan: a clean run pays for
     neither. *)
  let crc = faults <> None in
  let policy =
    match faults with
    | None -> { Dispatch.max_attempts = max_int; timeout = None }
    | Some s ->
        {
          max_attempts = s.Fault.max_attempts;
          timeout = Some (ns s.base_timeout, ns s.max_timeout);
        }
  in
  let cfg = { Dispatch.nodes = workers; crc; policy; supervision = None } in
  let fault = Option.map Fault.make faults in
  (* [work] sees the logical worker id whose slice it computes, stable
     across re-execution on another node. *)
  let node_work pool ~slice ~resident:_ arg = work ~node:slice ~pool arg in
  let raised = Array.make workers None in
  let session =
    match topo.backend with
    | Inprocess | Flat ->
        (* Nodes share the default pool, capped at the configured core
           count; a fresh per-call pool would cost a domain spawn per
           operation. *)
        let pool = match pool with Some p -> p | None -> Pool.default () in
        Stats.ensure_workers (Pool.size pool);
        let phases =
          { Dispatch.Child.phase = (fun name f -> Obs.span ~name:("cluster." ^ name) f) }
        in
        (* Inline nodes keep the exception itself, re-raised as is. *)
        let work ~slice ~resident arg =
          try node_work pool ~slice ~resident arg
          with e ->
            raised.(slice) <- Some e;
            raise e
        in
        Dispatch.inline ?faults:fault ~span:"cluster" cfg
          (Array.init workers (fun _ ->
               Dispatch.server ~crc ~phases ~result:result_codec ~work ()))
    | Process ->
        (* The parent does no task work: each child builds its own pool
           after the fork, so a caller-supplied pool is irrelevant. *)
        ensure_forkable ();
        let crash id =
          match faults with
          | Some { Fault.crash = Some (n, phase); _ } when n = id -> Some phase
          | _ -> None
        in
        Dispatch.fork ?faults:fault ~span:"cluster" cfg ~child:(fun ~id chan ->
            let pool = lazy (Pool.create ~workers:topo.cores_per_node ()) in
            let work ~slice ~resident arg = node_work (Lazy.force pool) ~slice ~resident arg in
            Dispatch.child_loop ?crash:(crash id) ~id
              (Dispatch.server ~crc ~result:result_codec ~work ())
              chan)
  in
  Fun.protect
    ~finally:(fun () -> Dispatch.close session)
    (fun () ->
      (* Each slice is encoded exactly once; retries resend the cached
         bytes (replies are accepted from any attempt of the job). *)
      let encoded = Array.make workers None in
      let task ~slice ~seq =
        match encoded.(slice) with
        | Some b -> b
        | None ->
            let b =
              Obs.span ~name:"cluster.serialize" ~attrs:(node_attr slice) (fun () ->
                  Stats.record_encode ();
                  Dispatch.Envelope.(encode ~crc task ~slice ~seq ([], 0, scatter slice)))
            in
            encoded.(slice) <- Some b;
            b
      in
      let results = Array.make workers None in
      let on_done i bytes =
        (* A finished slice is never re-issued: drop its bytes now. *)
        encoded.(i) <- None;
        results.(i) <-
          Some
            (Obs.span ~name:"cluster.recv" ~attrs:(node_attr i) (fun () ->
                 Dispatch.Envelope.body ~crc result_codec bytes))
      in
      let report, failed =
        Dispatch.run_job session ~plans:(List.init workers (fun _ -> [])) ~task ~on_done ()
      in
      (match failed with
      | None -> ()
      | Some (Dispatch.Exhausted { slice; attempts }) ->
          raise (Recovery_exhausted { worker = slice; attempts })
      | Some (Dispatch.Raised { slice; msg }) -> (
          match raised.(slice) with
          | Some e -> raise e
          | None -> failwith (Printf.sprintf "Cluster: node %d raised: %s" slice msg))
      | Some Dispatch.Expired -> assert false (* no deadline on one-shot runs *));
      (* Merge strictly in worker order, never arrival order. *)
      let acc =
        Obs.span ~name:"cluster.merge" (fun () ->
            Array.fold_left (fun acc r -> merge acc (Option.get r)) init results)
      in
      (acc, report))
