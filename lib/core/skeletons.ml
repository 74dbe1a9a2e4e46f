(** Low-level skeletons: the glue between iterator consumers and the
    runtime (paper, section 3.4: "A skeleton in the library consists of
    code that, depending on the input iterator's parallelism hint,
    invokes low-level skeletons for distributing work across nodes,
    cores within a node, and/or sequential loop iterations in a task").

    These functions know nothing about iterators; they distribute
    abstract chunk ranges, blocks and payloads.  [Iter]'s one consumer
    driver instantiates them with the blocks of [Iter.node_blocks] and
    chunk bodies built from the iterator.

    Every skeleton takes an optional execution context [?ctx]
    ({!Exec.t}): geometry, transport backend, fault plan and grain
    policy.  Omitted, the ambient context applies. *)

module Pool = Triolet_runtime.Pool
module Cluster = Triolet_runtime.Cluster
module Partition = Triolet_runtime.Partition
module Darray = Triolet_runtime.Darray
module Obs = Triolet_obs.Obs

(* A single-threaded pool for flat (Eden-model) node execution.  Lazily
   created under a lock: two domains racing here used to create (and
   leak) two pools. *)
let seq_pool_lock = Mutex.create ()
let seq_pool_ref : Pool.t option ref = ref None

let seq_pool () =
  Mutex.lock seq_pool_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock seq_pool_lock)
    (fun () ->
      match !seq_pool_ref with
      | Some p -> p
      | None ->
          let p = Pool.create ~workers:1 () in
          seq_pool_ref := Some p;
          p)

(** Shared-memory parallel fold over [len] outer iterations on the
    work-stealing pool's adaptive lazy-splitting scheduler.
    [fold acc off n] folds outer range [off, off+n) into [acc] — the
    scheduler chooses the [n]s, splitting ranges on demand so skewed
    per-iteration cost (filtered or nested loops) rebalances across
    workers.  Each worker gets one accumulator from [create], and the
    per-worker accumulators are merged once, in worker order. *)
let local_reduce_with ?ctx pool ~len ~create ~fold ~merge =
  let ctx = Exec.resolve ctx in
  Obs.span ~name:"skel.local_reduce" (fun () ->
      Pool.parallel_fold pool ?grain:ctx.Exec.grain ~lo:0 ~hi:len ~create
        ~f:fold ~merge ())

(** The one distributed skeleton: one node per block, each shipped its
    block's serialized payload, running [node_work] against the decoded
    payload with intra-node parallelism; the serialized replies come
    back in block order.  A flat worker is a single-core in-process
    node; under the process backend each node is a forked OS process
    with a private pool, and the parent supplies no pool at all (merely
    touching [Pool.default] here could spawn domains and make the fork
    impossible).  No blocks (an empty domain) dispatch nothing. *)
let distributed ?ctx ~blocks ~payload_of ~node_work ~result_codec () =
  let ctx = Exec.resolve ctx in
  let nblocks = Array.length blocks in
  if nblocks = 0 then [||]
  else
    Obs.span ~name:"skel.distributed" @@ fun () ->
      let base = Exec.topology ctx in
      let topo, pool =
        match base.Cluster.backend with
        | Cluster.Flat ->
            ( { base with Cluster.nodes = nblocks; cores_per_node = 1 },
              Some (seq_pool ()) )
        | Cluster.Inprocess ->
            ({ base with Cluster.nodes = nblocks }, Some (Pool.default ()))
        | Cluster.Process -> ({ base with Cluster.nodes = nblocks }, None)
      in
      let replies, _report =
        Cluster.run_topology ?pool ?faults:ctx.Exec.faults topo
          ~scatter:(fun node -> payload_of blocks.(node))
          ~work:(fun ~node:_ -> node_work)
          ~result_codec
          ~merge:(fun acc r -> r :: acc)
          ~init:[]
      in
      Array.of_list (List.rev replies)

(* ------------------------------------------------------------------ *)
(* Resident (persistent) distributed state                             *)

(** One resident array for an iterative kernel: [len] outer iterations
    cut into {!Partition.blocks}, one block per node, each block's
    payload a {!Darray} segment kept warm across rounds.  The session
    is sized to the blocks, so with fewer outer iterations than the
    context has nodes the spare nodes are never started, and node [i]
    owns exactly block [i]. *)
module Resident = struct
  type t = { session : Darray.session; arr : Darray.t; blocks : (int * int) array }

  let create ?ctx ~len ~segment ~work () =
    let ctx = Exec.resolve ctx in
    let topo = Exec.topology ctx in
    let blocks = Partition.blocks ~parts:topo.Cluster.nodes len in
    if Array.length blocks = 0 then
      invalid_arg "Skeletons.Resident.create: empty domain";
    Obs.span ~name:"skel.resident_session" (fun () ->
        let session =
          Darray.create_session
            ~topology:{ topo with Cluster.nodes = Array.length blocks }
            ~work:(fun ~node ~resident ~arg ->
              work ~block:blocks.(node) ~resident ~arg)
            ()
        in
        { session; arr = Darray.create session ~segments:(Array.map segment blocks); blocks })

  let refresh t ~segment =
    let changed = ref 0 in
    Array.iteri
      (fun i block -> if Darray.update t.arr i (segment block) then incr changed)
      t.blocks;
    !changed

  let round t ~arg ~merge ~init =
    let replies, report =
      Darray.run t.arr ~arg:(fun _ -> arg) ~merge:(fun acc r -> r :: acc) ~init:[]
    in
    (List.fold_left2 merge init (Array.to_list t.blocks) (List.rev replies), report)

  let array t = t.arr
  let blocks t = t.blocks
  let close t = Darray.close_session t.session
end
