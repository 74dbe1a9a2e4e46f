(** Low-level skeletons: the glue between iterator consumers and the
    runtime (paper, section 3.4: "A skeleton in the library consists of
    code that, depending on the input iterator's parallelism hint,
    invokes low-level skeletons for distributing work across nodes,
    cores within a node, and/or sequential loop iterations in a task").

    These functions know nothing about iterators; they distribute
    abstract chunk ranges and payloads.  The [Iter]/[Iter2] consumers
    instantiate them with chunk bodies built from the iterator.

    Every skeleton takes an optional execution context [?ctx]
    ({!Exec.t}): geometry, transport backend, fault plan and grain
    policy.  Omitted, the ambient context applies. *)

module Pool = Triolet_runtime.Pool
module Cluster = Triolet_runtime.Cluster
module Partition = Triolet_runtime.Partition
module Darray = Triolet_runtime.Darray
module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec
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

(* Pool selection for the distributed skeletons.  Under the process
   backend the parent supplies no pool at all: each forked node builds
   its own, and merely touching [Pool.default] here could spawn domains
   and make the fork impossible. *)
let node_pool (topo : Cluster.topology) =
  match topo.Cluster.backend with
  | Cluster.Flat -> Some (seq_pool ())
  | Cluster.Inprocess -> Some (Pool.default ())
  | Cluster.Process -> None

(** Shared-memory parallel reduction over [len] outer iterations on the
    work-stealing pool's adaptive lazy-splitting scheduler.  [chunk off n]
    computes the partial result for outer range [off, off+n) — the
    scheduler chooses the [n]s, splitting ranges on demand so skewed
    per-iteration cost (filtered or nested loops) rebalances across
    workers; per-worker partials are merged locally first. *)
let local_reduce_with ?ctx pool ~len ~chunk ~merge ~init =
  let ctx = Exec.resolve ctx in
  Obs.span ~name:"skel.local_reduce" (fun () ->
      Pool.parallel_range pool ?grain:ctx.Exec.grain ~lo:0 ~hi:len ~f:chunk
        ~merge ~init ())

let local_reduce ?ctx ~len ~chunk ~merge ~init () =
  local_reduce_with ?ctx (Pool.default ()) ~len ~chunk ~merge ~init

(** Order-preserving chunked map: runs [chunk] over each block of
    [len] on the pool and returns the per-block results in block order.
    Used by consumers that pack variable-length output, where
    concatenation order matters. *)
let local_map_chunks_with ?ctx pool ~len ~chunk =
  let ctx = Exec.resolve ctx in
  if len <= 0 then [||]
  else
    Obs.span ~name:"skel.local_map_chunks" (fun () ->
        let parts =
          Partition.chunk_count ~multiplier:ctx.Exec.chunk_multiplier
            ~workers:(Pool.size pool) len
        in
        let blocks = Partition.blocks ~parts len in
        let out = Array.make (Array.length blocks) None in
        Pool.parallel_for pool ~lo:0 ~hi:(Array.length blocks) (fun k ->
            let off, n = blocks.(k) in
            out.(k) <- Some (chunk off n));
        Array.map Option.get out)

let local_map_chunks ?ctx ~len ~chunk () =
  local_map_chunks_with ?ctx (Pool.default ()) ~len ~chunk

(** Distributed reduction: partition [len] outer iterations across the
    context's cluster, ship each node its payload (serialized), run
    [node_work] against the decoded payload with intra-node parallelism,
    and merge the nodes' serialized replies.  In flat mode the work
    units are single-core processes; under the process backend each
    node is a forked OS process with a private pool. *)
let distributed_reduce ?ctx ~len ~payload_of ~node_work ~result_codec ~merge
    ~init () =
  let ctx = Exec.resolve ctx in
  Obs.span ~name:"skel.distributed_reduce" (fun () ->
      let topo = Exec.topology ctx in
      let workers = Cluster.topology_workers topo in
      let blocks = Partition.blocks ~parts:workers len in
      let nblocks = Array.length blocks in
      let result, _report =
        Cluster.run_topology ?pool:(node_pool topo) ?faults:ctx.Exec.faults topo
          ~scatter:(fun node ->
            if node < nblocks then
              let off, n = blocks.(node) in
              payload_of off n
            else Payload.empty)
          ~work:(fun ~node ~pool payload ->
            if node < nblocks then Some (node_work ~pool payload) else None)
          ~result_codec:(Codec.option result_codec)
          ~merge:(fun acc r -> match r with None -> acc | Some v -> merge acc v)
          ~init
      in
      result)

(** Distributed map in block order: like {!distributed_reduce} but
    returns the per-node results as an array indexed by block. *)
let distributed_map_blocks ?ctx ~blocks ~payload_of ~node_work ~result_codec ()
    =
  let ctx = Exec.resolve ctx in
  Obs.span ~name:"skel.distributed_map_blocks" (fun () ->
      let base = Exec.topology ctx in
      let nblocks = Array.length blocks in
      (* One node per block.  Flat mode degrades to in-process
         single-core nodes here (the historical [flat = false] override
         with a sequential pool); the other backends keep their
         transport. *)
      let topo =
        {
          base with
          Cluster.nodes = nblocks;
          backend =
            (match base.Cluster.backend with
            | Cluster.Flat -> Cluster.Inprocess
            | b -> b);
        }
      in
      let pool =
        match base.Cluster.backend with
        | Cluster.Flat -> Some (seq_pool ())
        | _ -> node_pool topo
      in
      let results = ref [] in
      let (), _report =
        Cluster.run_topology ?pool ?faults:ctx.Exec.faults topo
          ~scatter:(fun node -> payload_of blocks.(node))
          ~work:(fun ~node ~pool payload -> (node, node_work ~pool payload))
          ~result_codec:(Codec.pair Codec.int result_codec)
          ~merge:(fun () (node, r) -> results := (node, r) :: !results)
          ~init:()
      in
      let out = Array.make nblocks None in
      List.iter (fun (node, r) -> out.(node) <- Some r) !results;
      Array.map Option.get out)

(* ------------------------------------------------------------------ *)
(* Resident (persistent) distributed state                             *)

(** Warm resident fabric for iterative skeletons, geometry and backend
    from the context like every other skeleton here.  Under the
    [Process] backend this forks the per-node children, so call it
    before any domain is spawned (in particular before [Pool.default]
    is first touched). *)
let resident_session ?ctx ~work () =
  let ctx = Exec.resolve ctx in
  Obs.span ~name:"skel.resident_session" (fun () ->
      Darray.create_session ~topology:(Exec.topology ctx) ~work ())

(** Block boundaries {!resident_segments} uses: one block per resident
    node (a Darray session holds one segment table per topology node,
    regardless of cores), in {!Partition.blocks} order so segment [i]
    is owned by node [i]. *)
let resident_blocks ?ctx ~len () =
  let ctx = Exec.resolve ctx in
  let nodes = (Exec.topology ctx).Cluster.nodes in
  Partition.blocks ~parts:nodes len

(** Partition [len] outer iterations one block per resident node and
    materialize each block's payload, yielding the segments of a
    {!Darray.create}: with one segment per node, segment [i] lands on
    node [i] and replies merge back in segment order. *)
let resident_segments ?ctx ~len ~payload_of () =
  Array.map
    (fun (off, n) -> payload_of off n)
    (resident_blocks ?ctx ~len ())

(** One round over a resident view: ship residency deltas and the
    per-node argument, gather and merge replies in node order.  The
    iterative kernels call this once per outer iteration; after the
    first round only changed segments re-ship. *)
let resident_round view ~arg ~merge ~init =
  Obs.span ~name:"skel.resident_round" (fun () ->
      Darray.run view ~arg ~merge ~init)
