(** Persistent distributed arrays: segments resident across calls.

    {!Cluster.run_topology} re-ships every slice on every call, so an iterative
    kernel (multi-round tpacf, repeated sgemm) pays full scatter
    traffic each round even when most of its input never changes.  A
    [Darray] separates data distribution from work distribution (paper,
    section 3.5): the array's segments are installed {e once} in warm
    children and stay resident there, and a later run ships only

    - a {!Protocol.Seg_reuse} key — [(darray, segment, version)], a few
      bytes — for every segment the child already holds at the current
      version,
    - a {!Protocol.Seg_put} frame — key plus payload bytes — only for
      segments that changed (or that a respawned child lost), and
    - the per-round argument payload inside the task frame.

    Per-iteration scatter traffic therefore collapses to the argument
    plus key-sized envelopes once the array is warm; the per-run
    {!Cluster.report} makes the collapse measurable.

    {2 Sessions and modes}

    Residency needs somewhere to reside.  A {!session} pins the compute
    closure and the topology at creation time:

    - [Inprocess]/[Flat] backends: nodes executed inline in the parent
      process.  Put frames are still encoded and size-accounted (and
      the stored copy is the {e decoded} image of those bytes, so a
      node can never alias the parent's buffers), making byte
      accounting identical to the process mode.
    - [Process] backend: the session leases the topology's warm fabric
      ({!Dispatch.lease}) for its life, one child per node shared with
      every process caller of the topology, each holding its segment
      table in its own address space under the engine's supervision.
      The compute closure ships as closure bytes, once per node and
      again after a respawn.  Ids are never reused by a warm session,
      and closing frees the session's arrays.

    Either way the session is a {!Dispatch} session: the engine owns
    the per-node residency beliefs and ships puts and reuses, the shell
    owns the frames and the node code, and every node runs the one
    {!Dispatch.Node} program.  This module keeps the segment truth:
    versions, ghosts, and each version's retained put frame.

    {2 Versioning and refusal}

    Segments are keyed [(darray_id, segment, version)].  {!update}
    bumps the version when the content changed; the parent tracks, per
    node, which version it believes resident and ships a put exactly
    when belief and truth disagree.  A child {e refuses} a reuse naming a version it does not
    hold (a [Nack] carrying the offending key): the parent reacts by
    dropping every belief about that node and replaying puts, so a
    mistaken belief costs one round trip, never a wrong answer.  Task
    frames carry the full expected key list and the child re-checks it
    before computing — version skew is refused at both edges.

    {2 Halo exchange}

    A stencil kernel (cutcp) needs a boundary region of its neighbours'
    segments.  Each primary segment [i] may carry a {e ghost} segment
    (wire index [nsegs + i], same owner) with its own version:
    {!exchange_halo} recomputes the ghosts parent-side and bumps a
    ghost's version only when its content actually changed, so a
    converged boundary ships keys only.

    {2 Crash replay}

    A respawned child has an empty table.  The parent retains every
    segment's encoded put frame (encoded once per version — see
    {!Stats.record_encode}); on a child's EOF it forgets that node's
    believed residency, and the next issue replays the owning segments
    from the retained bytes through the same checksummed envelope the
    first install used, then re-issues the task.  First-round results
    are byte-identical to the non-resident path because the child
    computes from decoded copies either way. *)

module Codec = Triolet_base.Codec
module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

(* ------------------------------------------------------------------ *)
(* Session.                                                            *)

type work = node:int -> resident:Payload.t -> arg:Payload.t -> Payload.t

type session = { nodes : int; dispatch : Dispatch.session; mutable closed : bool }

(* Looser than the service's defaults: a node computing a long slice
   cannot answer pings meanwhile. *)
let supervision =
  {
    Dispatch.hb_interval = 500_000_000;
    miss_threshold = 4;
    backoff_base = 10_000_000;
    backoff_max = 1_000_000_000;
  }

let create_session ?(topology = Cluster.default_topology) ~work () =
  let nodes = topology.Cluster.nodes in
  if nodes < 1 then invalid_arg "Darray: topology needs at least one node";
  let cfg supervision = { Dispatch.nodes; policy = { max_attempts = 8; timeout = None }; supervision } in
  let dispatch =
    match topology.Cluster.backend with
    | Cluster.Inprocess | Cluster.Flat ->
        Dispatch.inline ~span:"darray" ~pool:(lazy (Pool.default ())) (cfg None)
    | Cluster.Process ->
        Dispatch.lease ~span:"darray" ~cores:topology.Cluster.cores_per_node (cfg (Some supervision))
  in
  Dispatch.load_or_close dispatch ~result:Payload.codec ~work:(fun ~node:_ ~pool:_ ~slice ~resident arg ->
      work ~node:slice ~resident ~arg);
  { nodes; dispatch; closed = false }

let session_nodes s = s.nodes

let proc_pids s =
  match Dispatch.fabric s.dispatch with
  | None -> []
  | Some f -> List.map (Transport.Proc.pid f) (Transport.Proc.alive_ids f)

let session_respawns s = s.dispatch.Dispatch.respawns

let close_session s =
  if not s.closed then begin
    s.closed <- true;
    Dispatch.close s.dispatch
  end

(* ------------------------------------------------------------------ *)
(* Arrays.                                                             *)

type segment = {
  mutable version : int;
  mutable payload : Payload.t;
  mutable encoded : Bytes.t option;
      (* the retained put frame for this version — encoded at most once
         per version, replayed verbatim on retries and crash recovery *)
}

type t = {
  session : session;
  did : int;
  segs : segment array;
  ghosts : segment option array;  (* ghost of seg i rides wire index nsegs+i *)
  mutable freed : bool;
}

let create session ~segments =
  if session.closed then invalid_arg "Darray.create: session closed";
  if Array.length segments = 0 then invalid_arg "Darray.create: no segments";
  {
    session;
    did = Dispatch.fresh_did session.dispatch;
    segs =
      Array.map
        (fun payload -> { version = 1; payload; encoded = None })
        segments;
    ghosts = Array.make (Array.length segments) None;
    freed = false;
  }

let nsegs d = Array.length d.segs
let owner d i = i mod d.session.nodes
let segment_version d i = d.segs.(i).version
let ghost_version d i = Option.map (fun g -> g.version) d.ghosts.(i)

(* Bitwise content equality gates the version bump: an unchanged
   segment keeps its version and so keeps shipping as a key-only reuse,
   and any change the nodes could observe — a zero's sign included —
   re-ships it. *)
let replace seg payload =
  if Payload.equal seg.payload payload then false
  else begin
    seg.version <- seg.version + 1;
    seg.payload <- payload;
    seg.encoded <- None;
    true
  end

let update d i payload =
  if d.freed then invalid_arg "Darray.update: freed array";
  replace d.segs.(i) payload

(* Install or refresh the ghost of primary segment [i]. *)
let set_ghost d i payload =
  if d.freed then invalid_arg "Darray.set_ghost: freed array";
  match d.ghosts.(i) with
  | Some g -> replace g payload
  | None ->
      d.ghosts.(i) <- Some { version = 1; payload; encoded = None };
      true

let exchange_halo d ~compute =
  let changed = ref 0 in
  for i = 0 to nsegs d - 1 do
    if set_ghost d i (compute i) then incr changed
  done;
  Obs.instant ~name:"darray.halo"
    ~attrs:
      [ ("darray", string_of_int d.did); ("changed", string_of_int !changed) ]
    ();
  !changed

(* ------------------------------------------------------------------ *)
(* Running an array.                                                   *)

(* The wire segments node [n] must hold to compute its slice: each
   primary segment owned by [n] (index order) followed by its ghost.
   Concatenation order at the child is exactly this order. *)
let plan_for_node d n =
  List.concat
    (List.init (nsegs d) (fun i ->
         if owner d i <> n then []
         else
           (i, d.segs.(i))
           :: (match d.ghosts.(i) with Some g -> [ (nsegs d + i, g) ] | None -> [])))

let segment_at d w =
  if w < nsegs d then d.segs.(w) else Option.get d.ghosts.(w - nsegs d)

(* Encoded put frame for one segment — encoded at most once per
   version; retries and crash replay reuse the retained bytes. *)
let encoded_put d w seg =
  match seg.encoded with
  | Some b -> b
  | None ->
      let b = Dispatch.put_frame d.session.dispatch (d.did, w, seg.version) seg.payload in
      seg.encoded <- Some b;
      b

let run d ~arg ~merge ~init =
  let s = d.session in
  if s.closed then invalid_arg "Darray.run: session closed";
  if d.freed then invalid_arg "Darray.run: freed array";
  Obs.span ~name:"darray.run" (fun () ->
      let keys n = List.map (fun (w, seg) -> (d.did, w, seg.version)) (plan_for_node d n) in
      match
        Dispatch.run_job s.dispatch ~pinned:true ~keys
          ~put:(fun (_, w, _) -> encoded_put d w (segment_at d w))
          ~slices:s.nodes ~arg ~result:Payload.codec ()
      with
      | Ok results, report -> (Array.fold_left merge init results, report)
      | Error (Dispatch.Exhausted { slice; attempts }), _ ->
          raise (Cluster.Recovery_exhausted { worker = slice; attempts })
      | Error (Dispatch.Raised { slice; msg }), _ ->
          failwith (Printf.sprintf "Darray: node %d raised: %s" slice msg)
      | Error Dispatch.Expired, _ -> assert false (* rounds carry no deadline *))

(* ------------------------------------------------------------------ *)
(* Release.                                                            *)

let free d =
  if not d.freed then begin
    d.freed <- true;
    if not d.session.closed then Dispatch.release d.session.dispatch d.did
  end
