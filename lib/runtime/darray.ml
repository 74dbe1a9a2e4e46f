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
    - [Process] backend: one forked child per node over
      {!Transport.Proc} socket channels, each holding its segment table
      in its own address space, supervised by the {!Dispatch} engine
      (heartbeats, SIGKILL verdicts, backoff respawn).  Like every fork
      in the runtime, the session must be created before any domain is
      spawned.

    Either way the session is a {!Dispatch} session: the engine owns
    the per-node residency beliefs and ships puts and reuses, and every
    node runs the one {!Dispatch.Child} handler.

    {2 Versioning and refusal}

    Segments are keyed [(darray_id, segment, version)].  {!update}
    bumps the version; the parent tracks, per node, which version it
    believes resident and ships a put exactly when belief and truth
    disagree.  A child {e refuses} a reuse naming a version it does not
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
module Envelope = Dispatch.Envelope

(* Every frame a darray session ships is checksummed. *)
let crc = true
let max_attempts = 8

(* ------------------------------------------------------------------ *)
(* Session.                                                            *)

type work = node:int -> resident:Payload.t -> arg:Payload.t -> Payload.t

type session = {
  nodes : int;
  dispatch : Dispatch.session;
  mutable next_did : int;
  mutable closed : bool;
}

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
  let cfg supervision =
    { Dispatch.nodes; crc; policy = { max_attempts; timeout = None }; supervision }
  in
  let server ?phases () =
    Dispatch.server ~crc ?phases ~result:Payload.codec
      ~work:(fun ~slice ~resident arg -> work ~node:slice ~resident ~arg)
      ()
  in
  let dispatch =
    match topology.Cluster.backend with
    | Cluster.Inprocess | Cluster.Flat ->
        let phases =
          { Dispatch.Child.phase = (fun name f -> Obs.span ~name:("darray." ^ name) f) }
        in
        Dispatch.inline ~span:"darray" (cfg None) (Array.init nodes (fun _ -> server ~phases ()))
    | Cluster.Process ->
        if Pool.domains_ever_spawned () then
          failwith
            "Darray: a process-mode session forks one child per node, and \
             OCaml cannot fork once any domain has been spawned.  Create \
             the session before any multi-domain pool.";
        Dispatch.fork ~span:"darray" (cfg (Some supervision)) ~child:(fun ~id chan ->
            Dispatch.child_loop ~id (server ()) chan)
  in
  { nodes; dispatch; next_did = 0; closed = false }

let session_nodes s = s.nodes

let proc_pids s =
  match Dispatch.fabric s.dispatch with
  | None -> []
  | Some f -> List.map (Transport.Proc.pid f) (Transport.Proc.alive_ids f)

let session_respawns s = Dispatch.respawns s.dispatch

let close_session s =
  if not s.closed then begin
    s.closed <- true;
    Dispatch.close s.dispatch
  end

(* ------------------------------------------------------------------ *)
(* Arrays, views, geometry.                                            *)

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

let buf_elems = function
  | Payload.Floats a -> Float.Array.length a
  | Payload.Ints a -> Array.length a
  | Payload.Raw s -> String.length s

let payload_elems p = List.fold_left (fun acc b -> acc + buf_elems b) 0 p

let create session ~segments =
  if session.closed then invalid_arg "Darray.create: session closed";
  if Array.length segments = 0 then invalid_arg "Darray.create: no segments";
  let did = session.next_did in
  session.next_did <- did + 1;
  {
    session;
    did;
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

let update d i payload =
  if d.freed then invalid_arg "Darray.update: freed array";
  let seg = d.segs.(i) in
  seg.version <- seg.version + 1;
  seg.payload <- payload;
  seg.encoded <- None

(* Install or refresh the ghost of primary segment [i].  Content
   equality (structural, on the decoded payload) gates the version
   bump: an unchanged ghost keeps its version and so keeps shipping as
   a key-only reuse. *)
let set_ghost d i payload =
  if d.freed then invalid_arg "Darray.set_ghost: freed array";
  match d.ghosts.(i) with
  | Some g when g.payload = payload -> false
  | Some g ->
      g.version <- g.version + 1;
      g.payload <- payload;
      g.encoded <- None;
      true
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

type view = { arrays : t list }

let view d = { arrays = [ d ] }

let zip v d =
  match v.arrays with
  | [] -> { arrays = [ d ] }
  | first :: _ ->
      if d.session != first.session then
        invalid_arg "Darray.zip: arrays from different sessions";
      if nsegs d <> nsegs first then
        invalid_arg
          (Printf.sprintf "Darray.zip: segment count mismatch (%d vs %d)"
             (nsegs first) (nsegs d));
      Array.iteri
        (fun i seg ->
          let a = payload_elems first.segs.(i).payload
          and b = payload_elems seg.payload in
          if a <> b then
            invalid_arg
              (Printf.sprintf
                 "Darray.zip: segment %d geometry mismatch (%d vs %d elements)"
                 i a b))
        d.segs;
      { arrays = v.arrays @ [ d ] }

let zip2 a b = zip (view a) b

(* ------------------------------------------------------------------ *)
(* Running a view.                                                     *)

(* The segments node [n] must hold to compute its slice of [v]:
   per array in view order, each primary segment owned by [n] (index
   order) followed by its ghost.  Concatenation order at the child is
   exactly this order. *)
let plan_for_node v n =
  List.concat_map
    (fun d ->
      if d.freed then invalid_arg "Darray.run: freed array";
      let out = ref [] in
      Array.iteri
        (fun i seg ->
          if owner d i = n then begin
            out := (d, i, seg) :: !out;
            match d.ghosts.(i) with
            | Some g -> out := (d, nsegs d + i, g) :: !out
            | None -> ()
          end)
        d.segs;
      List.rev !out)
    v.arrays

let key_of (d, w, seg) = (d.did, w, seg.version)

(* Encoded put frame for one segment — encoded at most once per
   version; retries and crash replay reuse the retained bytes. *)
let encoded_put (d, w, seg) =
  match seg.encoded with
  | Some b -> b
  | None ->
      let b =
        Obs.span ~name:"darray.serialize"
          ~attrs:[ ("darray", string_of_int d.did); ("seg", string_of_int w) ]
          (fun () ->
            Stats.record_encode ();
            Envelope.encode ~crc Envelope.put ~slice:0 ~seq:0
              ((d.did, w, seg.version), seg.payload))
      in
      seg.encoded <- Some b;
      b

let run v ~arg ~merge ~init =
  match v.arrays with
  | [] -> invalid_arg "Darray.run: empty view"
  | first :: _ ->
      let s = first.session in
      if s.closed then invalid_arg "Darray.run: session closed";
      Obs.span ~name:"darray.run" (fun () ->
          let plans = List.init s.nodes (plan_for_node v) in
          let items = Hashtbl.create 16 in
          List.iter (List.iter (fun item -> Hashtbl.replace items (key_of item) item)) plans;
          let keys = List.map (List.map key_of) plans in
          let task ~slice ~seq =
            Envelope.encode ~crc Envelope.task ~slice ~seq (List.nth keys slice, 0, arg slice)
          in
          let results = Array.make s.nodes None in
          let on_done i b = results.(i) <- Some (Envelope.body ~crc Payload.codec b) in
          let report, failed =
            Dispatch.run_job s.dispatch ~pinned:true ~plans:keys
              ~put:(fun key -> encoded_put (Hashtbl.find items key))
              ~task ~on_done ()
          in
          (match failed with
          | None -> ()
          | Some (Dispatch.Exhausted { slice; attempts }) ->
              raise (Cluster.Recovery_exhausted { worker = slice; attempts })
          | Some (Dispatch.Raised { slice; msg }) ->
              failwith (Printf.sprintf "Darray: node %d raised: %s" slice msg)
          | Some Dispatch.Expired -> assert false (* rounds carry no deadline *));
          (Array.fold_left (fun acc r -> merge acc (Option.get r)) init results, report))

let run1 d = run (view d)

(* ------------------------------------------------------------------ *)
(* Release.                                                            *)

let free d =
  if not d.freed then begin
    d.freed <- true;
    if not d.session.closed then Dispatch.release d.session.dispatch d.did
  end
