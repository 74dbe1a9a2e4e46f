(** The dispatch engine under every distributed skeleton (paper,
    section 3.4: one message-passing layer beneath all of them).

    {!step} is a pure function from an engine state and one event (a
    frame from a node, a node's EOF, a timer tick carrying [now], a job
    submission, a darray release) to the next state and the actions to
    perform (send a frame, kill or respawn a node, report a slice done
    or the job failed).  It performs no I/O and reads no clock: time
    arrives in events.  The state is immutable data — no closures, no
    mutable fields — so {!Triolet_sim} model-checks this very function.

    This engine is the wire protocol's one spec.  Each node is [Live]
    or [Backoff], and the engine, like the node program ({!Node},
    {!Child.handle}), matches on {!Protocol.kind} with no wildcard: a
    new kind does not build until every state of both sides says what
    it does with it.

    Around it sit an in-process shell (inline node execution over
    queues) and a process shell (a [select] loop over
    {!Transport.Proc}); {!Node.step} is the one node program both run,
    and every forked child of every caller is a {!node_main} that takes
    its task code from [Code] frames.  The shells own the frame format
    (the checksummed {!Envelope}) and how a node gets its code: a
    caller hands {!load} a [work] function and a result codec, and
    {!run_job} per-slice payloads, and gets back decoded results — it
    never builds a frame or marshals a closure.  Process callers never
    fork either: they {!lease} the topology's warm session, and the
    children outlive the lease.  {!Cluster} leases one per call and
    loads new code every call; a {!Darray} session (a session plus its
    segment versions) and a {!Service} (admission and deadlines) hold
    one for life and load their code once. *)

module Codec = Triolet_base.Codec
module Rw = Triolet_base.Rw
module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

(** [(darray id, wire segment index, version)]. *)
type key = int * int * int

(* ------------------------------------------------------------------ *)
(* The envelope: every frame with a body is [(slice, seq, body)] under a
   CRC-32 checksum.                                                    *)

module Envelope = struct
  let codec c = Codec.checksummed Codec.(triple int int c)
  let encode c ~slice ~seq v = Codec.to_bytes (codec c) (slice, seq, v)
  let decode c b = Codec.of_bytes (codec c) b

  (* A reader at the tag, past the checksum header. *)
  let at_tag b = Rw.reader_of_bytes ~pos:Codec.checksum_header b

  let tag b =
    if not (Codec.checksummed_intact b) then None
    else
      let r = at_tag b in
      if Rw.remaining r < 16 then None
      else
        let slice = Rw.read_int r in
        let seq = Rw.read_int r in
        Some (slice, seq)

  (* The body of a frame whose tag (and checksum) {!tag} already
     accepted: decoded without checking the checksum a second time. *)
  let body c b =
    let r = at_tag b in
    ignore (Rw.read_int r);
    ignore (Rw.read_int r);
    let v = c.Codec.decode r in
    (match Rw.remaining r with 0 -> () | n -> raise (Codec.Trailing_bytes n));
    v

  let key = Codec.(triple int int int)

  (** Task bodies: the resident keys the slice computes against, the
      absolute monotonic deadline in ns (0 = none), the argument. *)
  let task = Codec.(triple (list key) int Payload.codec)

  let put = Codec.pair key Payload.codec

  (** [Err] bodies: [None] is a refusal past the deadline. *)
  let err = Codec.(option string)
end

(* ------------------------------------------------------------------ *)
(* The node side: one pure handler for pings, segments and tasks.      *)

module Child = struct
  (* (did, wire seg) -> (version, payload), sorted by key. *)
  type table = ((int * int) * (int * Payload.t)) list

  let empty : table = []

  let lookup table (did, seg, ver) =
    match List.assoc_opt (did, seg) table with
    | Some (v, p) when v = ver -> Some p
    | _ -> None

  let install table (did, seg, ver) p =
    List.merge compare [ ((did, seg), (ver, p)) ] (List.remove_assoc (did, seg) table)

  (* With [span], the task's decode, compute and reply encode are
     [<span>.recv], [<span>.compute] and [<span>.serialize] spans. *)
  let handle ?span ~now ~result ~work table kind bytes =
    let phase name f = match span with None -> f () | Some s -> Obs.span ~name:(s ^ "." ^ name) f in
    let reply ~slice ~seq c v kind = [ (kind, Envelope.encode c ~slice ~seq v) ] in
    let untagged = [ (Protocol.Nack, Bytes.empty) ] in
    match (kind : Protocol.kind) with
    | Ping -> (table, [ (Protocol.Pong, bytes) ])
    | Err | Nack | Pong | Code -> (table, [])
    | Seg_put -> (
        match Envelope.decode Envelope.put bytes with
        | _, _, (key, p) -> (install table key p, [])
        | exception _ -> (table, untagged))
    | Seg_reuse -> (
        match Envelope.decode Envelope.key bytes with
        | slice, seq, key ->
            if lookup table key <> None then (table, [])
            else (table, reply ~slice ~seq Envelope.key key Protocol.Nack)
        | exception _ -> (table, untagged))
    | Seg_free -> (
        match Envelope.decode Codec.int bytes with
        | _, _, did -> (List.filter (fun ((d, _), _) -> d <> did) table, [])
        | exception _ -> (table, []))
    | Data -> (
        match phase "recv" (fun () -> Envelope.decode Envelope.task bytes) with
        | exception _ -> (table, untagged)
        | slice, seq, (keys, deadline, arg) -> (
            (* Every expected key must be resident at exactly its
               version: a stale or missing segment is refused, never
               computed against. *)
            match List.find_opt (fun k -> lookup table k = None) keys with
            | Some k -> (table, reply ~slice ~seq Envelope.key k Protocol.Nack)
            | None when deadline > 0 && now > deadline ->
                (table, reply ~slice ~seq Envelope.err None Protocol.Err)
            | None -> (
                let resident = List.concat_map (fun k -> Option.get (lookup table k)) keys in
                match phase "compute" (fun () -> work ~slice ~resident arg) with
                | r -> (table, phase "serialize" (fun () -> reply ~slice ~seq result r Protocol.Data))
                | exception e ->
                    (table, reply ~slice ~seq Envelope.err (Some (Printexc.to_string e)) Protocol.Err))))
end

(* ------------------------------------------------------------------ *)
(* The engine.                                                          *)

type policy = {
  max_attempts : int;  (** per-slice cap on (re-)issues *)
  timeout : (int * int) option;
      (** [(base, cap)] ns: attempt [a] times out after
          [min cap (base * 2^(a-1))]; [None] re-issues only on EOF or
          refusal *)
}

type supervision = {
  hb_interval : int;  (** ns between pings *)
  miss_threshold : int;  (** unanswered pings that are a death verdict *)
  backoff_base : int;  (** first respawn delay, ns *)
  backoff_max : int;  (** respawn delay cap, ns *)
}

type config = {
  nodes : int;
  policy : policy;
  supervision : supervision option;  (** [None]: no pings, no respawns *)
}

(** A node as the parent sees it: [Live] while its process answers
    (its frames are handled, a miss verdict kills it, EOF moves it to
    [Backoff]); [Backoff] once it is dead (every frame and EOF is a
    stale leftover, dropped; only the respawn moves it back). *)
type proto = Live | Backoff

type node = {
  proto : proto;
  last_ping : int;
  unanswered : int;
  backoff : int;  (** next respawn delay, ns *)
  respawn_at : int option;
  fresh : bool;  (** respawned, not yet pong-verified *)
  believed : key list;  (** segments believed resident *)
  code : int option;  (** the task-code generation the node holds *)
}

type slice =
  | Waiting of int  (** attempts so far; no live target yet *)
  | Sent of { node : int; seq : int; attempts : int; due : int option }
  | Done

type job = {
  base : int;  (** replies tagged below this seq belong to older jobs *)
  deadline : int;  (** absolute ns, 0 = none *)
  pinned : bool;  (** slice [i] may only run on node [i mod nodes] *)
  code : int option;
      (** the code generation its tasks run on, shipped to every node
          that does not hold it; [None]: nodes keep the compute they
          were built with *)
  plans : key list list;  (** per slice: the residency it computes against *)
  slices : slice list;
}

type t = { cfg : config; now : int; next_seq : int; nodes : node list; job : job option }

type failure =
  | Exhausted of { slice : int; attempts : int }
  | Raised of { slice : int; msg : string }
  | Expired

type msg =
  | Task of { slice : int; seq : int }
  | Put of key
  | Reuse of { slice : int; seq : int; key : key }
  | Free of int
  | Ping
  | Code  (** the job's task code, to a node holding another generation *)

type note =
  | Retry of { slice : int; node : int }
  | Redelivery
  | Corrupt
  | Death of { node : int; backoff : int option }
  | Miss of int

type action =
  | Send of int * msg
  | Kill of int
  | Respawn of int
  | Slice_done of int * Bytes.t  (** the reply frame; its body is the caller's *)
  | Job_failed of failure
  | Note of note

type event =
  | Submit of { plans : key list list; deadline : int; pinned : bool; code : int option }
  | Frame of int * Protocol.kind * Bytes.t
  | Eof of int
  | Tick of int
  | Release of int  (** a darray was freed: evict its segments *)
  | Revive  (** respawn every dead node now (between jobs) *)

let kind_of_msg = function
  | Task _ -> Protocol.Data
  | Put _ -> Protocol.Seg_put
  | Reuse _ -> Protocol.Seg_reuse
  | Free _ -> Protocol.Seg_free
  | Ping -> Protocol.Ping
  | Code -> Protocol.Code

(** The state a lease of a warm session starts from: the lease's own
    config, and each node's supervision (unanswered pings, backoff)
    restarted at [now].  Beliefs and code generations stay: they
    describe the children, which outlive every lease. *)
let renew (cfg : config) ~now t =
  let backoff = match cfg.supervision with Some s -> s.backoff_base | None -> 0 in
  let restart n = { n with last_ping = now; unanswered = 0; backoff; fresh = false } in
  { t with cfg; now = max t.now now; nodes = List.map restart t.nodes }

let create (cfg : config) ~now =
  let n =
    { proto = Live; last_ping = now; unanswered = 0; backoff = 0; respawn_at = None; fresh = false; believed = []; code = None }
  in
  renew cfg ~now { cfg; now; next_seq = 0; nodes = List.init cfg.nodes (fun _ -> n); job = None }

let active t = t.job <> None
let live n = n.proto = Live
let set l i v = List.mapi (fun j x -> if j = i then v else x) l

(* A job failure, carrying the state reached so far: whatever the step
   did before failing (deaths, respawns, seqs spent) stands, because the
   actions it emitted are performed. *)
exception Fail of t * failure

(* One step's accumulating action list (local to [step]). *)
type out = { mutable acts : action list }

let emit o a = o.acts <- a :: o.acts

let target t job s =
  let nodes = t.cfg.nodes in
  let home = s mod nodes in
  if live (List.nth t.nodes home) then Some home
  else if job.pinned then None
  else
    match List.concat (List.mapi (fun i n -> if live n then [ i ] else []) t.nodes) with
    | [] -> None
    | lives -> Some (List.nth lives (s mod List.length lives))

(* Can a waiting slice ever find a node? *)
let hopeful t job s =
  let pending n = live n || n.respawn_at <> None in
  if job.pinned then pending (List.nth t.nodes (s mod t.cfg.nodes))
  else List.exists pending t.nodes

let with_slice job s v = { job with slices = set job.slices s v }

(* Issue slice [s] after [attempts] earlier attempts: ship the job's
   code if the node holds another generation, the residency the slice needs
   (a put where belief and truth disagree, a key-only reuse otherwise),
   then the task. *)
let issue o t job s attempts =
  if attempts >= t.cfg.policy.max_attempts then raise (Fail (t, Exhausted { slice = s; attempts }));
  match target t job s with
  | None ->
      if not (hopeful t job s) then raise (Fail (t, Exhausted { slice = s; attempts }));
      (t, with_slice job s (Waiting attempts))
  | Some i ->
      let seq = t.next_seq in
      let n = List.nth t.nodes i in
      let code = if job.code = None then n.code else job.code in
      if code <> n.code then emit o (Send (i, Code));
      let believed =
        List.fold_left
          (fun bel ((did, seg, _) as key) ->
            if List.mem key bel then (
              emit o (Send (i, Reuse { slice = s; seq; key }));
              bel)
            else (
              emit o (Send (i, Put key));
              key :: List.filter (fun (d, g, _) -> (d, g) <> (did, seg)) bel))
          n.believed (List.nth job.plans s)
      in
      emit o (Send (i, Task { slice = s; seq }));
      if attempts > 0 then emit o (Note (Retry { slice = s; node = i }));
      let due =
        Option.map
          (fun (base, cap) -> t.now + min cap (base lsl min attempts 30))
          t.cfg.policy.timeout
      in
      ( { t with next_seq = seq + 1; nodes = set t.nodes i { n with believed; code } },
        with_slice job s (Sent { node = i; seq; attempts = attempts + 1; due }) )

(* Re-issue every slice of the job [pick] selects, in slice order. *)
let reissue o t job pick =
  List.fold_left
    (fun (t, job) (s, sl) ->
      match pick sl with Some a -> issue o t job s a | None -> (t, job))
    (t, job)
    (List.mapi (fun s sl -> (s, sl)) job.slices)

let finish t job =
  if List.for_all (( = ) Done) job.slices then { t with job = None } else { t with job = Some job }

(* A dead incarnation's frames are stale: a backed-off node drops them
   all.  A live node handles what a node sends and drops what only the
   parent sends. *)
let on_frame o t i (kind : Protocol.kind) bytes =
  let n = List.nth t.nodes i in
  match n.proto with
  | Backoff -> t
  | Live -> (
      let current (s, seq) =
        match t.job with
        | Some job when seq >= job.base && s >= 0 && s < List.length job.slices ->
            Some (job, List.nth job.slices s)
        | _ -> None
      in
      match kind with
      | Pong ->
          let n =
            match t.cfg.supervision with
            | Some sv when n.fresh -> { n with backoff = sv.backoff_base; fresh = false; unanswered = 0 }
            | _ -> { n with unanswered = 0 }
          in
          { t with nodes = set t.nodes i n }
      | Data -> (
          match Envelope.tag bytes with
          | None -> emit o (Note Corrupt); t
          | Some ((s, _) as tag) -> (
              match current tag with
              | Some (job, (Waiting _ | Sent _)) ->
                  emit o (Slice_done (s, bytes));
                  finish t (with_slice job s Done)
              | Some (_, Done) | None -> emit o (Note Redelivery); t))
      | Err -> (
          match Envelope.tag bytes with
          | None -> emit o (Note Corrupt); t
          | Some ((s, _) as tag) -> (
              match (current tag, Envelope.body Envelope.err bytes) with
              | Some (_, (Waiting _ | Sent _)), None -> raise (Fail (t, Expired))
              | Some (_, (Waiting _ | Sent _)), Some msg -> raise (Fail (t, Raised { slice = s; msg }))
              | (Some (_, Done) | None), _ -> t
              | exception _ -> emit o (Note Corrupt); t))
      | Nack -> (
          (* Whatever was refused, our beliefs about the node were
             wrong: forget them, and re-issue the refused attempt. *)
          let t = { t with nodes = set t.nodes i { n with believed = [] } } in
          match Envelope.tag bytes with
          | None -> emit o (Note Corrupt); t
          | Some ((s, seq) as tag) -> (
              match current tag with
              | Some (job, Sent { node; seq = seq'; attempts; _ }) when node = i && seq' = seq ->
                  let t, job = issue o t job s attempts in
                  { t with job = Some job }
              | _ -> t))
      | Ping | Seg_put | Seg_reuse | Seg_free | Code -> t)

let on_eof o t i =
  let n = List.nth t.nodes i in
  match n.proto with
  | Backoff -> t
  | Live ->
      let n = { n with proto = Backoff } in
      let n, backoff =
        match t.cfg.supervision with
        | Some sv ->
            let delay = min sv.backoff_max n.backoff in
            ( { n with respawn_at = Some (t.now + delay); backoff = min sv.backoff_max (2 * delay); unanswered = 0 },
              Some delay )
        | None -> (n, None)
      in
      emit o (Note (Death { node = i; backoff }));
      (* A replacement starts from nothing: no segments, no code. *)
      let t = { t with nodes = set t.nodes i { n with believed = []; code = None } } in
      (* The dead child's in-flight slices move now, not at timeout. *)
      match t.job with
      | None -> t
      | Some job ->
          let t, job =
            reissue o t job (function Sent { node; attempts; _ } when node = i -> Some attempts | _ -> None)
          in
          { t with job = Some job }

(* Bring backed-off node [i] ([n]) back as a fresh process,
   pong-verified under supervision.  Reached only from a [Backoff]
   arm. *)
let respawn o t i n =
  emit o (Respawn i);
  let n = { n with proto = Live; last_ping = t.now; unanswered = 0; respawn_at = None; fresh = true } in
  { t with nodes = set t.nodes i n }

(* Supervision for node [i] at [t.now]: ping cadence and miss verdicts
   while live, the due respawn while backed off. *)
let supervise o sv t i =
  let n = List.nth t.nodes i in
  let put n = { t with nodes = set t.nodes i n } in
  match n.proto with
  | Live ->
      if n.unanswered >= sv.miss_threshold then (
        (* Silence is a death verdict, realized as SIGKILL so the EOF
           comes back through the one death path. *)
        emit o (Note (Miss i));
        emit o (Kill i);
        put { n with unanswered = 0 })
      else if t.now - n.last_ping >= sv.hb_interval then (
        emit o (Send (i, Ping));
        put { n with last_ping = t.now; unanswered = n.unanswered + 1 })
      else t
  | Backoff -> (
      match n.respawn_at with
      | Some at when t.now >= at -> respawn o t i n
      | _ -> t)

let on_tick o t now =
  let t = { t with now = max t.now now } in
  let t =
    match t.cfg.supervision with
    | None -> t
    | Some sv -> List.fold_left (fun t i -> supervise o sv t i) t (List.init t.cfg.nodes Fun.id)
  in
  match t.job with
  | None -> t
  | Some job ->
      if job.deadline > 0 && t.now > job.deadline then raise (Fail (t, Expired));
      let t, job =
        reissue o t job (function
          | Waiting a -> Some a
          | Sent { attempts; due = Some d; _ } when t.now >= d -> Some attempts
          | Sent _ | Done -> None)
      in
      { t with job = Some job }

let step t ev =
  let o = { acts = [] } in
  let t' =
    try
      match ev with
      | Submit { plans; deadline; pinned; code } ->
          if t.job <> None then invalid_arg "Dispatch.step: a job is already running";
          if deadline > 0 && t.now > deadline then raise (Fail (t, Expired));
          let job =
            { base = t.next_seq; deadline; pinned; code; plans; slices = List.map (fun _ -> Waiting 0) plans }
          in
          let t, job = reissue o t job (function Waiting a -> Some a | _ -> None) in
          finish t job
      | Frame (i, kind, bytes) -> on_frame o t i kind bytes
      | Eof i -> on_eof o t i
      | Tick now -> on_tick o t now
      | Release did ->
          let nodes =
            List.mapi
              (fun i n ->
                (match n.proto with Live -> emit o (Send (i, Free did)) | Backoff -> ());
                { n with believed = List.filter (fun (d, _, _) -> d <> did) n.believed })
              t.nodes
          in
          { t with nodes }
      | Revive ->
          List.fold_left
            (fun t i ->
              let n = List.nth t.nodes i in
              match n.proto with Live -> t | Backoff -> respawn o t i n)
            t
            (List.init t.cfg.nodes Fun.id)
    with Fail (t, f) ->
      emit o (Job_failed f);
      { t with job = None }
  in
  (t', List.rev o.acts)

(** The earliest instant at which a {!Tick} would do something: a job
    deadline, a slice timeout, a ping or a respawn. *)
let next_deadline t =
  let soonest = ref max_int in
  let at d = if d < !soonest then soonest := d in
  Option.iter
    (fun job ->
      if job.deadline > 0 then at (job.deadline + 1);
      List.iter (function Sent { due = Some d; _ } -> at d | _ -> ()) job.slices)
    t.job;
  Option.iter
    (fun sv ->
      List.iter
        (fun n -> if live n then at (n.last_ping + sv.hb_interval) else Option.iter at n.respawn_at)
        t.nodes)
    t.cfg.supervision;
  if !soonest = max_int then None else Some !soonest

(* ------------------------------------------------------------------ *)
(* IO shells.                                                           *)

(* Inside a forked child: the node id this process is. *)
let current_node : int option ref = ref None
let on_node () = !current_node

type report = {
  scatter_bytes : int;  (** bytes shipped to nodes (retries included) *)
  gather_bytes : int;  (** reply bytes shipped back (retries included) *)
  scatter_messages : int;
  gather_messages : int;
  max_message_bytes : int;  (** largest single message *)
  retries : int;  (** slice re-issues *)
  redeliveries : int;  (** duplicate/late replies discarded by dedup *)
  corrupt_drops : int;  (** messages rejected by checksum/decode *)
  crashed_nodes : int;  (** node deaths survived *)
  faults_injected : int;  (** total faults the injector fired *)
  recovery_ns : int;  (** wall time from the first retry or death *)
  code_bytes : int;  (** task code shipped in [Code] frames; not payload *)
}

let empty_report =
  {
    scatter_bytes = 0;
    gather_bytes = 0;
    scatter_messages = 0;
    gather_messages = 0;
    max_message_bytes = 0;
    retries = 0;
    redeliveries = 0;
    corrupt_drops = 0;
    crashed_nodes = 0;
    faults_injected = 0;
    recovery_ns = 0;
    code_bytes = 0;
  }

(* A node's compute: its segment table and one frame in, the table
   after and the frames it answers. *)
type compute =
  Child.table -> Protocol.kind -> Bytes.t -> Child.table * (Protocol.kind * Bytes.t) list

(** A session's task code: node [node] computes slice [slice] of a job
    from the slice's argument and the segments resident for it, on its
    [pool] (forced on first use). *)
type 'r work = node:int -> pool:Pool.t Lazy.t -> slice:int -> resident:Payload.t -> Payload.t -> 'r

(* [work] served by node [node], its results encoded with [result]. *)
let serve ?span ~result (work : _ work) ~node ~pool : compute =
 fun table kind bytes ->
  Child.handle ?span ~now:(Clock.monotonic_ns ()) ~result ~work:(work ~node ~pool) table kind bytes

(* Task code as [Code] frames carry it: how a node builds its compute
   from its id and the pool it keeps for life, and the phase at which
   the node's planned crash fires.  Marshalled with its closures, which
   is valid between processes of one binary — every forked child is
   one. *)
type code = { compute : node:int -> pool:Pool.t Lazy.t -> compute; crash : Fault.crash_phase option }

exception Unshippable_task of string

(* Task code as closure bytes, refused before any frame is sent or any
   child forked when it cannot cross: a closure over a value [Marshal]
   cannot serialize (a mutex, a channel), or one bigger than a frame.
   The heap the closure reaches bounds the size first, without
   marshalling it; the bytes themselves are checked after. *)
let closure_bytes ~span (code : code) =
  let too_big () =
    raise
      (Unshippable_task
         (Printf.sprintf "task code over the %d B frame limit" Protocol.max_frame_payload))
  in
  Obs.span ~name:(span ^ ".serialize") (fun () ->
      if Obj.reachable_words (Obj.repr code) > Protocol.max_frame_payload / (Sys.word_size / 8) then
        too_big ();
      match Marshal.to_bytes code [ Marshal.Closures ] with
      | b when Bytes.length b > Protocol.max_frame_payload -> too_big ()
      | b -> b
      | exception (Invalid_argument why | Failure why) -> raise (Unshippable_task why))

let is_data (k, _) = k = Protocol.Data

(** One node's program, run by the inline shell and by every forked
    child alike: a segment table that lives as long as the node, the
    compute it serves with, and the phase of its planned crash.  A
    [Code] frame (or, inline, {!load}) replaces the compute and the
    crash phase, never the table, so resident segments outlive it. *)
module Node = struct
  type t = {
    id : int;
    pool : Pool.t Lazy.t;
    mutable table : Child.table;
    mutable compute : compute;
    mutable crash : Fault.crash_phase option;
  }

  (* A node before its first code: it answers pings and nothing else.
     A task then is a protocol bug, and kills the node. *)
  let uncoded : compute =
   fun table kind bytes ->
    match (kind : Protocol.kind) with
    | Ping -> (table, [ (Protocol.Pong, bytes) ])
    | Data -> failwith "Dispatch: a task before the node's code"
    | Err | Nack | Pong | Seg_put | Seg_reuse | Seg_free | Code -> (table, [])

  let create ~id ~pool = { id; pool; table = Child.empty; compute = uncoded; crash = None }

  (** One frame in: [Some] frames to answer, or [None] when the node
      dies at this frame. *)
  let step n kind bytes =
    match (kind : Protocol.kind) with
    | Code ->
        let c : code = Marshal.from_bytes bytes 0 in
        n.compute <- c.compute ~node:n.id ~pool:n.pool;
        n.crash <- c.crash;
        Some []
    | Data when n.crash = Some Before_work -> None
    | Data | Err | Nack | Ping | Pong | Seg_put | Seg_reuse | Seg_free -> (
        let table, out = n.compute n.table kind bytes in
        n.table <- table;
        match n.crash with
        | Some (During_work | After_work) when List.exists is_data out -> None
        | _ -> Some out)
end

(* OCaml cannot fork once any domain has been spawned: checked before
   every fork of a node, first or respawn. *)
let forkable () =
  if Pool.domains_ever_spawned () then
    failwith
      "Cluster: process-backend nodes are forked (and respawned) \
       processes, and OCaml cannot fork once any domain has been \
       spawned.  Select the backend before creating any multi-domain \
       pool (e.g. run with TRIOLET_BACKEND=process)."

(* The one program every forked node runs: each frame from the parent
   through {!Node.step}, the answers back.  Its compute arrives in
   [Code] frames; a death is a real exit, indistinguishable on the wire
   from a kill. *)
let node_main ~cores ~id chan =
  current_node := Some id;
  let node = Node.create ~id ~pool:(lazy (Pool.create ~workers:cores ())) in
  let rec loop () =
    match Transport.Socket.recv chan with
    | exception Transport.Closed -> ()
    | kind, bytes -> (
        match Node.step node kind bytes with
        | None -> Unix._exit 0
        | Some out ->
            List.iter (fun (kind, b) -> Transport.Socket.send chan ~kind b) out;
            loop ())
  in
  loop ()

type inline = {
  nodes : Node.t array;
  inbox : (Protocol.kind * Bytes.t) Queue.t array;
  arrivals : event Queue.t;  (* node output and deaths, in order *)
  dead : bool array;
}

(* A process session's children are forked by its first {!load}, once
   the code is known to cross. *)
type procs = { fabric : Transport.Proc.t Lazy.t; cores : int }
type io = Inline of inline | Procs of procs

type hooks = {
  task : slice:int -> seq:int -> Bytes.t;
  put : key -> Bytes.t;
  on_done : int -> Bytes.t -> unit;
}

let no_hooks =
  {
    task = (fun ~slice:_ ~seq:_ -> invalid_arg "Dispatch: no job");
    put = (fun _ -> invalid_arg "Dispatch: no residency");
    on_done = (fun _ _ -> ());
  }

(* The owning layer's span names. *)
type names = { layer : string; send : string; recv : string; serialize : string; retry : string; reissue : string }

type session = {
  mutable st : t;
  io : io;
  faults : Fault.t option;
  mutable names : names;
  late : (unit -> unit) Queue.t;  (* delayed deliveries, released on a timeout *)
  mutable hooks : hooks;
  mutable code : (int * (int -> Bytes.t)) option;
      (* a process session's task code: its generation and node [i]'s
         [Code] frame *)
  mutable failed : failure option;
  mutable tally : report;
  mutable recovery_from : int option;
  mutable respawns : int;  (* this lease's *)
  mutable misses : int;  (* this lease's *)
  mutable sound : bool;  (* false once the shell raised: retired, never pooled *)
  mutable next_did : int;  (* darray ids are never reused, across leases too *)
  mutable dids : int list;  (* this lease's live darrays *)
}

let names span =
  {
    layer = span;
    send = span ^ ".send";
    recv = span ^ ".recv";
    serialize = span ^ ".serialize";
    retry = span ^ ".retry";
    reissue = span ^ ".retry.reissue";
  }

let make ?faults ~span (cfg : config) io =
  {
    st = create cfg ~now:(Clock.monotonic_ns ());
    io;
    faults;
    names = names span;
    late = Queue.create ();
    hooks = no_hooks;
    code = None;
    failed = None;
    tally = empty_report;
    recovery_from = None;
    respawns = 0;
    misses = 0;
    sound = true;
    next_did = 0;
    dids = [];
  }

(* Inline nodes share [pool]. *)
let inline ?faults ~span ~pool (cfg : config) =
  let n = cfg.nodes in
  make ?faults ~span cfg
    (Inline
       {
         nodes = Array.init n (fun id -> Node.create ~id ~pool);
         inbox = Array.init n (fun _ -> Queue.create ());
         arrivals = Queue.create ();
         dead = Array.make n false;
       })

(** Task code for every later job: [work] computes the slices, [result]
    encodes their results.  Inline nodes take the closure itself, with
    its phases traced under the session's span; forked nodes take it as
    closure bytes in a [Code] frame before their next task, and again
    only after a respawn or the next [load].  The fault plan's crash
    node gets a variant that dies at the planned phase until the node's
    first death.  The code is marshalled before the first [load] forks
    a process session, so code that cannot cross forks nothing. *)
let load s ~result ~work =
  let crash node = Option.bind s.faults (Fault.crash_phase ~node) in
  match s.io with
  | Inline io ->
      Array.iter
        (fun (n : Node.t) ->
          n.compute <- serve ~span:s.names.layer ~result work ~node:n.id ~pool:n.pool;
          n.crash <- crash n.id)
        io.nodes
  | Procs p ->
      let ship crash = closure_bytes ~span:s.names.layer { compute = serve ~result work; crash } in
      let plain = ship None in
      let code = Array.init s.st.cfg.nodes (fun id -> match crash id with None -> plain | c -> ship c) in
      let frames id = if crash id = None then plain else code.(id) in
      s.code <- Some ((match s.code with Some (g, _) -> g + 1 | None -> 0), frames);
      ignore (Lazy.force p.fabric)

let fabric s = match s.io with Procs p when Lazy.is_val p.fabric -> Some (Lazy.force p.fabric) | _ -> None
let node_attr n = [ ("node", string_of_int n) ]

(* A session the shell raised out of may hold an engine and a fabric
   out of step: it is retired at {!close}, never pooled. *)
let guard s f = try f () with e -> s.sound <- false; raise e

let count s ~gather bytes =
  let len = Bytes.length bytes and r = s.tally in
  Stats.record_message ~bytes:len;
  let max_message_bytes = max r.max_message_bytes len in
  s.tally <-
    (if gather then
       { r with gather_bytes = r.gather_bytes + len; gather_messages = r.gather_messages + 1; max_message_bytes }
     else
       { r with scatter_bytes = r.scatter_bytes + len; scatter_messages = r.scatter_messages + 1; max_message_bytes })

(* Data frames cross the fault plan's links: dropped, corrupted,
   delayed until the next timeout, or duplicated. *)
let through s link kind bytes push =
  match s.faults with
  | Some f when kind = Protocol.Data -> (
      match Fault.decide f ~link bytes with
      | `Drop -> ()
      | `Deliver (b, delayed, dup) ->
          if delayed then Queue.push (fun () -> push b) s.late else push b;
          if dup then push (Bytes.copy b))
  | _ -> push bytes

let deliver s n kind bytes =
  match s.io with
  | Inline io -> if not io.dead.(n) then Queue.push (kind, bytes) io.inbox.(n)
  | Procs p -> (
      let fabric = Lazy.force p.fabric in
      if Transport.Proc.is_alive fabric n then
        try Transport.Socket.send (Transport.Proc.node fabric n).chan ~kind bytes
        with Transport.Closed -> (* its EOF surfaces in the select loop *) ())

let recovering s = if s.recovery_from = None then s.recovery_from <- Some (Clock.monotonic_ns ())

let note s = function
  | Retry { node; _ } ->
      recovering s;
      s.tally <- { s.tally with retries = s.tally.retries + 1 };
      Stats.record_retry ();
      Obs.instant ~name:s.names.reissue ~attrs:(node_attr node) ()
  | Redelivery ->
      s.tally <- { s.tally with redeliveries = s.tally.redeliveries + 1 };
      Stats.record_redelivery ()
  | Corrupt ->
      s.tally <- { s.tally with corrupt_drops = s.tally.corrupt_drops + 1 };
      Stats.record_corrupt_drop ()
  | Death { node; backoff } ->
      recovering s;
      s.tally <- { s.tally with crashed_nodes = s.tally.crashed_nodes + 1 };
      (match s.faults with
      | Some f -> ignore (Fault.mark_crashed f node)
      | None -> Stats.record_crash ());
      Option.iter
        (fun ns ->
          Obs.instant ~name:"service.child.death"
            ~attrs:(node_attr node @ [ ("backoff", Printf.sprintf "%.3f" (float_of_int ns /. 1e9)) ])
            ())
        backoff
  | Miss node ->
      s.misses <- s.misses + 1;
      Stats.record_heartbeat_miss ();
      Obs.instant ~name:"service.heartbeat.miss" ~attrs:(node_attr node) ()

let rec feed s ev =
  let st, acts = step s.st ev in
  s.st <- st;
  if List.exists (function Note (Retry _) -> true | _ -> false) acts then
    Obs.span ~name:s.names.retry (fun () -> List.iter (perform s) acts)
  else List.iter (perform s) acts

and perform s = function
  | Send (n, m) ->
      let kind = kind_of_msg m in
      let bytes =
        match m with
        | Task { slice; seq } -> s.hooks.task ~slice ~seq
        | Put key -> s.hooks.put key
        | Reuse { slice; seq; key } -> Envelope.encode Envelope.key ~slice ~seq key
        | Free did -> Envelope.encode Codec.int ~slice:(-1) ~seq:0 did
        | Ping -> Bytes.empty
        | Code -> (snd (Option.get s.code)) n
      in
      (match m with
      | Ping | Free _ -> ()
      | Code ->
          (* Code is not payload: kept out of messages and bytes, so
             payload traffic is the same over every backend. *)
          let len = Bytes.length bytes in
          Stats.record_code ~bytes:len;
          s.tally <- { s.tally with code_bytes = s.tally.code_bytes + len }
      | Task _ | Put _ | Reuse _ -> count s ~gather:false bytes);
      Obs.span ~name:s.names.send ~attrs:(node_attr n) (fun () ->
          through s (Fault.To_node n) kind bytes (deliver s n kind))
  | Kill n -> Option.iter (fun f -> Transport.Proc.kill f n) (fabric s)
  | Respawn n -> (
      match s.io with
      | Inline _ -> ()
      | Procs p ->
          forkable ();
          (* A replacement sacrificed to the chaos plan exits before
             serving anything, so the backoff escalates. *)
          let young =
            match s.faults with
            | Some f -> Fault.inject f Fault.Crash_on_respawn ~node:n
            | None -> false
          in
          let child ~id chan =
            if young then Transport.Socket.close chan else node_main ~cores:p.cores ~id chan
          in
          let fabric = Lazy.force p.fabric in
          Transport.Proc.respawn fabric n ~child;
          s.respawns <- s.respawns + 1;
          Stats.record_respawn ();
          Obs.instant ~name:"service.respawn"
            ~attrs:(node_attr n @ [ ("pid", string_of_int (Transport.Proc.pid fabric n)) ])
            ())
  | Slice_done (i, bytes) -> s.hooks.on_done i bytes
  | Job_failed f -> s.failed <- Some f
  | Note n -> note s n

(* A frame from node [n] reaching the parent. *)
let arrive s n kind bytes =
  if kind = Protocol.Data then count s ~gather:true bytes;
  let lost =
    kind = Protocol.Pong
    && match s.faults with Some f -> Fault.inject f Fault.Heartbeat_loss ~node:n | None -> false
  in
  if lost then Obs.instant ~name:"service.heartbeat.lost" ~attrs:(node_attr n) ()
  else through s (Fault.From_node n) kind bytes (fun b -> feed s (Frame (n, kind, b)))

let release_late s =
  let q = Queue.copy s.late in
  Queue.clear s.late;
  Queue.iter (fun f -> f ()) q

let seconds_until s =
  match next_deadline s.st with
  | None -> -1.0
  | Some d -> Float.max 0.0 (float_of_int (d - Clock.monotonic_ns ()) /. 1e9)

(* Run every live inline node over its inbox.  Node output crosses the
   link faults into [arrivals]; a node that dies queues its EOF. *)
let run_nodes s io =
  Array.iteri
    (fun n q ->
      while (not io.dead.(n)) && not (Queue.is_empty q) do
        let kind, bytes = Queue.pop q in
        match Node.step io.nodes.(n) kind bytes with
        | None ->
            io.dead.(n) <- true;
            Queue.clear q;
            Queue.push (Eof n) io.arrivals
        | Some out ->
            List.iter
              (fun (k, b) ->
                if k = Protocol.Data then count s ~gather:true b;
                through s (Fault.From_node n) k b (fun b -> Queue.push (Frame (n, k, b)) io.arrivals))
              out
      done)
    io.inbox

let rec pump_inline s io =
  run_nodes s io;
  if not (Queue.is_empty io.arrivals) then begin
    while not (Queue.is_empty io.arrivals) do
      feed s (Queue.pop io.arrivals)
    done;
    pump_inline s io
  end
  else if active s.st && s.failed = None then begin
    (* Nothing in flight: wait out the engine's next timer, then let
       parked (delayed) traffic arrive. *)
    let wait = seconds_until s in
    if wait < 0.0 then failwith "Dispatch: job stalled with no timer pending";
    Obs.span ~name:s.names.recv (fun () -> if wait > 0.0 then Unix.sleepf wait);
    release_late s;
    feed s (Tick (Clock.monotonic_ns ()));
    pump_inline s io
  end

(* One select round of the process shell: a frame, an EOF, a timeout,
   or (with [wake]) the caller's self-pipe. *)
let wait_procs ?wake s fabric =
  match
    Obs.span ~name:s.names.recv (fun () ->
        Transport.Proc.recv_any ?wake fabric ~timeout:(seconds_until s))
  with
  | `Msg (n, kind, bytes) -> arrive s n kind bytes; false
  | `Eof n -> feed s (Eof n); false
  | `Timeout -> release_late s; false
  | `No_nodes -> Unix.sleepf (Float.max 0.001 (Float.min 0.005 (seconds_until s))); false
  | `Wake -> true

let tick s = feed s (Tick (Clock.monotonic_ns ()))

(* Tick only when a timer is due: most frames need no timer pass. *)
let tick_if_due s =
  match next_deadline s.st with
  | Some d when d <= Clock.monotonic_ns () -> tick s
  | _ -> ()

(** Keep the fabric supervised while no job runs, until [wake] becomes
    readable. *)
let idle s ~wake =
  match s.io with
  | Inline _ -> ()
  | Procs p ->
      let rec go () =
        tick s;
        if not (wait_procs ~wake s (Lazy.force p.fabric)) then go ()
      in
      guard s go

(** The frame that installs segment [key] with [payload], for a caller
    to retain per version and hand back through [run_job ~put]. *)
let put_frame s ((did, seg, _) as key) payload =
  Obs.span ~name:s.names.serialize
    ~attrs:[ ("darray", string_of_int did); ("seg", string_of_int seg) ]
    (fun () ->
      Stats.record_encode ();
      Envelope.encode Envelope.put ~slice:0 ~seq:0 (key, payload))

(** Run one job of [slices] slices to completion on the code last
    {!load}ed.  Slice [i] computes [arg i] against the segments
    [keys i] names ([put] gives a segment's retained install frame),
    by [deadline] (absolute monotonic ns, 0 = none), on node
    [i mod nodes] only if [pinned].  A slice that names no segment is
    encoded once and its bytes resent on retry; one that does is
    encoded per attempt, because a refusal names its attempt.  Returns
    the results decoded with [result] in slice order, or the failure,
    and the job's traffic and recovery report. *)
let run_job s ?(deadline = 0) ?(pinned = false) ?(keys = fun _ -> []) ?(put = no_hooks.put) ~slices ~arg
    ~result () =
  let plans = Array.init slices keys in
  let encoded = Array.make slices None in
  let task ~slice ~seq =
    match encoded.(slice) with
    | Some b -> b
    | None ->
        let b =
          Obs.span ~name:s.names.serialize ~attrs:(node_attr slice) (fun () ->
              Stats.record_encode ();
              Envelope.encode Envelope.task ~slice ~seq (plans.(slice), deadline, arg slice))
        in
        if plans.(slice) = [] then encoded.(slice) <- Some b;
        b
  in
  let results = Array.make slices None in
  let on_done i bytes =
    (* A finished slice is never re-issued: drop its bytes now. *)
    encoded.(i) <- None;
    results.(i) <-
      Some (Obs.span ~name:s.names.recv ~attrs:(node_attr i) (fun () -> Envelope.body result bytes))
  in
  s.hooks <- { task; put; on_done };
  s.failed <- None;
  s.tally <- empty_report;
  s.recovery_from <- None;
  let c0 = Option.map Fault.counters s.faults in
  Fun.protect
    ~finally:(fun () ->
      (* Even if the shell raised, the session is left between jobs. *)
      s.hooks <- no_hooks;
      s.st <- { s.st with job = None })
    (fun () ->
      guard s (fun () ->
          tick s;
          feed s (Submit { plans = Array.to_list plans; deadline; pinned; code = Option.map fst s.code });
          match s.io with
          | Inline io -> pump_inline s io
          | Procs p ->
              while active s.st && s.failed = None do
                ignore (wait_procs s (Lazy.force p.fabric));
                tick_if_due s
              done);
      let recovery_ns =
        match s.recovery_from with
        | None -> 0
        | Some t0 ->
            let ns = Clock.monotonic_ns () - t0 in
            Stats.record_recovery_ns ns;
            ns
      in
      let faults_injected =
        match (s.faults, c0) with
        | Some f, Some c0 ->
            let c = Fault.counters f in
            c.drops + c.duplicates + c.corruptions + c.delays + c.crashes
            - (c0.drops + c0.duplicates + c0.corruptions + c0.delays + c0.crashes)
        | _ -> 0
      in
      ( (match s.failed with None -> Ok (Array.map Option.get results) | Some f -> Error f),
        { s.tally with recovery_ns; faults_injected } ))

(** Darray ids: a fresh one is never one an earlier lease of the
    session used, and {!release} evicts one everywhere. *)
let fresh_did s =
  let did = s.next_did in
  s.next_did <- did + 1;
  s.dids <- did :: s.dids;
  did

let release s did =
  s.dids <- List.filter (( <> ) did) s.dids;
  feed s (Release did)

(* At a lease: take in the deaths (and stale frames) the fabric already
   holds, then respawn every dead node. *)
let revive s =
  match fabric s with
  | None -> ()
  | Some fabric ->
      let rec drain () =
        match Transport.Proc.recv_any fabric ~timeout:0.0 with
        | `Msg (n, kind, bytes) -> arrive s n kind bytes; drain ()
        | `Eof n -> feed s (Eof n); drain ()
        | `Timeout | `No_nodes | `Wake -> ()
      in
      drain ();
      if not (List.for_all live s.st.nodes) then feed s Revive

(* ------------------------------------------------------------------ *)
(* The warm fabric: idle process sessions by [(nodes, cores)].          *)

type warm = { mutable lock : Mutex.t; idle : (int * int, session) Hashtbl.t }

let warm = { lock = Mutex.create (); idle = Hashtbl.create 4 }
let shut ?grace s = Option.iter (Transport.Proc.shutdown ?grace) (fabric s)

let () =
  (* A forked child owns none of these sessions, and the lock may have
     been held at the fork: a nested process call there starts anew. *)
  Transport.Proc.on_fork_child (fun () ->
      warm.lock <- Mutex.create ();
      Hashtbl.reset warm.idle);
  at_exit (fun () ->
      Hashtbl.iter (fun _ s -> shut s) warm.idle;
      Hashtbl.reset warm.idle)

(** A process session of [cfg.nodes] nodes with [cores]-wide pools, the
    caller's until {!close}: an idle one of that topology (dead nodes
    respawned; the caller's config, span names and counters), or else a
    new one that forks a {!node_main} per node at its first {!load}.
    Concurrent leases of one topology get separate sessions, so a lease
    never waits for another.  A fault plan's session is private. *)
let lease ?faults ~span ~cores (cfg : config) =
  let key = (cfg.nodes, cores) in
  Mutex.lock warm.lock;
  let idle = if faults = None then Hashtbl.find_opt warm.idle key else None in
  if Option.is_some idle then Hashtbl.remove warm.idle key;
  Mutex.unlock warm.lock;
  match idle with
  | None ->
      make ?faults ~span cfg
        (Procs { fabric = lazy (forkable (); Transport.Proc.fork ~n:cfg.nodes ~child:(node_main ~cores)); cores })
  | Some s ->
      s.st <- renew cfg ~now:(Clock.monotonic_ns ()) s.st;
      s.names <- names span;
      s.respawns <- 0;
      s.misses <- 0;
      (try revive s with e -> shut s; raise e);
      s

(** Done with a session: a sound, fault-free process session frees this
    lease's darrays and goes back warm; any other is shut down. *)
let close ?grace s =
  match (s.io, s.faults, fabric s) with
  | Procs p, None, Some _ when s.sound ->
      List.iter (release s) s.dids;
      Mutex.lock warm.lock;
      Hashtbl.add warm.idle (s.st.cfg.nodes, p.cores) s;
      Mutex.unlock warm.lock
  | _ -> shut ?grace s

(** {!load} on a fresh lease: code that cannot be loaded closes it. *)
let load_or_close s ~result ~work = try load s ~result ~work with e -> close s; raise e
