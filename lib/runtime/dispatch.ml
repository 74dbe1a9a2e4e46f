(** The dispatch engine under every distributed skeleton (paper,
    section 3.4: one message-passing layer beneath all of them).

    {!step} is a pure function from an engine state and one event (a
    frame from a node, a node's EOF, a timer tick carrying [now], a job
    submission, a darray release) to the next state and the actions to
    perform (send a frame, kill or respawn a node, report a slice done
    or the job failed).  It performs no I/O and reads no clock: time
    arrives in events.  The state is immutable data — no closures, no
    mutable fields — so {!Triolet_sim} model-checks this very function.

    Around it sit an in-process shell (inline node execution over
    queues) and a process shell (a [select] loop over
    {!Transport.Proc}); {!Child.handle} is the one node-side handler
    every caller's children run.  {!Cluster} is a one-shot session,
    {!Darray} a session plus its residency table, {!Service} admission
    and deadlines around a long-lived session. *)

module Codec = Triolet_base.Codec
module Rw = Triolet_base.Rw
module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

(** [(darray id, wire segment index, version)]. *)
type key = int * int * int

(* ------------------------------------------------------------------ *)
(* The envelope: every frame with a body is [(slice, seq, body)], and a
   session either checksums all of them or none.                       *)

module Envelope = struct
  let codec ~crc c =
    if crc then Codec.checksummed Codec.(triple int int c)
    else Codec.(triple int int c)

  let encode ~crc c ~slice ~seq v = Codec.to_bytes (codec ~crc c) (slice, seq, v)
  let decode ~crc c b = Codec.of_bytes (codec ~crc c) b

  (* A reader at the tag: past the checksum header when there is one. *)
  let at_tag ~crc b = Rw.reader_of_bytes ~pos:(if crc then Codec.checksum_header else 0) b

  let tag ~crc b =
    if crc && not (Codec.checksummed_intact b) then None
    else
      let r = at_tag ~crc b in
      if Rw.remaining r < 16 then None
      else
        let slice = Rw.read_int r in
        let seq = Rw.read_int r in
        Some (slice, seq)

  (* The body of a frame whose tag (and checksum) {!tag} already
     accepted: decoded without checking the checksum a second time. *)
  let body ~crc c b =
    let r = at_tag ~crc b in
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

  type phases = { phase : 'a. string -> (unit -> 'a) -> 'a }

  let no_phases = { phase = (fun _ f -> f ()) }

  let lookup table (did, seg, ver) =
    match List.assoc_opt (did, seg) table with
    | Some (v, p) when v = ver -> Some p
    | _ -> None

  let install table (did, seg, ver) p =
    List.merge compare [ ((did, seg), (ver, p)) ] (List.remove_assoc (did, seg) table)

  let handle ~crc ?(phases = no_phases) ~now ~result ~work table kind bytes =
    let reply ~slice ~seq c v kind = [ (kind, Envelope.encode ~crc c ~slice ~seq v) ] in
    let untagged = [ (Protocol.Nack, Bytes.empty) ] in
    match (kind : Protocol.kind) with
    | Ping -> (table, [ (Protocol.Pong, bytes) ])
    | Err | Nack | Pong -> (table, [])
    | Seg_put -> (
        match Envelope.decode ~crc Envelope.put bytes with
        | _, _, (key, p) -> (install table key p, [])
        | exception _ -> (table, untagged))
    | Seg_reuse -> (
        match Envelope.decode ~crc Envelope.key bytes with
        | slice, seq, key ->
            if lookup table key <> None then (table, [])
            else (table, reply ~slice ~seq Envelope.key key Protocol.Nack)
        | exception _ -> (table, untagged))
    | Seg_free -> (
        match Envelope.decode ~crc Codec.int bytes with
        | _, _, did -> (List.filter (fun ((d, _), _) -> d <> did) table, [])
        | exception _ -> (table, []))
    | Data -> (
        match phases.phase "recv" (fun () -> Envelope.decode ~crc Envelope.task bytes) with
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
                match phases.phase "compute" (fun () -> work ~slice ~resident arg) with
                | r -> (table, phases.phase "serialize" (fun () -> reply ~slice ~seq result r Protocol.Data))
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
  crc : bool;
  policy : policy;
  supervision : supervision option;  (** [None]: no pings, no respawns *)
}

type node = {
  proto : string;  (** parent-side {!Protocol.spec} state *)
  last_ping : int;
  unanswered : int;
  backoff : int;  (** next respawn delay, ns *)
  respawn_at : int option;
  fresh : bool;  (** respawned, not yet pong-verified *)
  believed : key list;  (** segments believed resident *)
}

type slice =
  | Waiting of int  (** attempts so far; no live target yet *)
  | Sent of { node : int; seq : int; attempts : int; due : int option }
  | Done

type job = {
  base : int;  (** replies tagged below this seq belong to older jobs *)
  deadline : int;  (** absolute ns, 0 = none *)
  pinned : bool;  (** slice [i] may only run on node [i mod nodes] *)
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

type note =
  | Retry of { slice : int; node : int }
  | Redelivery
  | Corrupt
  | Death of { node : int; backoff : int option }
  | Miss of int
  | Off_spec of string

type action =
  | Send of int * msg
  | Kill of int
  | Respawn of int
  | Slice_done of int * Bytes.t  (** the reply frame; its body is the caller's *)
  | Job_failed of failure
  | Note of note

type event =
  | Submit of { plans : key list list; deadline : int; pinned : bool }
  | Frame of int * Protocol.kind * Bytes.t
  | Eof of int
  | Tick of int
  | Release of int  (** a darray was freed: evict its segments *)

let kind_of_msg = function
  | Task _ -> Protocol.Data
  | Put _ -> Protocol.Seg_put
  | Reuse _ -> Protocol.Seg_reuse
  | Free _ -> Protocol.Seg_free
  | Ping -> Protocol.Ping

let create (cfg : config) ~now =
  let n =
    {
      proto = Protocol.(initial spec Parent);
      last_ping = now;
      unanswered = 0;
      backoff = (match cfg.supervision with Some s -> s.backoff_base | None -> 0);
      respawn_at = None;
      fresh = false;
      believed = [];
    }
  in
  { cfg; now; next_seq = 0; nodes = List.init cfg.nodes (fun _ -> n); job = None }

let active t = t.job <> None
let live n = n.proto = "live"
let set l i v = List.mapi (fun j x -> if j = i then v else x) l

(* A job failure, carrying the state reached so far: whatever the step
   did before failing (deaths, respawns, seqs spent) stands, because the
   actions it emitted are performed. *)
exception Fail of t * failure

(* One step's accumulating action list (local to [step]). *)
type out = { mutable acts : action list }

let emit o a = o.acts <- a :: o.acts

(* Advance node [i]'s spec state; [None] means the event is dropped. *)
let proto o t i ev =
  let n = List.nth t.nodes i in
  match Protocol.action_for Protocol.spec ~role:Protocol.Parent ~state:n.proto ev with
  | Some (Protocol.Goto s) -> Some { n with proto = s }
  | Some Protocol.Stay -> Some n
  | Some Protocol.Drop -> None
  | None ->
      emit o
        (Note
           (Off_spec
              (Printf.sprintf "parent[%d] in state %s: no rule for %s" i n.proto
                 (Protocol.event_name ev))));
      None

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

(* Issue slice [s] after [attempts] earlier attempts: ship the residency
   it needs (a put where belief and truth disagree, a key-only reuse
   otherwise), then the task. *)
let issue o t job s attempts =
  if attempts >= t.cfg.policy.max_attempts then raise (Fail (t, Exhausted { slice = s; attempts }));
  match target t job s with
  | None ->
      if not (hopeful t job s) then raise (Fail (t, Exhausted { slice = s; attempts }));
      (t, with_slice job s (Waiting attempts))
  | Some i ->
      let seq = t.next_seq in
      let n = List.nth t.nodes i in
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
      ( { t with next_seq = seq + 1; nodes = set t.nodes i { n with believed } },
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

let on_frame o t i kind bytes =
  let crc = t.cfg.crc in
  match proto o t i (Protocol.Recv kind) with
  | None -> t
  | Some n -> (
      let t = { t with nodes = set t.nodes i n } in
      let current (s, seq) =
        match t.job with
        | Some job when seq >= job.base && s >= 0 && s < List.length job.slices ->
            Some (job, List.nth job.slices s)
        | _ -> None
      in
      match kind with
      | Protocol.Pong ->
          let n =
            match t.cfg.supervision with
            | Some sv when n.fresh -> { n with backoff = sv.backoff_base; fresh = false; unanswered = 0 }
            | _ -> { n with unanswered = 0 }
          in
          { t with nodes = set t.nodes i n }
      | Data -> (
          match Envelope.tag ~crc bytes with
          | None -> emit o (Note Corrupt); t
          | Some ((s, _) as tag) -> (
              match current tag with
              | Some (job, (Waiting _ | Sent _)) ->
                  emit o (Slice_done (s, bytes));
                  finish t (with_slice job s Done)
              | Some (_, Done) | None -> emit o (Note Redelivery); t))
      | Err -> (
          match Envelope.tag ~crc bytes with
          | None -> emit o (Note Corrupt); t
          | Some ((s, _) as tag) -> (
              match (current tag, Envelope.body ~crc Envelope.err bytes) with
              | Some (_, (Waiting _ | Sent _)), None -> raise (Fail (t, Expired))
              | Some (_, (Waiting _ | Sent _)), Some msg -> raise (Fail (t, Raised { slice = s; msg }))
              | (Some (_, Done) | None), _ -> t
              | exception _ -> emit o (Note Corrupt); t))
      | Nack -> (
          (* Whatever was refused, our beliefs about the node were
             wrong: forget them, and re-issue the refused attempt. *)
          let t = { t with nodes = set t.nodes i { n with believed = [] } } in
          match Envelope.tag ~crc bytes with
          | None -> emit o (Note Corrupt); t
          | Some ((s, seq) as tag) -> (
              match current tag with
              | Some (job, Sent { node; seq = seq'; attempts; _ }) when node = i && seq' = seq ->
                  let t, job = issue o t job s attempts in
                  { t with job = Some job }
              | _ -> t))
      | Ping | Seg_put | Seg_reuse | Seg_free -> t)

let on_eof o t i =
  match proto o t i Protocol.Eof with
  | None -> t
  | Some n ->
      let n, backoff =
        match t.cfg.supervision with
        | Some sv ->
            let delay = min sv.backoff_max n.backoff in
            ( { n with respawn_at = Some (t.now + delay); backoff = min sv.backoff_max (2 * delay); unanswered = 0 },
              Some delay )
        | None -> (n, None)
      in
      emit o (Note (Death { node = i; backoff }));
      let t = { t with nodes = set t.nodes i { n with believed = [] } } in
      (* The dead child's in-flight slices move now, not at timeout. *)
      match t.job with
      | None -> t
      | Some job ->
          let t, job =
            reissue o t job (function Sent { node; attempts; _ } when node = i -> Some attempts | _ -> None)
          in
          { t with job = Some job }

(* Supervision for node [i] at [t.now]: ping cadence, miss verdicts,
   due respawns. *)
let supervise o sv t i =
  let n = List.nth t.nodes i in
  let put n = { t with nodes = set t.nodes i n } in
  if live n then
    if n.unanswered >= sv.miss_threshold then (
      (* Silence is a death verdict, realized as SIGKILL so the EOF
         comes back through the one death path. *)
      match proto o t i Protocol.Miss_limit with
      | None -> t
      | Some n ->
          emit o (Note (Miss i));
          emit o (Kill i);
          put { n with unanswered = 0 })
    else if t.now - n.last_ping >= sv.hb_interval then (
      emit o (Send (i, Ping));
      put { n with last_ping = t.now; unanswered = n.unanswered + 1 })
    else t
  else
    match n.respawn_at with
    | Some at when t.now >= at -> (
        match proto o t i Protocol.Backoff_elapsed with
        | None -> t
        | Some n ->
            emit o (Respawn i);
            put { n with last_ping = t.now; unanswered = 0; respawn_at = None; fresh = true })
    | _ -> t

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
      | Submit { plans; deadline; pinned } ->
          if t.job <> None then invalid_arg "Dispatch.step: a job is already running";
          if deadline > 0 && t.now > deadline then raise (Fail (t, Expired));
          let job =
            { base = t.next_seq; deadline; pinned; plans; slices = List.map (fun _ -> Waiting 0) plans }
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
                if live n then emit o (Send (i, Free did));
                { n with believed = List.filter (fun (d, _, _) -> d <> did) n.believed })
              t.nodes
          in
          { t with nodes }
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
  }

(* A node as a function: one frame in, the frames it answers out. *)
type serve = Protocol.kind -> Bytes.t -> (Protocol.kind * Bytes.t) list

let server ~crc ?phases ~result ~work () : serve =
  let table = ref Child.empty in
  fun kind bytes ->
    let tbl, out =
      Child.handle ~crc ?phases ~now:(Clock.monotonic_ns ()) ~result ~work !table kind bytes
    in
    table := tbl;
    out

let is_data (k, _) = k = Protocol.Data

(* The process child: the serve loop every forked node runs.  A planned
   crash is a real exit, indistinguishable on the wire from a kill. *)
let child_loop ?crash ~id (serve : serve) chan =
  current_node := Some id;
  let trk = Protocol.make_tracker Protocol.Child ~id:(string_of_int id) in
  let dies phase = crash = Some phase in
  let rec loop () =
    match Transport.Socket.recv chan with
    | exception Transport.Closed -> Protocol.step trk Protocol.Eof
    | kind, bytes ->
        Protocol.step trk (Protocol.Recv kind);
        if kind = Protocol.Data && dies Fault.Before_work then Unix._exit 0;
        let out = serve kind bytes in
        if List.exists is_data out && (dies Fault.During_work || dies Fault.After_work) then
          Unix._exit 0;
        List.iter (fun (kind, b) -> Transport.Socket.send chan ~kind b) out;
        loop ()
  in
  loop ()

type inline = {
  serves : serve array;
  inbox : (Protocol.kind * Bytes.t) Queue.t array;
  arrivals : event Queue.t;  (* node output and deaths, in order *)
  dead : bool array;
}

type procs = { fabric : Transport.Proc.t; child : id:int -> Transport.Socket.t -> unit }
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
type names = { send : string; recv : string; retry : string; reissue : string }

type session = {
  mutable st : t;
  io : io;
  faults : Fault.t option;
  names : names;
  late : (unit -> unit) Queue.t;  (* delayed deliveries, released on a timeout *)
  mutable hooks : hooks;
  mutable failed : failure option;
  mutable tally : report;
  mutable recovery_from : int option;
  mutable respawns : int;
  mutable misses : int;
}

let make ?faults ~span (cfg : config) io =
  {
    st = create cfg ~now:(Clock.monotonic_ns ());
    io;
    faults;
    names =
      {
        send = span ^ ".send";
        recv = span ^ ".recv";
        retry = span ^ ".retry";
        reissue = span ^ ".retry.reissue";
      };
    late = Queue.create ();
    hooks = no_hooks;
    failed = None;
    tally = empty_report;
    recovery_from = None;
    respawns = 0;
    misses = 0;
  }

let inline ?faults ~span (cfg : config) serves =
  let n = cfg.nodes in
  make ?faults ~span cfg
    (Inline
       {
         serves;
         inbox = Array.init n (fun _ -> Queue.create ());
         arrivals = Queue.create ();
         dead = Array.make n false;
       })

let fork ?faults ~span (cfg : config) ~child =
  let fabric = Transport.Proc.fork ~n:cfg.nodes ~child in
  make ?faults ~span cfg (Procs { fabric; child })

let fabric s = match s.io with Procs p -> Some p.fabric | Inline _ -> None
let respawns s = s.respawns
let heartbeat_misses s = s.misses
let close s = match s.io with Procs p -> Transport.Proc.shutdown p.fabric | Inline _ -> ()
let node_attr n = [ ("node", string_of_int n) ]

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
      if Transport.Proc.is_alive p.fabric n then
        try Transport.Socket.send (Transport.Proc.node p.fabric n).chan ~kind bytes
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
  | Off_spec msg -> Protocol.violation msg

let rec feed s ev =
  let st, acts = step s.st ev in
  s.st <- st;
  if List.exists (function Note (Retry _) -> true | _ -> false) acts then
    Obs.span ~name:s.names.retry (fun () -> List.iter (perform s) acts)
  else List.iter (perform s) acts

and perform s = function
  | Send (n, m) ->
      let crc = s.st.cfg.crc and kind = kind_of_msg m in
      let bytes =
        match m with
        | Task { slice; seq } -> s.hooks.task ~slice ~seq
        | Put key -> s.hooks.put key
        | Reuse { slice; seq; key } -> Envelope.encode ~crc Envelope.key ~slice ~seq key
        | Free did -> Envelope.encode ~crc Codec.int ~slice:(-1) ~seq:0 did
        | Ping -> Bytes.empty
      in
      (match m with Ping | Free _ -> () | _ -> count s ~gather:false bytes);
      Obs.span ~name:s.names.send ~attrs:(node_attr n) (fun () ->
          through s (Fault.To_node n) kind bytes (deliver s n kind))
  | Kill n -> Option.iter (fun f -> Transport.Proc.kill f n) (fabric s)
  | Respawn n -> (
      match s.io with
      | Inline _ -> ()
      | Procs p ->
          (* A replacement sacrificed to the chaos plan exits before
             serving anything, so the backoff escalates. *)
          let young =
            match s.faults with
            | Some f -> Fault.inject f Fault.Crash_on_respawn ~node:n
            | None -> false
          in
          let child ~id chan = if young then Transport.Socket.close chan else p.child ~id chan in
          Transport.Proc.respawn p.fabric n ~child;
          s.respawns <- s.respawns + 1;
          Stats.record_respawn ();
          Obs.instant ~name:"service.respawn"
            ~attrs:(node_attr n @ [ ("pid", string_of_int (Transport.Proc.pid p.fabric n)) ])
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
   link faults into [arrivals]; a planned crash kills the node. *)
let run_nodes s io =
  let crash n phase =
    match s.faults with Some f -> Fault.crash_now f ~node:n ~phase | None -> false
  in
  Array.iteri
    (fun n q ->
      while (not io.dead.(n)) && not (Queue.is_empty q) do
        let kind, bytes = Queue.pop q in
        let die () =
          io.dead.(n) <- true;
          Queue.clear q;
          Queue.push (Eof n) io.arrivals
        in
        if kind = Protocol.Data && crash n Fault.Before_work then die ()
        else
          let out = io.serves.(n) kind bytes in
          if List.exists is_data out && (crash n Fault.During_work || crash n Fault.After_work) then
            die ()
          else
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
        if not (wait_procs ~wake s p.fabric) then go ()
      in
      go ()

(** Run one job to completion: [plans.(i)] is slice [i]'s residency,
    [task] its frame for a given attempt, [put] a segment's retained
    install frame, [on_done] receives each slice's reply frame once.
    Returns the job's traffic and recovery report, and the failure if
    it failed. *)
let run_job s ?(deadline = 0) ?(pinned = false) ?(put = no_hooks.put) ~plans ~task ~on_done () =
  s.hooks <- { task; put; on_done };
  s.failed <- None;
  s.tally <- empty_report;
  s.recovery_from <- None;
  let c0 = Option.map Fault.counters s.faults in
  Fun.protect
    ~finally:(fun () ->
      (* Even if the shell raised, the session stays usable. *)
      s.hooks <- no_hooks;
      s.st <- { s.st with job = None })
    (fun () ->
      tick s;
      feed s (Submit { plans; deadline; pinned });
      (match s.io with
      | Inline io -> pump_inline s io
      | Procs p ->
          while active s.st && s.failed = None do
            ignore (wait_procs s p.fabric);
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
      ({ s.tally with recovery_ns; faults_injected }, s.failed))

(** Evict darray [did] everywhere. *)
let release s did = feed s (Release did)
