(** Long-lived, supervised job service over the {!Transport.Proc}
    fork-per-node fabric.

    Every skeleton call so far built a cluster, ran one scatter/gather,
    and tore the cluster down; a resident deployment cannot afford a
    fork per call, and a fabric that stays up must survive its own
    children.  A service forks its workers once, keeps them warm across
    requests, and wires four robustness mechanisms end to end:

    - {b supervision}: periodic [Ping]/[Pong] heartbeats,
      missed-heartbeat death verdicts, and respawn of dead children
      with capped exponential backoff;
    - {b retry}: in-flight slices of a dead child are re-issued to
      survivors under the same checksummed envelope as every other
      {!Dispatch} session — a SIGKILL mid-request costs latency, never
      correctness;
    - {b deadlines}: a request may carry a compute budget, propagated
      to workers as an absolute [CLOCK_MONOTONIC] timestamp (valid
      across processes on one host); a slice that reaches a worker past
      its deadline is cancelled, not computed, and the request fails
      with [Deadline_expired];
    - {b admission control}: a bounded queue with a high-water mark.
      When [queue_bound] requests are already waiting, new submissions
      are rejected with [Overloaded] immediately — shedding load at the
      edge instead of collapsing under it.  {!drain} flips the service
      into refusing all new work ([Draining]) while admitted requests
      finish.

    Supervision, retry and the wire protocol all live in the long-lived
    {!Dispatch} session; this module keeps only admission, the queue,
    deadlines and client wake-ups.  Concurrency model: any number of
    client threads may call {!submit}; a single dispatcher thread owns
    the session, so every seeded fault decision happens on one stream
    in one order.  Clients
    block on a condition variable until their request completes.  The
    parent process must never spawn a domain — respawning forks — so
    intra-request parallelism lives in the children's pools, and client
    concurrency uses systhreads. *)

module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

type error =
  | Overloaded  (** rejected at admission: the queue is at its bound *)
  | Deadline_expired  (** the request's compute budget ran out *)
  | Draining  (** the service no longer accepts work *)
  | Failed of string  (** task code raised, or recovery gave up *)

let error_to_string = function
  | Overloaded -> "overloaded"
  | Deadline_expired -> "deadline expired"
  | Draining -> "draining"
  | Failed msg -> "failed: " ^ msg

type config = {
  nodes : int;
  cores_per_node : int;
  queue_bound : int;  (** admission-queue high-water mark *)
  heartbeat_interval : float;  (** seconds between pings per child *)
  miss_threshold : int;  (** unanswered pings before a death verdict *)
  respawn_backoff : float;  (** first respawn delay, seconds *)
  respawn_backoff_max : float;  (** backoff cap for flapping children *)
  request_timeout : float;  (** base per-slice retry timeout, seconds *)
  max_attempts : int;  (** per-slice cap on (re-)execution attempts *)
  faults : Fault.spec option;  (** seeded chaos plan, if any *)
}

let default_config =
  {
    nodes = 4;
    cores_per_node = 2;
    queue_bound = 64;
    heartbeat_interval = 0.05;
    miss_threshold = 3;
    respawn_backoff = 0.01;
    respawn_backoff_max = 1.0;
    request_timeout = 0.05;
    max_attempts = 8;
    faults = None;
  }

(* One admitted request, owned by the dispatcher; the submitting client
   blocks on [cond] until [outcome] is set.  The deadline crosses to the
   workers as absolute monotonic nanoseconds (0 = none). *)
type request = {
  req_id : int;
  payloads : Payload.t array;
  deadline_ns : int;
  mutable outcome : (Payload.t array, error) result option;
}

type t = {
  cfg : config;
  session : Dispatch.session;
  fault : Fault.t option;
  (* Client-facing state, under [lock]. *)
  lock : Mutex.t;
  cond : Condition.t;
  queue : request Queue.t;
  mutable queued : int;
  mutable inflight : bool;  (* dispatcher is executing a dequeued request *)
  mutable draining : bool;
  mutable stopped : bool;
  mutable next_req : int;
  (* Dispatcher plumbing. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable dispatcher : Thread.t option;
}

let fabric t = Option.get (Dispatch.fabric t.session)
let live_nodes t = Transport.Proc.alive_ids (fabric t)
let node_pids t = Array.init t.cfg.nodes (Transport.Proc.pid (fabric t))
let respawns t = Dispatch.respawns t.session
let heartbeat_misses t = Dispatch.heartbeat_misses t.session

let poke t =
  (* Wake the dispatcher out of its select; a full pipe already wakes. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Dispatcher side.                                                    *)

(* Run one admitted request as one job: slice [i] is [payloads.(i)]. *)
let execute t req =
  Obs.span ~name:"service.request"
    ~attrs:[ ("req", string_of_int req.req_id) ]
    (fun () ->
      let n = Array.length req.payloads in
      let results = Array.make n None in
      let task ~slice ~seq =
        Dispatch.Envelope.(encode ~crc:true task ~slice ~seq ([], req.deadline_ns, req.payloads.(slice)))
      in
      let on_done i b = results.(i) <- Some (Dispatch.Envelope.body ~crc:true Payload.codec b) in
      match
        Dispatch.run_job t.session ~deadline:req.deadline_ns
          ~plans:(List.init n (fun _ -> [])) ~task ~on_done ()
      with
      | _, None -> Ok (Array.map Option.get results)
      | _, Some Dispatch.Expired ->
          Stats.record_deadline_expired ();
          Obs.instant ~name:"service.deadline.expired"
            ~attrs:[ ("req", string_of_int req.req_id) ]
            ();
          Error Deadline_expired
      | _, Some (Dispatch.Exhausted { slice; attempts }) ->
          Error (Failed (Printf.sprintf "slice %d exhausted %d attempts" slice attempts))
      | _, Some (Dispatch.Raised { slice; msg }) ->
          Error (Failed (Printf.sprintf "slice %d raised: %s" slice msg)))

let dispatcher_loop t =
  let rec next_request () =
    Mutex.lock t.lock;
    if t.stopped && Queue.is_empty t.queue then Mutex.unlock t.lock
    else
      match Queue.take_opt t.queue with
      | Some req ->
          t.queued <- t.queued - 1;
          t.inflight <- true;
          Mutex.unlock t.lock;
          let outcome =
            match execute t req with
            | o -> o
            | exception e -> Error (Failed (Printexc.to_string e))
          in
          Mutex.lock t.lock;
          req.outcome <- Some outcome;
          t.inflight <- false;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          next_request ()
      | None ->
          Mutex.unlock t.lock;
          (* Idle edge: heartbeats and respawns keep flowing until a
             client pokes the wake pipe. *)
          Dispatch.idle t.session ~wake:t.wake_r;
          drain_wake t;
          next_request ()
  in
  next_request ()

(* ------------------------------------------------------------------ *)
(* Client API.                                                         *)

(** Fork the fabric and start the dispatcher.  [work] crosses into the
    children by address-space inheritance at fork time, exactly like
    [Cluster.run_topology]'s process backend; it must be re-executable
    (a slice may run more than once under retries).  The parent must
    never have spawned a domain ([fork] would be forbidden) — and must
    not spawn one afterwards, or respawns will fail. *)
let create ?(cfg = default_config) ~work () =
  if cfg.nodes < 1 then invalid_arg "Service: nodes < 1";
  if cfg.queue_bound < 1 then invalid_arg "Service: queue_bound < 1";
  if Pool.domains_ever_spawned () then
    failwith
      "Service: the service fabric forks (and re-forks, on respawn) one \
       process per node, and OCaml cannot fork once any domain has been \
       spawned.  Create the service before any multi-domain pool.";
  if cfg.heartbeat_interval <= 0.0 then invalid_arg "Service: heartbeat_interval <= 0";
  if cfg.miss_threshold < 1 then invalid_arg "Service: miss_threshold < 1";
  if cfg.respawn_backoff <= 0.0 || cfg.respawn_backoff_max < cfg.respawn_backoff then
    invalid_arg "Service: bad respawn backoff";
  let ns s = int_of_float (s *. 1e9) in
  let dcfg =
    {
      Dispatch.nodes = cfg.nodes;
      crc = true;
      policy =
        { max_attempts = cfg.max_attempts; timeout = Some (ns cfg.request_timeout, ns 2.0) };
      supervision =
        Some
          {
            hb_interval = ns cfg.heartbeat_interval;
            miss_threshold = cfg.miss_threshold;
            backoff_base = ns cfg.respawn_backoff;
            backoff_max = ns cfg.respawn_backoff_max;
          };
    }
  in
  let child ~id chan =
    let pool = lazy (Pool.create ~workers:cfg.cores_per_node ()) in
    let work ~slice:_ ~resident:_ p = work ~node:id ~pool:(Lazy.force pool) p in
    Dispatch.child_loop ~id (Dispatch.server ~crc:true ~result:Payload.codec ~work ()) chan
  in
  let fault = Option.map Fault.make cfg.faults in
  let session = Dispatch.fork ?faults:fault ~span:"service" dcfg ~child in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      session;
      fault;
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      queued = 0;
      inflight = false;
      draining = false;
      stopped = false;
      next_req = 0;
      wake_r;
      wake_w;
      dispatcher = None;
    }
  in
  t.dispatcher <- Some (Thread.create dispatcher_loop t);
  t

(** Submit one request: [payloads.(i)] becomes slice [i], distributed
    over live nodes; the result array is in slice order.  Blocks the
    calling thread until the request completes or is rejected.
    [?deadline] is a compute budget in seconds from now.  Thread-safe;
    admission control applies at the queue's high-water mark. *)
let submit ?deadline t payloads =
  if Array.length payloads = 0 then invalid_arg "Service.submit: no payloads";
  let deadline_ns =
    match deadline with
    | None -> 0
    | Some d ->
        if d <= 0.0 then invalid_arg "Service.submit: deadline <= 0";
        Clock.monotonic_ns () + int_of_float (d *. 1e9)
  in
  Mutex.lock t.lock;
  if t.draining || t.stopped then begin
    Mutex.unlock t.lock;
    Error Draining
  end
  else if t.queued >= t.cfg.queue_bound then begin
    Mutex.unlock t.lock;
    Stats.record_shed ();
    Obs.instant ~name:"service.shed" ();
    Error Overloaded
  end
  else begin
    let req =
      { req_id = t.next_req; payloads; deadline_ns; outcome = None }
    in
    t.next_req <- t.next_req + 1;
    Queue.push req t.queue;
    t.queued <- t.queued + 1;
    poke t;
    let rec wait () =
      match req.outcome with
      | Some o ->
          Mutex.unlock t.lock;
          o
      | None ->
          Condition.wait t.cond t.lock;
          wait ()
    in
    wait ()
  end

(** Stop accepting work ([Draining] to new submits) but let admitted
    requests finish.  Returns once the queue is empty and the
    dispatcher is idle. *)
let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  Mutex.unlock t.lock;
  poke t;
  let rec wait () =
    Mutex.lock t.lock;
    let busy = t.queued > 0 || t.inflight in
    Mutex.unlock t.lock;
    if busy then begin
      Thread.yield ();
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

(** Graceful shutdown: {!drain}, stop the dispatcher, tear the fabric
    down (idempotent, like [Transport.Proc.shutdown]). *)
let shutdown ?grace t =
  drain t;
  Mutex.lock t.lock;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.lock;
  poke t;
  if first then begin
    (match t.dispatcher with Some th -> Thread.join th | None -> ());
    t.dispatcher <- None;
    Transport.Proc.shutdown ?grace (fabric t);
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end

(** Fault counters of the chaos plan, when one was configured. *)
let fault_counters t = Option.map Fault.counters t.fault
