(** Long-lived, supervised job service over the warm process fabric.

    A resident deployment cannot afford a fork per request, and a
    fabric that stays up must survive its own children.  A service
    leases its topology's warm session ({!Dispatch.lease}) from
    {!create} to {!shutdown}, so creating one forks nothing once the
    topology is warm, and wires four robustness mechanisms end to end:

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

    Supervision, retry and the wire protocol all live in the leased
    {!Dispatch} session; this module keeps only admission, the queue,
    deadlines and client wake-ups.  A fault plan's service runs on a
    private session instead.  Concurrency model: any number of client
    threads may call {!submit}; a single dispatcher thread owns the
    session, so every seeded fault decision happens on one stream in
    one order.  Clients block on a condition variable until their
    request completes.  The parent process must never spawn a domain —
    respawning forks — so intra-request parallelism lives in the
    children's pools, and client concurrency uses systhreads. *)

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
let respawns t = t.session.Dispatch.respawns
let heartbeat_misses t = t.session.Dispatch.misses

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
      match
        Dispatch.run_job t.session ~deadline:req.deadline_ns ~slices:(Array.length req.payloads)
          ~arg:(Array.get req.payloads) ~result:Payload.codec ()
      with
      | Ok results, _ -> Ok results
      | Error Dispatch.Expired, _ ->
          Stats.record_deadline_expired ();
          Obs.instant ~name:"service.deadline.expired"
            ~attrs:[ ("req", string_of_int req.req_id) ]
            ();
          Error Deadline_expired
      | Error (Dispatch.Exhausted { slice; attempts }), _ ->
          Error (Failed (Printf.sprintf "slice %d exhausted %d attempts" slice attempts))
      | Error (Dispatch.Raised { slice; msg }), _ ->
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

let create ?(cfg = default_config) ~work () =
  if cfg.nodes < 1 then invalid_arg "Service: nodes < 1";
  if cfg.queue_bound < 1 then invalid_arg "Service: queue_bound < 1";
  if cfg.heartbeat_interval <= 0.0 then invalid_arg "Service: heartbeat_interval <= 0";
  if cfg.miss_threshold < 1 then invalid_arg "Service: miss_threshold < 1";
  if cfg.respawn_backoff <= 0.0 || cfg.respawn_backoff_max < cfg.respawn_backoff then
    invalid_arg "Service: bad respawn backoff";
  let ns s = int_of_float (s *. 1e9) in
  let dcfg =
    {
      Dispatch.nodes = cfg.nodes;
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
  let fault = Option.map Fault.make cfg.faults in
  let session = Dispatch.lease ?faults:fault ~span:"service" ~cores:cfg.cores_per_node dcfg in
  Dispatch.load_or_close session ~result:Payload.codec ~work:(fun ~node ~pool ~slice:_ ~resident:_ p ->
      work ~node ~pool:(Lazy.force pool) p);
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      session;
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

let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  poke t;
  (* The dispatcher broadcasts after every request it finishes. *)
  while t.queued > 0 || t.inflight do
    Condition.wait t.cond t.lock
  done;
  Mutex.unlock t.lock

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
    Dispatch.close ?grace t.session;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end

let fault_counters t = Option.map Fault.counters t.session.Dispatch.faults
