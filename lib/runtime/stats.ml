(** Global runtime counters.

    The evaluation attributes performance differences to communication
    volume and task behaviour, so the runtime counts everything it does:
    messages and bytes crossing node boundaries, chunks executed, and
    work-stealing activity.  Counters are atomic so pool workers can
    bump them concurrently.

    Besides the global aggregates, the scheduler keeps *per-worker*
    counters (chunks run, range splits, steals, failed steal sweeps,
    busy time) so load imbalance is directly observable: under static
    chunking a skewed workload shows one worker with most of the busy
    time; under adaptive lazy splitting the busy times even out and the
    split/steal counters show how the rebalancing happened. *)

type worker_snapshot = {
  w_chunks : int;  (** grain-sized chunks this worker executed *)
  w_splits : int;  (** range tasks this worker split for thieves *)
  w_steals : int;  (** range tasks this worker stole from peers *)
  w_failed_steals : int;  (** full sweeps of peers that found nothing *)
  w_busy_ns : int;  (** thread CPU time spent executing chunks *)
}

type snapshot = {
  messages : int;
  bytes_sent : int;
  chunks_run : int;
  steals : int;
  splits : int;
  failed_steals : int;
  faults_injected : int;  (** messages dropped/duplicated/corrupted/delayed *)
  retries : int;  (** gather timeouts that re-issued a node's task *)
  redeliveries : int;  (** duplicate or late replies discarded by dedup *)
  corrupt_drops : int;  (** messages rejected by checksum/decode *)
  crashed_nodes : int;  (** node crashes fired by the injector *)
  recovery_ns : int;  (** wall time spent in timeout/retry recovery *)
  respawns : int;  (** dead service children replaced by the supervisor *)
  heartbeat_misses : int;  (** heartbeat silences that tripped the threshold *)
  shed : int;  (** requests rejected [Overloaded] by admission control *)
  deadline_expired : int;  (** requests cancelled past their deadline *)
  code_bytes : int;  (** task-code bytes shipped in [Code] frames, not payload *)
  per_worker : worker_snapshot array;
}

let messages = Atomic.make 0
let bytes_sent = Atomic.make 0
let chunks_run = Atomic.make 0
let steals = Atomic.make 0
let splits = Atomic.make 0
let failed_steals = Atomic.make 0
let faults_injected = Atomic.make 0
let retries = Atomic.make 0
let redeliveries = Atomic.make 0
let corrupt_drops = Atomic.make 0
let crashed_nodes = Atomic.make 0
let recovery_ns = Atomic.make 0
let respawns = Atomic.make 0
let heartbeat_misses = Atomic.make 0
let shed = Atomic.make 0
let deadline_expired = Atomic.make 0
let code_bytes = Atomic.make 0

(* Per-worker slots, indexed by pool worker id.  Each worker only ever
   bumps its own slot, so the fields are plain atomics with no
   contention; the array grows monotonically under a lock when a wider
   pool registers. *)
type worker_counters = {
  c_chunks : int Atomic.t;
  c_splits : int Atomic.t;
  c_steals : int Atomic.t;
  c_failed_steals : int Atomic.t;
  c_busy_ns : int Atomic.t;
}

let fresh_worker () =
  {
    c_chunks = Atomic.make 0;
    c_splits = Atomic.make 0;
    c_steals = Atomic.make 0;
    c_failed_steals = Atomic.make 0;
    c_busy_ns = Atomic.make 0;
  }

let workers : worker_counters array Atomic.t = Atomic.make [||]
let workers_lock = Mutex.create ()

let ensure_workers n =
  if n > Array.length (Atomic.get workers) then begin
    Mutex.lock workers_lock;
    let old = Atomic.get workers in
    if n > Array.length old then
      Atomic.set workers
        (Array.init n (fun i ->
             if i < Array.length old then old.(i) else fresh_worker ()));
    Mutex.unlock workers_lock
  end

let worker_slot id =
  let w = Atomic.get workers in
  if id >= 0 && id < Array.length w then Some w.(id) else None

let add c n = ignore (Atomic.fetch_and_add c n)

let bump_worker worker field =
  match worker with
  | None -> ()
  | Some id -> (
      match worker_slot id with
      | Some slot -> add (field slot) 1
      | None -> ())

let record_message ~bytes =
  add messages 1;
  add bytes_sent bytes

let record_chunk ?worker () =
  add chunks_run 1;
  bump_worker worker (fun s -> s.c_chunks)

let record_steal ?worker () =
  add steals 1;
  bump_worker worker (fun s -> s.c_steals)

let record_split ?worker () =
  add splits 1;
  bump_worker worker (fun s -> s.c_splits)

let record_failed_steal ?worker () =
  add failed_steals 1;
  bump_worker worker (fun s -> s.c_failed_steals)

let record_busy ~worker ns =
  match worker_slot worker with
  | Some slot -> add slot.c_busy_ns ns
  | None -> ()


(* Payload serializations performed by the scatter paths.  A standalone
   counter (not part of {!snapshot}): tests assert encode-count ==
   slice-count under injected drops, pinning the encode-once contract
   of the retry loops. *)
let payload_encodes = Atomic.make 0
let record_encode () = Atomic.incr payload_encodes
let encode_count () = Atomic.get payload_encodes
let reset_encode_count () = Atomic.set payload_encodes 0

(* Fault-tolerance counters (bumped by {!Fault} and {!Cluster}). *)
let record_fault () = add faults_injected 1
let record_retry () = add retries 1
let record_redelivery () = add redeliveries 1
let record_corrupt_drop () = add corrupt_drops 1
let record_crash () = add crashed_nodes 1
let record_recovery_ns ns = add recovery_ns ns

(* Supervision counters (bumped by the {!Dispatch} shells). *)
let record_code ~bytes = add code_bytes bytes
let record_respawn () = add respawns 1
let record_heartbeat_miss () = add heartbeat_misses 1
let record_shed () = add shed 1
let record_deadline_expired () = add deadline_expired 1

(* Coherence model.  A snapshot reads each atomic independently — there
   is no global lock, so it is not a single consistent cut: a snapshot
   taken while workers run may pair counter A's value from slightly
   before counter B's.  What IS guaranteed, and what every consumer
   relies on, is per-counter monotonicity: raw counters only ever grow,
   so for two snapshots s1-then-s2 every field of [diff s2 s1] is
   non-negative, and so is every field of [snapshot ()] itself.

   That guarantee is why [reset] does NOT zero the raw counters: a
   concurrent worker's fetch_and_add interleaving with a field-by-field
   zeroing sweep would produce exactly the torn state the model
   forbids (half the fields zeroed, cross-field totals absurd, and
   in-flight [measure] calls seeing *negative* deltas).  Instead,
   [reset] captures the current raw values as a baseline and [snapshot]
   subtracts that baseline — one atomic ref store, no window in which
   any counter moves backwards. *)

let raw_snapshot () =
  {
    messages = Atomic.get messages;
    bytes_sent = Atomic.get bytes_sent;
    chunks_run = Atomic.get chunks_run;
    steals = Atomic.get steals;
    splits = Atomic.get splits;
    failed_steals = Atomic.get failed_steals;
    faults_injected = Atomic.get faults_injected;
    retries = Atomic.get retries;
    redeliveries = Atomic.get redeliveries;
    corrupt_drops = Atomic.get corrupt_drops;
    crashed_nodes = Atomic.get crashed_nodes;
    recovery_ns = Atomic.get recovery_ns;
    respawns = Atomic.get respawns;
    heartbeat_misses = Atomic.get heartbeat_misses;
    shed = Atomic.get shed;
    deadline_expired = Atomic.get deadline_expired;
    code_bytes = Atomic.get code_bytes;
    per_worker =
      Array.map
        (fun c ->
          {
            w_chunks = Atomic.get c.c_chunks;
            w_splits = Atomic.get c.c_splits;
            w_steals = Atomic.get c.c_steals;
            w_failed_steals = Atomic.get c.c_failed_steals;
            w_busy_ns = Atomic.get c.c_busy_ns;
          })
        (Atomic.get workers);
  }

let worker_sub a b =
  {
    w_chunks = a.w_chunks - b.w_chunks;
    w_splits = a.w_splits - b.w_splits;
    w_steals = a.w_steals - b.w_steals;
    w_failed_steals = a.w_failed_steals - b.w_failed_steals;
    w_busy_ns = a.w_busy_ns - b.w_busy_ns;
  }

let zero_worker =
  { w_chunks = 0; w_splits = 0; w_steals = 0; w_failed_steals = 0; w_busy_ns = 0 }

(** [diff a b] is the per-field difference [a - b].  Worker slots
    present in [a] but not [b] (a wider pool registered in between)
    delta against zero. *)
let diff a b =
  {
    messages = a.messages - b.messages;
    bytes_sent = a.bytes_sent - b.bytes_sent;
    chunks_run = a.chunks_run - b.chunks_run;
    steals = a.steals - b.steals;
    splits = a.splits - b.splits;
    failed_steals = a.failed_steals - b.failed_steals;
    faults_injected = a.faults_injected - b.faults_injected;
    retries = a.retries - b.retries;
    redeliveries = a.redeliveries - b.redeliveries;
    corrupt_drops = a.corrupt_drops - b.corrupt_drops;
    crashed_nodes = a.crashed_nodes - b.crashed_nodes;
    recovery_ns = a.recovery_ns - b.recovery_ns;
    respawns = a.respawns - b.respawns;
    heartbeat_misses = a.heartbeat_misses - b.heartbeat_misses;
    shed = a.shed - b.shed;
    deadline_expired = a.deadline_expired - b.deadline_expired;
    code_bytes = a.code_bytes - b.code_bytes;
    per_worker =
      Array.mapi
        (fun i wa ->
          let wb =
            if i < Array.length b.per_worker then b.per_worker.(i)
            else zero_worker
          in
          worker_sub wa wb)
        a.per_worker;
  }

let zero =
  {
    messages = 0;
    bytes_sent = 0;
    chunks_run = 0;
    steals = 0;
    splits = 0;
    failed_steals = 0;
    faults_injected = 0;
    retries = 0;
    redeliveries = 0;
    corrupt_drops = 0;
    crashed_nodes = 0;
    recovery_ns = 0;
    respawns = 0;
    heartbeat_misses = 0;
    shed = 0;
    deadline_expired = 0;
    code_bytes = 0;
    per_worker = [||];
  }

let baseline = Atomic.make zero

let snapshot () = diff (raw_snapshot ()) (Atomic.get baseline)

let reset () = Atomic.set baseline (raw_snapshot ())

(** Counter deltas around running [f]. *)
let measure f =
  let before = raw_snapshot () in
  let v = f () in
  let after = raw_snapshot () in
  (v, diff after before)

(** Largest per-worker busy time divided by the mean: 1.0 is perfectly
    balanced; [workers] when one worker did everything.  [nan] when no
    busy time was recorded. *)
let imbalance s =
  let busy = Array.map (fun w -> float_of_int w.w_busy_ns) s.per_worker in
  let active = Array.to_list busy |> List.filter (fun b -> b > 0.0) in
  match active with
  | [] -> Float.nan
  | _ ->
      let total = List.fold_left ( +. ) 0.0 active in
      let mx = List.fold_left Float.max 0.0 active in
      mx /. (total /. float_of_int (List.length active))

let pp_worker fmt (i, w) =
  Format.fprintf fmt "w%d: chunks=%d splits=%d steals=%d failed=%d busy=%.3fms"
    i w.w_chunks w.w_splits w.w_steals w.w_failed_steals
    (float_of_int w.w_busy_ns /. 1e6)

let pp_snapshot fmt s =
  Format.fprintf fmt
    "messages=%d bytes=%d chunks=%d steals=%d splits=%d failed-steals=%d"
    s.messages s.bytes_sent s.chunks_run s.steals s.splits s.failed_steals;
  if
    s.faults_injected > 0 || s.retries > 0 || s.redeliveries > 0
    || s.corrupt_drops > 0 || s.crashed_nodes > 0
  then
    Format.fprintf fmt
      "@\n  faults=%d retries=%d redeliveries=%d corrupt-drops=%d crashes=%d \
       recovery=%.3fms"
      s.faults_injected s.retries s.redeliveries s.corrupt_drops
      s.crashed_nodes
      (float_of_int s.recovery_ns /. 1e6);
  if
    s.respawns > 0 || s.heartbeat_misses > 0 || s.shed > 0
    || s.deadline_expired > 0
  then
    Format.fprintf fmt
      "@\n  respawns=%d heartbeat-misses=%d shed=%d deadline-expired=%d"
      s.respawns s.heartbeat_misses s.shed s.deadline_expired;
  Array.iteri
    (fun i w ->
      if w.w_chunks > 0 || w.w_busy_ns > 0 then
        Format.fprintf fmt "@\n  %a" pp_worker (i, w))
    s.per_worker
