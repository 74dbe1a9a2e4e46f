(** Global runtime counters: messages and bytes crossing node
    boundaries, chunks executed, work-stealing activity.  Atomic, so
    pool workers may bump them concurrently.

    Per-worker counters (indexed by pool worker id) make scheduler load
    imbalance observable: chunks executed, range splits, steals, failed
    steal sweeps, and busy time per worker. *)

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
  code_bytes : int;
      (** task-code bytes shipped to process nodes in [Code] frames;
          not payload, so never in [messages]/[bytes_sent] *)
  per_worker : worker_snapshot array;
}

val ensure_workers : int -> unit
(** Registers [n] worker slots (grows, never shrinks).  Pools call this
    on creation so per-worker counters cover every worker id. *)

val record_message : bytes:int -> unit

val record_code : bytes:int -> unit
(** Task code shipped to a process node: counted apart from payload
    messages and bytes, which stay identical across backends. *)

val record_chunk : ?worker:int -> unit -> unit
val record_steal : ?worker:int -> unit -> unit
val record_split : ?worker:int -> unit -> unit
val record_failed_steal : ?worker:int -> unit -> unit

val record_busy : worker:int -> int -> unit
(** [record_busy ~worker ns] adds [ns] nanoseconds of busy time. *)

(** {1 Fault-tolerance counters}

    Bumped by the {!Fault} injector and the recovery paths in
    {!Dispatch} engine; zero in fault-free runs. *)

(** {2 Encode accounting}

    Standalone counter (not part of {!snapshot}) for payload
    serializations performed by {!Dispatch.run_job} and
    {!Dispatch.put_frame}.  A slice with no resident keys is encoded
    once per job and its cached bytes replayed on retry, so under
    injected drops a cluster run's [encode_count] equals the slice
    count — a regression test pins that contract. *)

val record_encode : unit -> unit
val encode_count : unit -> int
val reset_encode_count : unit -> unit

val record_fault : unit -> unit
val record_retry : unit -> unit
val record_redelivery : unit -> unit
val record_corrupt_drop : unit -> unit
val record_crash : unit -> unit
val record_recovery_ns : int -> unit

(** {1 Service-fabric counters}

    Bumped by the long-lived service's supervisor and admission
    control; zero outside {!Service} runs. *)

val record_respawn : unit -> unit
val record_heartbeat_miss : unit -> unit
val record_shed : unit -> unit
val record_deadline_expired : unit -> unit

(** {1 Snapshots and deltas}

    A snapshot reads each atomic independently: it is not a single
    consistent cut across counters, but every counter is monotone, so
    each field of a later-minus-earlier {!diff} is non-negative — and
    so is each field of {!snapshot} itself.  {!reset} captures a
    baseline that {!snapshot} subtracts rather than zeroing the live
    counters, so a reset concurrent with running workers can never
    produce torn half-zeroed state or negative deltas in an in-flight
    {!measure}. *)

val snapshot : unit -> snapshot
(** Counters accumulated since the last {!reset} (process start if
    none).  Every field non-negative. *)

val reset : unit -> unit
(** Re-baseline: subsequent {!snapshot}s count from here.  Safe to call
    while workers are recording (one atomic store). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff a b] is the per-field difference [a - b]; worker slots absent
    in [b] delta against zero.  Non-negative whenever [a] was taken
    after [b]. *)

val zero : snapshot
(** The all-zero snapshot ([diff s s] without the array allocation). *)

val measure : (unit -> 'a) -> 'a * snapshot
(** [measure f] runs [f] and returns its result with the counter deltas
    incurred during the call, including per-worker deltas.  Unaffected
    by a concurrent {!reset} (it deltas raw counters, not baselined
    snapshots). *)

val imbalance : snapshot -> float
(** Max per-worker busy time over the mean (workers with zero busy time
    excluded): 1.0 is perfectly balanced, the active worker count means
    one worker did everything; [nan] if nothing was recorded. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
