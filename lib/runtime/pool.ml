(** Work-stealing domain pool: Triolet's intra-node parallel substrate.

    A pool owns [n - 1] helper domains plus the calling domain.  This
    mirrors the paper's two-level architecture, where shared-memory
    thread parallelism with work stealing runs inside each cluster node
    (section 3.4).

    Every loop uses *adaptive lazy binary splitting*
    ({!parallel_fold}, and {!parallel_range} on it): each worker runs
    one contiguous range task [(lo, hi)] a small grain at a time off
    the bottom, and owns one steal cell that holds at most one pending
    range.  While its cell holds stealable work the worker just runs
    grains; the moment the cell is empty (either freshly seeded or
    because a thief took the pending half) and the remaining range is
    longer than a grain, the worker splits it and publishes the larger
    half in the cell for thieves.  Splitting therefore happens exactly
    as often as demand requires: a uniform loop splits O(workers) times,
    while a loop whose cost concentrates in one region keeps
    sub-splitting that region until every worker is fed.  This is the
    lazy-splitting strategy of indexed-stream runtimes: a static preload
    of equal chunks leaves workers idle when per-element cost is
    skewed.  Every shared step on a cell is one atomic operation (set
    by the owner, exchange by the owner, compare-and-set by a thief),
    so each range is taken exactly once. *)

let log_src = Logs.Src.create "triolet.pool" ~doc:"Work-stealing pool"

module Log = (val Logs.src_log log_src)
module Obs = Triolet_obs.Obs

(* Scheduler span taxonomy: [pool.chunk] wraps each grain-sized chunk
   execution (so a trace shows which worker ran what, when); splits and
   steals are instants ([pool.split]/[pool.steal]) since they have no
   meaningful duration.  All are no-ops when tracing is disabled. *)
let worker_attr id = [ ("worker", string_of_int id) ]

type t = {
  n : int;  (** worker count, including the submitting domain *)
  lock : Mutex.t;
  have_job : Condition.t;
  job_done : Condition.t;
  mutable generation : int;
  mutable job : (int -> unit) option;
  mutable running : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.n

(* Worker busy times are thread CPU time, not wall time, so they stay
   meaningful when domains timeshare fewer physical cores. *)
let now_ns = Clock.thread_cputime_ns

(* Back off after [failures] consecutive fruitless steal sweeps.  Brief
   spinning catches work the instant it appears; past that, sleeping
   releases the processor so the workers that do hold work can run —
   essential when the pool is oversubscribed (more workers than cores),
   where pure spinning burns whole scheduler quanta stealing nothing.
   The cap bounds steal latency: a dozing thief is never more than
   200 µs from noticing freshly split work. *)
let steal_backoff failures =
  if failures < 8 then Domain.cpu_relax ()
  else Unix.sleepf (Float.min 2e-4 (1e-5 *. float_of_int (failures - 7)))

let worker_loop t =
  let gen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.lock;
    while (not t.stop) && t.generation = !gen do
      Condition.wait t.have_job t.lock
    done;
    if t.stop then begin
      Mutex.unlock t.lock;
      continue_ := false
    end
    else begin
      gen := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      (* Worker ids are assigned per-job inside [run_job]; the closure
         dispatches on an atomic ticket so ids never collide.  Job
         closures are exception-safe (the schedulers capture user
         exceptions themselves); the guard here keeps a worker domain
         alive no matter what, so the rendezvous below always happens. *)
      (try job (-1) with _ -> ());
      Mutex.lock t.lock;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.job_done;
      Mutex.unlock t.lock
    end
  done

(* OCaml's runtime refuses [Unix.fork] forever once any domain has been
   spawned in the process, so the multi-process cluster backend needs to
   know whether that door is already shut.  Set before spawning so a
   racing fork can never observe domains without the flag. *)
let spawned_domains_ever = Atomic.make false
let domains_ever_spawned () = Atomic.get spawned_domains_ever

let create ?workers () =
  let n =
    match workers with
    | Some w ->
        if w <= 0 then invalid_arg "Pool.create: workers must be positive";
        w
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  if n > 1 then Atomic.set spawned_domains_ever true;
  Stats.ensure_workers n;
  let t =
    {
      n;
      lock = Mutex.create ();
      have_job = Condition.create ();
      job_done = Condition.create ();
      generation = 0;
      job = None;
      running = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.have_job;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Nested parallelism: a parallel consumer called from inside a pool
   worker (e.g. a localpar histogram inside a distributed reduction)
   must not re-enter the job machinery — the other workers are busy
   with the outer job and the rendezvous state is not reentrant.  The
   inner job runs inline on the calling worker instead, which is the
   usual flattening of nested data parallelism. *)
let inside_job : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Runs [job] on every worker (the caller acts as one of them) and
   returns once all have finished.  [job] receives a distinct worker id
   in [0, n). *)
let run_job t job =
  let ticket = Atomic.make 1 in
  let dispatch hint =
    let id = if hint = 0 then 0 else Atomic.fetch_and_add ticket 1 in
    Domain.DLS.set inside_job true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set inside_job false)
      (fun () -> job id)
  in
  if t.n = 1 || Domain.DLS.get inside_job then job 0
  else begin
    Mutex.lock t.lock;
    t.job <- Some dispatch;
    t.running <- t.n - 1;
    t.generation <- t.generation + 1;
    Condition.broadcast t.have_job;
    Mutex.unlock t.lock;
    let main_exn = (try dispatch 0; None with e -> Some e) in
    Mutex.lock t.lock;
    while t.running > 0 do
      Condition.wait t.job_done t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock;
    match main_exn with Some e -> raise e | None -> ()
  end

(* [merge] lifted to partial results, [None] standing for a worker
   that ran no grain.  Folding it over the workers' partials combines
   them in worker order. *)
let merge_opt merge a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (merge a b)

(* Whether this domain is inside a timed grain: a nested job's grains
   run within it, and their CPU time is already the outer grain's. *)
let timing : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Run one grain on worker [id] unless an earlier grain has raised:
   counted, traced, timed as busy time unless an outer grain already
   times this domain, and its exception recorded as the job's failure
   if it is the first. *)
let run_grain ~failure ~busy id grain =
  match Atomic.get failure with
  | Some _ -> ()
  | None ->
      Stats.record_chunk ~worker:id ();
      let outermost = not (Domain.DLS.get timing) in
      let t0 = now_ns () in
      if outermost then Domain.DLS.set timing true;
      (try Obs.span ~name:"pool.chunk" ~attrs:(worker_attr id) grain
       with e -> ignore (Atomic.compare_and_set failure None (Some e)));
      if outermost then begin
        Domain.DLS.set timing false;
        busy := !busy + (now_ns () - t0)
      end

(** Core adaptive primitive: fold [f acc off len] over grains of
    [lo, hi) with lazy binary splitting (see the module header).  Each
    worker calls [create] on its first grain and threads that one
    accumulator through all its grains; the per-worker accumulators are
    then combined with [merge] in worker order — the result-aggregation
    strategy described for dot product in section 2, with the private
    per-task collector state of section 3.1. *)
let parallel_fold t ?grain ~lo ~hi ~create ~f ~merge () =
  let total = hi - lo in
  if total <= 0 then create ()
  else begin
    let grain =
      match grain with
      | Some g -> if g <= 0 then invalid_arg "Pool.parallel_fold: grain" else g
      | None -> Partition.grain ~workers:t.n total
    in
    Log.debug (fun m ->
        m "parallel_fold: [%d,%d) grain %d on %d workers" lo hi grain t.n);
    Stats.ensure_workers t.n;
    (* The owner sets its cell only when empty; takers clear it by exchange or CAS. *)
    let cells = Array.init t.n (fun _ -> Atomic.make None) in
    (* Seed one contiguous range per worker; everything further is
       demand-driven splitting. *)
    Array.iteri
      (fun i (off, len) -> Atomic.set cells.(i) (Some (lo + off, lo + off + len)))
      (Partition.blocks ~parts:t.n total);
    let remaining = Atomic.make total in
    let results = Array.make t.n None in
    (* First user exception wins; remaining ranges are drained without
       running user code so every worker's hunt loop terminates. *)
    let failure = Atomic.make None in
    let job id =
      let cell = cells.(id) in
      let acc = ref None in
      (* Busy time counts only grain execution, not steal hunting, so
         per-worker busy times expose load imbalance: under a perfectly
         balanced schedule they are equal, and their max approximates
         the makespan this job would have on dedicated cores. *)
      let busy = ref 0 in
      let exec off len =
        run_grain ~failure ~busy id (fun () ->
            let a = match !acc with Some a -> a | None -> create () in
            acc := Some (f a off len));
        ignore (Atomic.fetch_and_add remaining (-len))
      in
      (* Run a range: peel one grain at a time off the bottom; when the
         cell has gone empty and more than a grain remains, split and
         publish the larger half for thieves. *)
      let rec work rlo rhi =
        if rlo < rhi then begin
          let len = rhi - rlo in
          if len > grain && Option.is_none (Atomic.get cell) then begin
            let mid = rlo + (len / 2) in
            Atomic.set cell (Some (mid, rhi));
            Stats.record_split ~worker:id ();
            Obs.instant ~name:"pool.split" ~attrs:(worker_attr id) ();
            work rlo mid
          end
          else begin
            let step = min grain len in
            exec rlo step;
            work (rlo + step) rhi
          end
        end
      in
      let rec drain () =
        match Atomic.exchange cell None with
        | Some (rlo, rhi) ->
            work rlo rhi;
            drain ()
        | None -> hunt 0
      (* A thief reads before it takes, so a sweep over empty cells
         never writes to a peer's cache line. *)
      and hunt failures =
        if Atomic.get remaining > 0 then begin
          let stolen = ref false in
          for k = 1 to t.n - 1 do
            if not !stolen then
              let victim = cells.((id + k) mod t.n) in
              match Atomic.get victim with
              | Some (rlo, rhi) as seen
                when Atomic.compare_and_set victim seen None ->
                  Stats.record_steal ~worker:id ();
                  Obs.instant ~name:"pool.steal" ~attrs:(worker_attr id) ();
                  stolen := true;
                  work rlo rhi
              | _ -> ()
          done;
          if !stolen then drain ()
          else begin
            Stats.record_failed_steal ~worker:id ();
            steal_backoff failures;
            hunt (failures + 1)
          end
        end
      in
      drain ();
      Stats.record_busy ~worker:id !busy;
      results.(id) <- !acc
    in
    run_job t job;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    match Array.fold_left (merge_opt merge) None results with
    | Some v -> v
    | None -> create ()
  end

(** Adaptive reduction of grain results: {!parallel_fold} whose
    accumulator is the merge of the worker's grain results so far. *)
let parallel_range t ?grain ~lo ~hi ~f ~merge ~init () =
  match
    parallel_fold t ?grain ~lo ~hi
      ~create:(fun () -> None)
      ~f:(fun acc off len -> merge_opt merge acc (Some (f off len)))
      ~merge:(merge_opt merge) ()
  with
  | None -> init
  | Some v -> merge init v

(** Parallel loop over [lo, hi) for side effects on disjoint state. *)
let parallel_for t ?grain ~lo ~hi f =
  if hi > lo then
    parallel_range t ?grain ~lo ~hi
      ~f:(fun off len ->
        for i = off to off + len - 1 do
          f i
        done)
      ~merge:(fun () () -> ())
      ~init:() ()

(** Parallel reduction of [f i] over [lo, hi). *)
let parallel_reduce t ?grain ~lo ~hi ~f ~merge ~init () =
  parallel_range t ?grain ~lo ~hi
    ~f:(fun off len ->
      let acc = ref (f off) in
      for i = off + 1 to off + len - 1 do
        acc := merge !acc (f i)
      done;
      !acc)
    ~merge ~init ()

(* A lazily created default pool shared by iterator consumers.  Its
   width can be forced before first use (tests use small widths). *)
let default_width = ref None
let default_pool : t option ref = ref None

let set_default_width w = default_width := Some w

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      (* Under the multi-process cluster backend the parent must stay
         fork-able: node-local parallelism lives in the children, so the
         parent's default pool is clamped to a single worker (zero
         domains spawned).  Checked at call time so a CLI can select the
         backend after startup via the environment. *)
      let workers =
        match Sys.getenv_opt "TRIOLET_BACKEND" with
        | Some "process" -> Some 1
        | _ -> !default_width
      in
      let p = create ?workers () in
      default_pool := Some p;
      p
