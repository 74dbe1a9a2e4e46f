(* End-to-end benchmark: what a Triolet user waits for, split into the
   layers that make it up.

   Four workloads, each run in a freshly started process of its own:

     kernels-inproc   mri-q, sgemm, tpacf, cutcp (size small) on the
                      in-process backend, closed loop of four-kernel passes
     kernels-proc     the same on the fork-per-node Process backend
     resident-rounds  Sgemm.Resident rounds over a resident 256x256 A, with
                      a row rewrite (update_a) every 8th round
     service-open     the supervised Service: open loop at 300 req/s, then
                      a closed loop for capacity

   Usage:
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--spec FILE] [--trace-dir DIR]
     main.exe --all [--seed N] [--seconds S] --out FILE

   A single-workload run prints one "workload metric value unit" line per
   metric and, as its last line, a JSON object with the keys correct,
   attempted, failed and metrics; the metrics are the end_to_end list of
   BENCHMARK.json with --trace 0 and its per_layer list with --trace 1.
   --trace 1 adds the per-layer measurements and a separate traced
   window; end-to-end numbers always come from the untraced window.
   --all spawns one process per workload (with --trace 1) and merges
   their results into --out.  Unknown arguments exit 2. *)

open Triolet
module Kernel = Triolet_kernels.Kernel
module Sgemm = Triolet_kernels.Sgemm
module Cluster = Triolet_runtime.Cluster
module Pool = Triolet_runtime.Pool
module Service = Triolet_runtime.Service
module Stats = Triolet_runtime.Stats
module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec
module Rng = Triolet_base.Rng
module Obs = Triolet_obs.Obs
module Json = Triolet_obs.Json
module R = Results

let workloads = [ "kernels-inproc"; "kernels-proc"; "resident-rounds"; "service-open" ]

(* Default measured window in seconds; --seconds replaces it. *)
let nominal_seconds = 20.0

(* ------------------------------------------------------------------ *)
(* Timing and windows                                                  *)

let now () = Obs.monotonic_ns ()
let ms_of_ns ns = float_of_int ns /. 1e6
let ms_since t0 = ms_of_ns (now () - t0)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let time_ms f = snd (timed f)

type run = {
  seed : int;
  window : float;  (** seconds of the untraced measured window *)
  layers : bool;  (** per-layer measurements and the traced window *)
  trace_dir : string;
}

(* Repetition counts shrink with short windows (tests), never below 1. *)
let reps r n =
  let scale = Float.min 1.0 (r.window /. nominal_seconds) in
  max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* Outcome counters of one workload.  A wrong result or an exception
   makes the run incorrect; a refusal (shed, expired deadline) only
   counts as failed. *)
type tally = { mutable attempted : int; mutable wrong : int; mutable errors : int; mutable refused : int }

let tally () = { attempted = 0; wrong = 0; errors = 0; refused = 0 }
let failed t = t.wrong + t.errors + t.refused

let attempt t f =
  t.attempted <- t.attempted + 1;
  match f () with
  | r -> Some r
  | exception e ->
      t.errors <- t.errors + 1;
      Printf.eprintf "e2e: operation failed: %s\n%!" (Printexc.to_string e);
      None

let expect t what ok =
  if not ok then begin
    t.wrong <- t.wrong + 1;
    Printf.eprintf "e2e: wrong result: %s\n%!" what
  end

(* Set the workload up several times, tearing down all but the last
   build: at least 5 times, so that the median and quartiles pass over
   the first, cold build, and while under half a second has been spent,
   at most 50.  Set-up time is a metric of its own, so it is sampled
   like one. *)
let setup_reps build teardown =
  let rec go i spent acc =
    let st, ms = timed build in
    let spent = spent +. ms in
    if i < 5 || (spent < 500.0 && i < 50) then begin
      teardown st;
      go (i + 1) spent (ms :: acc)
    end
    else (st, Array.of_list (List.rev (ms :: acc)))
  in
  go 1 0.0 []

(* Repeat [op] until five consecutive timings agree within 10%, or
   [cap] seconds pass; returns the seconds spent. *)
let warm_up ~cap op =
  let t0 = now () in
  let rec go recent =
    let recent = List.filteri (fun i _ -> i < 5) (time_ms op :: recent) in
    let lo = List.fold_left Float.min infinity recent
    and hi = List.fold_left Float.max 0.0 recent in
    let stable = List.length recent = 5 && hi <= 1.1 *. lo in
    if (not stable) && ms_since t0 < cap *. 1000.0 then go recent
  in
  go [];
  ms_since t0 /. 1000.0

(* Closed loop: [op i] back to back for [seconds], at least [min_ops]
   times; [None] results (failed operations) are dropped. *)
let closed_loop ?(min_ops = 3) ~seconds op =
  let t0 = now () in
  let rec go i acc =
    if i >= min_ops && ms_since t0 >= seconds *. 1000.0 then acc
    else go (i + 1) (match op i with Some x -> x :: acc | None -> acc)
  in
  Array.of_list (List.rev (go 0 []))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* A statistic of a window of samples: its value over the whole window,
   and quartiles of the same statistic over four contiguous blocks, a
   within-run estimate of how steady it is.  Blocks where the statistic
   is undefined are left out. *)
let summarize name unit_ stat samples =
  let per_block = Array.of_list (List.filter Float.is_finite (List.map stat (Stat.blocks 4 samples))) in
  {
    R.name;
    unit_;
    value = stat samples;
    q1 = Stat.quantile 0.25 per_block;
    q3 = Stat.quantile 0.75 per_block;
    n = Array.length samples;
  }

(* Set-up time from the repeated set-ups, in ms.  They are separate
   samples, not a time series, so the quartiles are their own and the
   first, cold set-up does not fill a whole block. *)
let setup_metric ms =
  let s = Array.map (fun x -> x /. 1000.0) ms in
  { R.name = "setup_s"; unit_ = "s"; value = Stat.median s; q1 = Stat.quantile 0.25 s;
    q3 = Stat.quantile 0.75 s; n = Array.length s }

(* An exact count or a figure derived from other metrics. *)
let point name unit_ value = { R.name; unit_; value; q1 = value; q3 = value; n = 1 }

(* Speedup over sequential C from (reference ms, op ms) pairs, each
   timed back to back: the mean ratio.  The host alternates, over
   seconds, between a fast state and one where compute runs up to 1.8x
   slower while system calls and wake-ups barely slow, so a pair's
   ratio depends on the state it was timed in, and a run's share of
   each state would decide the result.  The reference is a fixed
   computation and serves as the probe: only pairs whose reference took
   at most [fast], 40% above the run's 10th-percentile reference time,
   count.  [nan] when no pair does. *)
let fast_threshold refs = 1.4 *. Stat.quantile 0.1 refs

let paired_speedup ~fast pairs =
  let kept = List.filter (fun (c, _) -> c <= fast) pairs in
  Stat.mean (Array.of_list (List.map (fun (c, op) -> c /. op) kept))

let quantile_of p f samples = Stat.quantile p (Array.map f samples)
let mean_of f samples = Stat.mean (Array.map f samples)
let per_s f samples = 1000.0 *. float_of_int (Array.length samples) /. Stat.sum (Array.map f samples)

(* Max-over-mean busy time of the pool workers; 0 when the pool did no
   work in this process (the process backends compute in children). *)
let imbalance (s : Stats.snapshot) =
  let x = Stats.imbalance s in
  if Float.is_finite x then x else 0.0

let busy_ms (s : Stats.snapshot) =
  ms_of_ns (Array.fold_left (fun acc (w : Stats.worker_snapshot) -> acc + w.w_busy_ns) 0 s.per_worker)

(* Counter layers every workload reports, as means per operation. *)
let stats_metrics (stats : Stats.snapshot array) =
  let f name g = summarize name "count" (mean_of (fun s -> float_of_int (g s))) stats in
  [
    f "pool.chunks" (fun s -> s.Stats.chunks_run);
    f "pool.splits" (fun s -> s.Stats.splits);
    f "pool.steals" (fun s -> s.Stats.steals);
    summarize "pool.imbalance" "ratio" (fun a -> Stat.median (Array.map imbalance a)) stats;
    f "wire.msgs" (fun s -> s.Stats.messages);
    summarize "wire.bytes" "B" (mean_of (fun s -> float_of_int s.Stats.bytes_sent)) stats;
  ]

(* Supervision events over the whole window: exact totals. *)
let supervision_metrics (stats : Stats.snapshot array) =
  let total g = float_of_int (Array.fold_left (fun acc s -> acc + g s) 0 stats) in
  [
    point "sup.retries" "count" (total (fun s -> s.Stats.retries));
    point "sup.respawns" "count" (total (fun s -> s.Stats.respawns));
    point "sup.heartbeat_misses" "count" (total (fun s -> s.Stats.heartbeat_misses));
  ]

let mean_message_bytes stats =
  let msgs = Array.fold_left (fun acc s -> acc + s.Stats.messages) 0 stats
  and bytes = Array.fold_left (fun acc s -> acc + s.Stats.bytes_sent) 0 stats in
  if msgs = 0 then 8 else max 8 (bytes / msgs)

let floats_payload bytes = [ Payload.Floats (Float.Array.make (max 1 (bytes / 8)) 0.5) ]

(* Encode and decode of a Floats payload the size of the workload's mean
   message: a figure computed beside the run, not measured inside it.
   Each sample is a batch of about a millisecond. *)
let codec_metrics ?(suffix = "") bytes =
  let p = floats_payload bytes in
  let enc = Codec.to_bytes Payload.codec p in
  let per_call_us f =
    let once = Float.max 1e-4 (time_ms f) in
    let batch = max 1 (int_of_float (1.0 /. once)) in
    Array.init 15 (fun _ ->
        1000.0 *. time_ms (fun () -> for _ = 1 to batch do f () done) /. float_of_int batch)
  in
  let enc_us = per_call_us (fun () -> ignore (Codec.to_bytes Payload.codec p)) in
  let dec_us = per_call_us (fun () -> ignore (Codec.of_bytes Payload.codec enc)) in
  [
    summarize ("codec.encode_us" ^ suffix) "us" Stat.median enc_us;
    summarize ("codec.decode_us" ^ suffix) "us" Stat.median dec_us;
  ]

(* Dispatch floor: [n] Cluster.run_topology calls with the workload's
   topology, a scatter of mean-message-size payloads, identity work and
   a no-op merge — fork (process backend), frame, ship and gather, no
   compute. *)
let dispatch_metrics topo ~stats ~op_ms ~calls_per_op ~n =
  let p = floats_payload (mean_message_bytes stats) in
  let null =
    Array.init n (fun _ ->
        time_ms (fun () ->
            ignore
              (Cluster.run_topology topo
                 ~scatter:(fun _ -> p)
                 ~work:(fun ~node:_ ~pool:_ x -> x)
                 ~result_codec:Payload.codec
                 ~merge:(fun () _ -> ())
                 ~init:())))
  in
  let null_ms = summarize "cluster.null_ms" "ms" Stat.median null in
  [
    null_ms;
    point "cluster.null_frac" "ratio" (float_of_int calls_per_op *. null_ms.value /. op_ms);
  ]

(* ------------------------------------------------------------------ *)
(* Traced window                                                        *)

(* Rings sized for a whole traced window, so spans are not lost to
   wraparound; trace.dropped reports any that still are. *)
let ring_capacity = 1 lsl 18

(* The untraced window's procedure again, for [seconds], with tracing on. *)
let traced_window ~seconds op =
  Obs.set_ring_capacity ring_capacity;
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () -> closed_loop ~seconds op)

let merge_intervals spans =
  let sorted = List.sort compare spans in
  List.rev
    (List.fold_left
       (fun acc (a, b) ->
         match acc with
         | (a', b') :: rest when a <= b' -> (a', max b b') :: rest
         | _ -> (a, b) :: acc)
       [] sorted)
  |> Array.of_list

(* Share of the operations' wall time that lies inside some runtime
   span (the union over threads and domains of every span except the
   kernel.* wrappers, which enclose whole calls). *)
let coverage windows =
  let is_wrapper name = String.length name >= 7 && String.sub name 0 7 = "kernel." in
  let spans =
    List.filter_map
      (fun (e : Obs.event) ->
        if e.ev_dur_ns > 0 && not (is_wrapper e.ev_name) then
          Some (e.ev_start_ns, e.ev_start_ns + e.ev_dur_ns)
        else None)
      (Obs.events ())
  in
  let merged = merge_intervals spans in
  let m = Array.length merged in
  let j = ref 0 and covered = ref 0 and total = ref 0 in
  Array.iter
    (fun (a, b) ->
      total := !total + (b - a);
      while !j < m && snd merged.(!j) <= a do incr j done;
      let k = ref !j in
      while !k < m && fst merged.(!k) < b do
        covered := !covered + (min b (snd merged.(!k)) - max a (fst merged.(!k)));
        incr k
      done)
    windows;
  if !total = 0 then 0.0 else float_of_int !covered /. float_of_int !total

(* [traced_ms]: the traced window's op latencies, the same kind of op as
   the untraced median [untraced_ms]; [windows]: each traced op's
   [t0, t1] in monotonic ns. *)
let trace_metrics r ~workload ~untraced_ms ~traced_ms windows =
  let ops = float_of_int (max 1 (Array.length windows)) in
  let traced = summarize "trace.op_ms" "ms" Stat.median traced_ms in
  let aggs = Obs.aggregates () in
  let spans = List.fold_left (fun acc (_, (a : Obs.agg)) -> acc + a.agg_count) 0 aggs in
  let phases =
    List.concat_map
      (fun (name, (a : Obs.agg)) ->
        [
          point ("trace." ^ name ^ ".ms") "ms" (ms_of_ns a.agg_total_ns /. ops);
          point ("trace." ^ name ^ ".count") "count" (float_of_int a.agg_count /. ops);
        ])
      aggs
  in
  (try
     if not (Sys.file_exists r.trace_dir) then Sys.mkdir r.trace_dir 0o755;
     Obs.write_trace (Filename.concat r.trace_dir ("trace-" ^ workload ^ ".json"))
   with Sys_error e -> Printf.eprintf "e2e: trace file not written: %s\n%!" e);
  [
    point "trace.coverage" "ratio" (coverage windows);
    point "trace.dropped" "count" (float_of_int (Obs.dropped_spans ()));
    point "trace.overhead" "ratio" ((traced.value /. untraced_ms) -. 1.0);
    point "trace.spans" "count" (float_of_int spans /. ops);
    traced;
  ]
  @ phases

let trace_seconds r = Float.max 0.2 (0.1 *. r.window)

(* Latency of the workload's operation; [lat] reads a sample's
   milliseconds. *)
let latency_metrics ~lat samples =
  [
    summarize "op_ms_p50" "ms" (quantile_of 0.5 lat) samples;
    summarize "op_ms_p90" "ms" (quantile_of 0.9 lat) samples;
    summarize "op_ms_p99" "ms" (quantile_of 0.99 lat) samples;
  ]

let compute_metrics ~seq ~ref_ ~op_ms =
  [
    summarize "compute.seq_ms" "ms" Stat.median seq;
    summarize "compute.ref_ms" "ms" Stat.median ref_;
    point "speedup_vs_seq" "x" (Stat.median seq /. op_ms);
  ]

(* ------------------------------------------------------------------ *)
(* kernels-inproc / kernels-proc                                        *)

module Kernels = struct
  type pass = {
    pass_ms : float;
    pass_stats : Stats.snapshot;
    call_ms : float array;  (* per kernel, registry order *)
    call_stats : Stats.snapshot array;
    ref_ms : float array;  (* per kernel, run_ref after the pass *)
    t0 : int;
    t1 : int;
  }

  (* "mri-q" -> "mriq", for metric names *)
  let short name = String.concat "" (String.split_on_char '-' name)

  let run ~backend r t =
    let ctx = Exec.make ~nodes:2 ~cores_per_node:1 ~backend () in
    let kernels = Array.of_list (Kernel.all ()) in
    let names = Array.map (fun (module K : Kernel.S) -> short K.name) kernels in
    let nk = Array.length kernels in
    (* Set-up: seeded datasets, the reference each [check] compares
       against (pinned by its first call), and one fixed pass. *)
    let build () =
      let insts =
        Array.mapi
          (fun i (module K : Kernel.S) -> K.instance ~seed:((r.seed * 131) + i) ~size:"small" ())
          kernels
      in
      Array.iter (fun (inst : Kernel.instance) -> ignore (inst.check ~ctx ())) insts;
      Array.iter (fun (inst : Kernel.instance) -> inst.run_triolet ~ctx ()) insts;
      insts
    in
    let insts, setup = setup_reps build ignore in
    let run_pass () = Array.iter (fun (inst : Kernel.instance) -> inst.run_triolet ~ctx ()) insts in
    let warmup_s = warm_up ~cap:(Float.min 3.0 r.window) run_pass in
    let check_pass () =
      Array.iter
        (fun (inst : Kernel.instance) ->
          match attempt t (fun () -> inst.check ~ctx ()) with
          | Some ok -> expect t (inst.kernel ^ " check") ok
          | None -> ())
        insts
    in
    (* Each pass is followed by every kernel's C reference: a (reference,
       Triolet call) pair under a second apart sees the same machine. *)
    let pass _ =
      let t0 = now () in
      let calls, pass_stats =
        Stats.measure (fun () ->
            Array.map
              (fun (inst : Kernel.instance) ->
                attempt t (fun () -> Stats.measure (fun () -> time_ms (fun () -> inst.run_triolet ~ctx ()))))
              insts)
      in
      let t1 = now () in
      let ref_ms = Array.map (fun (inst : Kernel.instance) -> time_ms inst.run_ref) insts in
      if Array.exists Option.is_none calls then None
      else
        let calls = Array.map Option.get calls in
        Some
          { pass_ms = ms_of_ns (t1 - t0); pass_stats; call_ms = Array.map fst calls;
            call_stats = Array.map snd calls; ref_ms; t0; t1 }
    in
    check_pass ();
    let passes = closed_loop ~min_ops:nk ~seconds:r.window pass in
    check_pass ();
    if Array.length passes = 0 then failwith "kernels: no pass completed";
    let call_median k ps = Stat.median (Array.map (fun p -> p.call_ms.(k)) ps) in
    let refs k = Array.map (fun p -> p.ref_ms.(k)) passes in
    let ref_ms = Array.init nk (fun k -> Stat.median (refs k)) in
    let fast = Array.init nk (fun k -> fast_threshold (refs k)) in
    (* Geomean over kernels of the paired speedup of a pass's Triolet
       call over the reference timed after it. *)
    let speedup ps =
      Stat.geomean
        (List.init nk (fun k ->
             paired_speedup ~fast:fast.(k) (Array.to_list (Array.map (fun p -> (p.ref_ms.(k), p.call_ms.(k))) ps))))
    in
    (* Cross-backend accounting parity, checked from outside: on the
       process backend the parent stays single-domain, so the same call
       can run in-process here and its message/byte deltas must match. *)
    if backend = Cluster.Process then begin
      let inproc = { ctx with Exec.backend = Cluster.Inprocess } in
      Array.iteri
        (fun k (inst : Kernel.instance) ->
          match attempt t (fun () -> snd (Stats.measure (fun () -> inst.run_triolet ~ctx:inproc ()))) with
          | Some s ->
              let p = passes.(0).call_stats.(k) in
              expect t
                (Printf.sprintf "%s wire parity: %d msgs/%d B in-process vs %d/%d over processes" names.(k)
                   s.messages s.bytes_sent p.messages p.bytes_sent)
                (s.messages = p.messages && s.bytes_sent = p.bytes_sent)
          | None -> ())
        insts
    end;
    let pass_ms p = p.pass_ms in
    let stats = Array.map (fun p -> p.pass_stats) passes in
    let measured =
      [
        setup_metric setup;
        summarize "ops_per_s" "1/s" (per_s pass_ms) passes;
        summarize "speedup_vs_c" "x" speedup passes;
      ]
      @ latency_metrics ~lat:pass_ms passes
    in
    let op_ms = Stat.median (Array.map pass_ms passes) in
    let per_kernel =
      List.concat
        (List.init nk (fun k ->
             let calls = Array.map (fun p -> p.call_stats.(k)) passes in
             let n = names.(k) in
             [
               summarize (n ^ "_ms") "ms" (call_median k) passes;
               point ("ref.c_ms." ^ n) "ms" ref_ms.(k);
               summarize ("pool.chunks." ^ n) "count" (mean_of (fun s -> float_of_int s.Stats.chunks_run)) calls;
               summarize ("pool.splits." ^ n) "count" (mean_of (fun s -> float_of_int s.Stats.splits)) calls;
               summarize ("pool.steals." ^ n) "count" (mean_of (fun s -> float_of_int s.Stats.steals)) calls;
               summarize ("pool.imbalance." ^ n) "ratio" (fun a -> Stat.median (Array.map imbalance a)) calls;
               summarize ("pool.busy_ms." ^ n) "ms" (fun a -> Stat.median (Array.map busy_ms a)) calls;
               summarize ("wire.msgs." ^ n) "count" (quantile_of 0.5 (fun s -> float_of_int s.Stats.messages)) calls;
               summarize ("wire.bytes." ^ n) "B" (quantile_of 0.5 (fun s -> float_of_int s.Stats.bytes_sent)) calls;
             ]))
    in
    let layers () =
      let rounds n f = Array.init (reps r n) (fun _ -> Array.map (fun inst -> time_ms (fun () -> f inst)) insts) in
      let kernel_median rs k = Stat.median (Array.map (fun row -> row.(k)) rs) in
      let seq_rounds = rounds 3 (fun (i : Kernel.instance) -> i.run_seq ()) in
      let eden_rounds = rounds 2 (fun (i : Kernel.instance) -> i.run_eden ()) in
      let seq_ms = Array.init nk (kernel_median seq_rounds) in
      let per_kernel_layers =
        List.concat
          (List.init nk (fun k ->
               let n = names.(k) in
               let calls = Array.map (fun p -> p.call_stats.(k)) passes in
               [
                 point ("iter.seq_ms." ^ n) "ms" seq_ms.(k);
                 point ("iter.gap." ^ n) "x" (seq_ms.(k) /. ref_ms.(k));
                 point ("ref.eden_ms." ^ n) "ms" (kernel_median eden_rounds k);
                 point ("pool.speedup." ^ n) "x" (seq_ms.(k) /. call_median k passes);
               ]
               @ codec_metrics ~suffix:("." ^ n) (mean_message_bytes calls)))
      in
      let traced = traced_window ~seconds:(trace_seconds r) pass in
      [ point "warmup_s" "s" warmup_s ]
      @ compute_metrics ~seq:(Array.map Stat.sum seq_rounds) ~ref_:[| Stat.sum ref_ms |] ~op_ms
      @ stats_metrics stats @ supervision_metrics stats
      @ codec_metrics (mean_message_bytes stats)
      @ dispatch_metrics (Exec.topology ctx) ~stats ~op_ms ~calls_per_op:nk
          ~n:(if backend = Cluster.Process then 10 else 30)
      @ trace_metrics r ~workload:(if backend = Cluster.Process then "kernels-proc" else "kernels-inproc")
          ~untraced_ms:op_ms ~traced_ms:(Array.map pass_ms traced)
          (Array.map (fun p -> (p.t0, p.t1)) traced)
      @ per_kernel_layers
    in
    measured @ per_kernel @ if r.layers then layers () else []
end

(* ------------------------------------------------------------------ *)
(* resident-rounds                                                      *)

module Resident_rounds = struct
  let m = 256 and k = 256 and n = 8

  type round = {
    ms : float;
    write : bool;
    st : Stats.snapshot;
    rep : Cluster.report;
    ref_ms : float option;  (* Sgemm.run_c on the same A and B, when checked *)
    t0 : int;
    t1 : int;
  }

  let run r t =
    let ctx = Exec.make ~nodes:2 ~cores_per_node:1 ~backend:Cluster.Process () in
    let rng = Rng.create r.seed in
    let a = Matrix.random rng m k (-1.0) 1.0 in
    let fresh_b () = Matrix.random rng k n (-1.0) 1.0 in
    let agrees b c = Sgemm.agrees ~eps:1e-9 c (Sgemm.run_c a b) in
    (* Check C against Sgemm.run_c, then time a second run_c as the C
       reference: the nodes multiply cache-warm row blocks, so the
       reference runs warm too. *)
    let checked b c =
      let ok = agrees b c in
      (ok, time_ms (fun () -> ignore (Sgemm.run_c a b)))
    in
    (* Set-up: fork the resident fabric, run the cold round that
       installs A, checked against Sgemm.run_c, then a fixed 8 warm
       rounds.  One check only, so that set-up time is the fabric's own
       and not the reference's compute, which the host's slow state
       stretches 1.8x. *)
    let build () =
      let res = Sgemm.Resident.create ~ctx a in
      for i = 0 to 8 do
        let b = fresh_b () in
        let c, _ = Sgemm.Resident.multiply res b in
        if i = 0 && not (agrees b c) then failwith "resident-rounds: cold round disagrees with Sgemm.run_c"
      done;
      res
    in
    let res, setup = setup_reps build Sgemm.Resident.close in
    Fun.protect ~finally:(fun () -> Sgemm.Resident.close res) @@ fun () ->
    (* Round i; every 8th first rewrites one row of A, which re-ships
       that row's block as a Seg_put.  Every 16th is a checked read
       round, paired with a timed Sgemm.run_c as its reference. *)
    let round ~writes i =
      let write = writes && i mod 8 = 0 in
      if write then begin
        let row = Rng.int rng m in
        for j = 0 to k - 1 do
          Matrix.set a row j (Rng.float_range rng (-1.0) 1.0)
        done;
        ignore (Sgemm.Resident.update_a res a)
      end;
      let b = fresh_b () in
      let t0 = now () in
      Option.map
        (fun ((c, rep), st) ->
          let t1 = now () in
          let ref_ms =
            if i mod 16 <> 4 then None
            else
              let ok, ms = checked b c in
              expect t (Printf.sprintf "round %d against Sgemm.run_c" i) ok;
              Some ms
          in
          { ms = ms_of_ns (t1 - t0); write; st; rep; ref_ms; t0; t1 })
        (attempt t (fun () -> Stats.measure (fun () -> Sgemm.Resident.multiply res b)))
    in
    let warmup_s = warm_up ~cap:(Float.min 3.0 r.window) (fun () -> ignore (round ~writes:false 1)) in
    let rounds = closed_loop ~min_ops:32 ~seconds:r.window (round ~writes:true) in
    let reads = Array.of_list (List.filter (fun x -> not x.write) (Array.to_list rounds)) in
    let writes = Array.of_list (List.filter (fun x -> x.write) (Array.to_list rounds)) in
    if Array.length reads = 0 then failwith "resident-rounds: no read round completed";
    let lat x = x.ms in
    let op_ms = Stat.median (Array.map lat reads) in
    let pairs rs = List.filter_map (fun x -> Option.map (fun c -> (c, x.ms)) x.ref_ms) (Array.to_list rs) in
    let ref_ms = Array.of_list (List.map fst (pairs rounds)) in
    let fast = fast_threshold ref_ms in
    let speedup rs = paired_speedup ~fast (pairs rs) in
    let measured =
      [
        setup_metric setup;
        summarize "ops_per_s" "1/s" (per_s lat) rounds;
        summarize "speedup_vs_c" "x" speedup rounds;
      ]
      @ latency_metrics ~lat reads
    in
    let bytes x = float_of_int x.rep.Cluster.scatter_bytes in
    (* At least 32 rounds run, so writes is empty only if all failed. *)
    let writes = if Array.length writes = 0 then reads else writes in
    let darray =
      [
        summarize "write_round_ms_p50" "ms" (quantile_of 0.5 lat) writes;
        summarize "darray.scatter_bytes" "B" (quantile_of 0.5 bytes) reads;
        summarize "darray.write_scatter_bytes" "B" (quantile_of 0.5 bytes) writes;
        summarize "darray.msgs" "count"
          (quantile_of 0.5 (fun x -> float_of_int (x.rep.scatter_messages + x.rep.gather_messages)))
          rounds;
        point "darray.retries" "count"
          (float_of_int (Array.fold_left (fun acc x -> acc + x.rep.retries) 0 rounds));
      ]
    in
    let layers () =
      (* The per-node compute floor: one node's A row block times B. *)
      let block = Matrix.copy_rows a 0 (m / 2) and b = fresh_b () in
      let seq = Array.init (max 5 (reps r 40)) (fun _ -> time_ms (fun () -> ignore (Sgemm.run_c block b))) in
      let stats = Array.map (fun x -> x.st) reads in
      let traced = traced_window ~seconds:(trace_seconds r) (round ~writes:true) in
      let traced_reads = List.filter (fun x -> not x.write) (Array.to_list traced) in
      [ point "warmup_s" "s" warmup_s ]
      @ compute_metrics ~seq ~ref_:ref_ms ~op_ms
      @ stats_metrics stats
      @ supervision_metrics (Array.map (fun x -> x.st) rounds)
      @ codec_metrics (mean_message_bytes stats)
      @ dispatch_metrics (Exec.topology ctx) ~stats ~op_ms ~calls_per_op:1 ~n:10
      @ trace_metrics r ~workload:"resident-rounds" ~untraced_ms:op_ms
          ~traced_ms:(Array.of_list (List.map lat traced_reads))
          (Array.map (fun x -> (x.t0, x.t1)) traced)
    in
    measured @ darray @ if r.layers then layers () else []
end

(* ------------------------------------------------------------------ *)
(* service-open                                                         *)

module Service_open = struct
  let rate = 300.0
  let slices = 4
  let width = 8

  (* ~0.1 ms of integer spin per slice, then 2x+1 per element. *)
  let spin = 200_000

  let work ~node:_ ~pool:_ = function
    | [ Payload.Ints a ] ->
        let s = ref 0 in
        for i = 1 to spin do
          s := !s + (i land 7)
        done;
        ignore (Sys.opaque_identity !s);
        [ Payload.Ints (Array.map (fun x -> (2 * x) + 1) a) ]
    | _ -> failwith "service-open: bad payload"

  let cfg =
    {
      Service.default_config with
      Service.nodes = 1;
      cores_per_node = 1;
      queue_bound = 4;
      heartbeat_interval = 0.02;
    }

  let request rng =
    Array.init slices (fun _ -> [ Payload.Ints (Array.init width (fun _ -> Rng.int rng 1_000_000)) ])

  let replies_ok req reply =
    Array.length reply = Array.length req
    && Array.for_all2
         (fun p q ->
           match (p, q) with
           | [ Payload.Ints a ], [ Payload.Ints b ] ->
               Array.length a = Array.length b && Array.for_all2 (fun x y -> y = (2 * x) + 1) a b
           | _ -> false)
         req reply

  (* One request: [Some stats] once served (checked element-wise), [None]
     if refused or failed. *)
  let submit t svc req =
    match attempt t (fun () -> Stats.measure (fun () -> Service.submit svc req)) with
    | Some (Ok reply, st) ->
        expect t "service reply (2x+1 per element)" (replies_ok req reply);
        Some st
    | Some (Error (Service.Overloaded | Service.Deadline_expired), _) ->
        t.refused <- t.refused + 1;
        None
    | Some (Error e, _) ->
        t.errors <- t.errors + 1;
        Printf.eprintf "e2e: service error: %s\n%!" (Service.error_to_string e);
        None
    | None -> None

  type sample = {
    lat_ms : float;
    lag_ms : float;
    sent : int;
    finished : int;
    st : Stats.snapshot;
    work_ms : float option;  (* the same request's work run locally *)
  }

  (* The request's own compute, run locally on one core. *)
  let local req = time_ms (fun () -> Array.iter (fun p -> ignore (work ~node:0 ~pool:() p)) req)

  (* Open loop from one client thread: request i is due at start + i/rate
     whatever the service is doing, and its latency runs from that due
     time, so a stall also charges the requests queued behind it.  Every
     8th request's work is also timed locally once served, as its
     reference; that fits in the slack before the next due time. *)
  let open_loop t svc rng ~seconds =
    let total = max 3 (int_of_float (rate *. seconds)) in
    let start = now () in
    List.init total Fun.id
    |> List.filter_map (fun i ->
           let due = start + int_of_float (float_of_int i /. rate *. 1e9) in
           let req = request rng in
           let wait = due - now () in
           if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
           let sent = now () in
           Option.map
             (fun st ->
               let finished = now () in
               { lat_ms = ms_of_ns (finished - due); lag_ms = ms_of_ns (sent - due); sent; finished; st;
                 work_ms = (if i mod 8 = 0 then Some (local req) else None) })
             (submit t svc req))
    |> Array.of_list

  (* Closed loop from one client; with [local_ref] the request's work is
     also timed locally once served, as its reference. *)
  let closed ?(local_ref = false) t svc rng =
    let req = request rng in
    let sent = now () in
    Option.map
      (fun st ->
        let finished = now () in
        { lat_ms = ms_of_ns (finished - sent); lag_ms = 0.0; sent; finished; st;
          work_ms = (if local_ref then Some (local req) else None) })
      (submit t svc req)

  let run r t =
    let rng = Rng.create r.seed in
    (* Set-up: fork the fabric and serve one checked request of a single
       slice.  Small, so that set-up time is the fabric's own and not the
       request's compute, which the host's slow state stretches 1.8x. *)
    let build () =
      let svc = Service.create ~cfg ~work () in
      let req = Array.sub (request rng) 0 1 in
      (match Service.submit svc req with
       | Ok reply when replies_ok req reply -> ()
       | _ -> failwith "service-open: set-up request failed");
      svc
    in
    let shutdown = Service.shutdown ~grace:2.0 in
    let svc, setup = setup_reps build shutdown in
    Fun.protect ~finally:(fun () -> shutdown svc) @@ fun () ->
    let warmup_s = warm_up ~cap:(Float.min 3.0 r.window) (fun () -> ignore (closed t svc rng)) in
    let phase_a = open_loop t svc rng ~seconds:(0.7 *. r.window) in
    let closed_b i = closed ~local_ref:(i mod 8 = 0) t svc rng in
    let phase_b = closed_loop ~min_ops:8 ~seconds:(0.3 *. r.window) closed_b in
    if Array.length phase_a = 0 || Array.length phase_b = 0 then failwith "service-open: no request served";
    let lat x = x.lat_ms in
    let served = Array.append phase_a phase_b in
    (* A request's local work over its own latency, send to reply, pair
       by pair, over both phases. *)
    let pairs s =
      List.filter_map (fun x -> Option.map (fun w -> (w, ms_of_ns (x.finished - x.sent))) x.work_ms) (Array.to_list s)
    in
    let work_ms = Array.of_list (List.map fst (pairs served)) in
    let fast = fast_threshold work_ms in
    let speedup s = paired_speedup ~fast (pairs s) in
    let work_med = Stat.median work_ms in
    let p50 = Stat.median (Array.map lat phase_a) in
    let measured =
      [
        setup_metric setup;
        summarize "ops_per_s" "1/s" (per_s lat) phase_b;
        summarize "speedup_vs_c" "x" speedup served;
      ]
      @ latency_metrics ~lat phase_a
    in
    let svc_detail =
      [
        summarize "svc.ms_p50" "ms" (quantile_of 0.5 lat) phase_a;
        summarize "svc.ms_p99" "ms" (quantile_of 0.99 lat) phase_a;
        summarize "svc.ms_p999" "ms" (quantile_of 0.999 lat) phase_a;
        summarize "svc.gen_lag_ms_p99" "ms" (quantile_of 0.99 (fun x -> x.lag_ms)) phase_a;
        summarize "svc.work_ms" "ms" Stat.median work_ms;
        point "svc.overhead_ms" "ms" (p50 -. work_med);
        point "svc.respawns" "count" (float_of_int (Service.respawns svc));
        point "svc.heartbeat_misses" "count" (float_of_int (Service.heartbeat_misses svc));
        point "svc.shed" "count" (float_of_int t.refused);
      ]
    in
    let layers () =
      let stats = Array.map (fun x -> x.st) served in
      let closed_ms = Stat.median (Array.map lat phase_b) in
      let traced = traced_window ~seconds:(trace_seconds r) closed_b in
      [ point "warmup_s" "s" warmup_s ]
      (* The nodes run a hand-written loop: it is its own reference. *)
      @ compute_metrics ~seq:work_ms ~ref_:work_ms ~op_ms:p50
      @ stats_metrics stats @ supervision_metrics stats
      @ codec_metrics (mean_message_bytes stats)
      @ dispatch_metrics
          { Cluster.nodes = 1; cores_per_node = 1; backend = Cluster.Process }
          ~stats ~op_ms:p50 ~calls_per_op:1 ~n:10
      @ trace_metrics r ~workload:"service-open" ~untraced_ms:closed_ms ~traced_ms:(Array.map lat traced)
          (Array.map (fun x -> (x.sent, x.finished)) traced)
    in
    measured @ svc_detail @ if r.layers then layers () else []
end

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

type opts = {
  workload : string option;
  all : bool;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  spec : string;
  trace_dir : string;
}

let usage =
  "usage: main.exe (--workload NAME | --all) [--seed N] [--seconds S] [--trace 0|1]\n\
  \       [--out FILE] [--spec FILE] [--trace-dir DIR]\n\
   workloads: " ^ String.concat ", " workloads ^ "\n"

let argv_error msg =
  prerr_string ("e2e: " ^ msg ^ "\n" ^ usage);
  exit 2

let parse_argv argv =
  let num conv flag v =
    match conv v with Some x -> x | None -> argv_error (Printf.sprintf "%s: bad value %S" flag v)
  in
  let positive flag x = if x > 0.0 then x else argv_error (flag ^ " must be positive") in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: tl ->
        if List.mem w workloads then go { o with workload = Some w } tl
        else argv_error (Printf.sprintf "unknown workload %S" w)
    | "--all" :: tl -> go { o with all = true } tl
    | "--seed" :: v :: tl -> go { o with seed = num int_of_string_opt "--seed" v } tl
    | "--seconds" :: v :: tl ->
        go { o with seconds = positive "--seconds" (num float_of_string_opt "--seconds" v) } tl
    | "--trace" :: ("0" | "1" as v) :: tl -> go { o with trace = v = "1" } tl
    | "--out" :: f :: tl -> go { o with out = Some f } tl
    | "--spec" :: f :: tl -> go { o with spec = f } tl
    | "--trace-dir" :: d :: tl -> go { o with trace_dir = d } tl
    | a :: _ -> argv_error (Printf.sprintf "unknown or incomplete argument %S" a)
  in
  let o =
    go
      {
        workload = None; all = false; seed = 1; seconds = nominal_seconds; trace = false;
        out = None; spec = "BENCHMARK.json"; trace_dir = "bench/e2e/out";
      }
      (List.tl (Array.to_list argv))
  in
  if o.all = (o.workload <> None) then argv_error "give exactly one of --workload and --all";
  if o.all && o.out = None then argv_error "--all needs --out";
  o

let print_metric workload (m : R.metric) =
  Printf.printf "%s %s %.6g %s\n" workload m.name m.value m.unit_

(* The last stdout line: the metrics BENCHMARK.json lists for this trace
   mode, each checked present, finite and in its declared unit. *)
let contract_line o (w : R.workload) =
  let spec = R.read_spec o.spec in
  let decls = if o.trace then spec.per_layer else spec.end_to_end in
  let entry (d : R.decl) =
    match R.find w d.d_name with
    | Some m when m.unit_ = d.d_unit && Float.is_finite m.value ->
        (d.d_name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ])
    | Some m ->
        Printf.eprintf "e2e: metric %s is %g %s, declared in %s\n" d.d_name m.value m.unit_ d.d_unit;
        exit 1
    | None ->
        Printf.eprintf "e2e: workload %s did not produce metric %s\n" w.workload d.d_name;
        exit 1
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool w.correct);
         ("attempted", Json.Num (float_of_int w.attempted));
         ("failed", Json.Num (float_of_int w.failed));
         ("metrics", Json.Obj (List.map entry decls));
       ])

let run_one o name =
  (* The forking workloads keep this process single-domain: under
     TRIOLET_BACKEND=process the default pool stays one wide.  The set
     must precede any pool use. *)
  if name <> "kernels-inproc" then Unix.putenv "TRIOLET_BACKEND" "process";
  Pool.set_default_width 2;
  let r = { seed = o.seed; window = o.seconds; layers = o.trace; trace_dir = o.trace_dir } in
  let t = tally () in
  let metrics =
    match name with
    | "kernels-inproc" -> Kernels.run ~backend:Cluster.Inprocess r t
    | "kernels-proc" -> Kernels.run ~backend:Cluster.Process r t
    | "resident-rounds" -> Resident_rounds.run r t
    | "service-open" -> Service_open.run r t
    | _ -> assert false
  in
  {
    R.workload = name;
    attempted = max 1 t.attempted;
    failed = failed t;
    correct = t.wrong = 0 && t.errors = 0;
    metrics;
  }

let single o name =
  let w = run_one o name in
  List.iter (print_metric name) w.metrics;
  Printf.printf "%s fail_frac %.6g ratio\n" name (R.fail_frac w);
  Option.iter (fun f -> R.write f ~seed:o.seed ~seconds:o.seconds [ w ]) o.out;
  print_endline (contract_line o w)

let all o out =
  let run_child name =
    let part = Printf.sprintf "%s.%s.part" out name in
    let args =
      [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
        "--seconds"; Printf.sprintf "%g" o.seconds;
        "--trace"; "1"; "--out"; part; "--spec"; o.spec; "--trace-dir"; o.trace_dir ]
    in
    let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 ->
        let w = R.read part in
        Sys.remove part;
        w
    | _ ->
        Printf.eprintf "e2e: workload %s exited abnormally\n%!" name;
        []
  in
  let ws = List.concat_map run_child workloads in
  R.write out ~seed:o.seed ~seconds:o.seconds ws;
  Printf.printf "wrote %d workloads to %s\n" (List.length ws) out;
  if List.length ws <> List.length workloads then exit 1

let () =
  let o = parse_argv Sys.argv in
  match (o.workload, o.out) with
  | Some name, _ -> single o name
  | None, Some out -> all o out
  | None, None -> assert false
