(* Benchmark harness: micro-benchmarks (Bechamel) for the paper's
   per-mechanism claims, then the full figure harness (Figure 3
   measured; Figures 4, 5, 7, 8 simulated from calibrated costs).

   Benchmarks are grouped into named families; each family runs with
   tracing enabled and writes BENCH_<family>.json (rows + per-phase
   span aggregates + runtime counter deltas) for the regression gate
   [triolet bench --compare old.json new.json].

   Run with:  dune exec bench/main.exe            (full: a few minutes)
              dune exec bench/main.exe -- quick   (reduced calibration)
              dune exec bench/main.exe -- --list  (family names)
              dune exec bench/main.exe -- --filter dot --out-dir results
              dune exec bench/main.exe -- --json all.json
   Unknown arguments are an error (exit 2), not silently ignored.      *)

open Bechamel
open Toolkit
open Triolet
module Kern = Triolet_kernels
module E = Triolet_baselines.Eden_list
module Codec = Triolet_base.Codec

let () = Triolet_runtime.Pool.set_default_width 2

let () =
  Exec.set_ambient (Exec.make ~nodes:(4) ~cores_per_node:(2) ())

(* ------------------------------------------------------------------ *)
(* Micro-benchmark definitions                                         *)

let n_dot = 50_000

let xs = Float.Array.init n_dot (fun i -> float_of_int (i mod 91) /. 91.0)
let ys = Float.Array.init n_dot (fun i -> float_of_int (i mod 53) /. 53.0)

(* Section 2's dot product: the fused iterator pipeline vs materializing
   every intermediate vs the hand-written loop. *)
let bench_dot =
  let fused () =
    Iter.sum
      (Iter.map (fun (x, y) -> x *. y)
         (Iter.zip (Iter.of_floatarray xs) (Iter.of_floatarray ys)))
  in
  let materialized () =
    (* what zip/map would cost if each skeleton produced an array *)
    let zipped =
      Array.init n_dot (fun i -> (Float.Array.get xs i, Float.Array.get ys i))
    in
    let products = Array.map (fun (x, y) -> x *. y) zipped in
    Array.fold_left ( +. ) 0.0 products
  in
  let imperative () =
    let acc = ref 0.0 in
    for i = 0 to n_dot - 1 do
      acc := !acc +. (Float.Array.unsafe_get xs i *. Float.Array.unsafe_get ys i)
    done;
    !acc
  in
  Test.make_grouped ~name:"dot"
    [
      Test.make ~name:"iterators-fused" (Staged.stage fused);
      Test.make ~name:"materialized" (Staged.stage materialized);
      Test.make ~name:"imperative" (Staged.stage imperative);
    ]

(* Figure 1's "slow" cell: nested traversal through steppers vs folds vs
   a plain loop nest. *)
let bench_nested =
  let n = 300 in
  let stepper () =
    Stepper.sum_int
      (Stepper.concat_map (fun k -> Stepper.range 0 k) (Stepper.range 0 n))
  in
  let folder () =
    Folder.sum_int
      (Folder.concat_map (fun k -> Folder.range 0 k) (Folder.range 0 n))
  in
  let loop () =
    let acc = ref 0 in
    for k = 0 to n - 1 do
      for i = 0 to k - 1 do
        acc := !acc + i
      done
    done;
    !acc
  in
  Test.make_grouped ~name:"nested-traversal"
    [
      Test.make ~name:"stepper" (Staged.stage stepper);
      Test.make ~name:"fold" (Staged.stage folder);
      Test.make ~name:"loop" (Staged.stage loop);
    ]

(* Section 3.4's block-copy serialization of pointer-free arrays vs
   per-element encoding of boxed structures. *)
let bench_serialize =
  let fa = Float.Array.make 8192 3.14 in
  let boxed = Array.init 8192 (fun i -> (i, 3.14)) in
  let block () = Codec.to_bytes Codec.floatarray fa in
  let element () =
    Codec.to_bytes (Codec.array (Codec.pair Codec.int Codec.float)) boxed
  in
  Test.make_grouped ~name:"serialize-64KiB"
    [
      Test.make ~name:"floatarray-block" (Staged.stage block);
      Test.make ~name:"boxed-elementwise" (Staged.stage element);
    ]

(* The CRC-32 every checksummed frame pays (the Darray, Service and
   fault-plan envelope): a resident-round task frame is about 16 KiB, a
   row-block put 256 KiB. *)
let bench_checksum =
  let crc n =
    let b = Bytes.init n (fun i -> Char.chr ((i * 131) land 0xff)) in
    Test.make
      ~name:(Printf.sprintf "crc32-%dKiB" (n / 1024))
      (Staged.stage (fun () -> Triolet_base.Rw.crc32 b 0 n))
  in
  Test.make_grouped ~name:"checksum" [ crc 16_384; crc 262_144 ]

(* Histogramming through a collector (per-task private mutation) vs a
   boxed list pipeline. *)
let bench_histogram =
  let n = 20_000 in
  let coll () =
    Iter.histogram ~bins:64 (Iter.map (fun i -> i * 7 mod 64) (Iter.range 0 n))
  in
  let list () =
    E.histogram ~bins:64 (E.map (fun i -> i * 7 mod 64) (List.init n Fun.id))
  in
  Test.make_grouped ~name:"histogram"
    [
      Test.make ~name:"iter-collector" (Staged.stage coll);
      Test.make ~name:"eden-list" (Staged.stage list);
    ]

(* Figure 3 in micro form: the three styles of each kernel on tiny
   registry instances (the measured full-size table is printed below).
   Iterating the registry keeps this list in lockstep with the CLI and
   the analyzer — a kernel registered once shows up everywhere. *)
let bench_kernels =
  Test.make_grouped ~name:"kernels"
    (List.map
       (fun (module K : Kern.Kernel.S) ->
         let inst = K.instance ~size:"tiny" () in
         Test.make_grouped ~name:K.name
           [
             Test.make ~name:"c" (Staged.stage inst.Kern.Kernel.run_ref);
             Test.make ~name:"triolet" (Staged.stage inst.Kern.Kernel.run_seq);
             Test.make ~name:"eden" (Staged.stage inst.Kern.Kernel.run_eden);
           ])
       (Kern.Kernel.all ()))

(* Zip fusion: the zip3 pipeline against hand-zipped loops. *)
let bench_zip =
  let n = 20_000 in
  let a = Float.Array.init n (fun i -> float_of_int i) in
  let b = Float.Array.init n (fun i -> float_of_int (i * 2)) in
  let c = Float.Array.init n (fun i -> float_of_int (i * 3)) in
  let fused () =
    Iter.sum
      (Iter.map
         (fun (x, y, z) -> x +. (y *. z))
         (Iter.zip3 (Iter.of_floatarray a) (Iter.of_floatarray b)
            (Iter.of_floatarray c)))
  in
  let manual () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc :=
        !acc
        +. Float.Array.unsafe_get a i
        +. (Float.Array.unsafe_get b i *. Float.Array.unsafe_get c i)
    done;
    !acc
  in
  Test.make_grouped ~name:"zip3"
    [
      Test.make ~name:"iterators" (Staged.stage fused);
      Test.make ~name:"manual-loop" (Staged.stage manual);
    ]

(* cutcp formulated as scatter (paper's CPU code) vs gather (the
   GPU-style Dim3 variant). *)
let bench_cutcp_direction =
  let box =
    Kern.Dataset.cutcp ~seed:9 ~atoms:64 ~nx:12 ~ny:12 ~nz:12 ~spacing:0.5
      ~cutoff:1.8
  in
  Test.make_grouped ~name:"cutcp-direction"
    [
      Test.make ~name:"scatter"
        (Staged.stage (fun () ->
             Kern.Cutcp.run_triolet ~hint:Iter.sequential box));
      Test.make ~name:"gather-3d"
        (Staged.stage (fun () ->
             Kern.Cutcp.run_gather ~hint:Iter.sequential box));
      Test.make ~name:"scatter-c" (Staged.stage (fun () -> Kern.Cutcp.run_c box));
    ]

(* Payload shipping: the end-to-end cost of moving a slice across a
   node boundary (serialize + copy + decode). *)
let bench_payload =
  let small = [ Triolet_base.Payload.Floats (Float.Array.make 512 1.0) ] in
  let large = [ Triolet_base.Payload.Floats (Float.Array.make 65536 1.0) ] in
  Test.make_grouped ~name:"payload-ship"
    [
      Test.make ~name:"4KiB"
        (Staged.stage (fun () -> Triolet_base.Payload.ship small));
      Test.make ~name:"512KiB"
        (Staged.stage (fun () -> Triolet_base.Payload.ship large));
    ]

(* ------------------------------------------------------------------ *)
(* Iterator fusion gap: each kernel's sequential inner pattern as the
   fused iterator pipeline vs the hand-written imperative loop the
   paper's compiler closes the gap to.  Besides the raw ns rows, the
   family emits one dimensionless "iter/<pattern>-gap" row per pattern
   (pipeline ns / imperative ns): that ratio is what the enforcing CI
   compare gates, because it cancels the speed of the machine the
   baseline was recorded on. *)

module Vec = Triolet_base.Vec

let iter_sgemm_mats = lazy (Kern.Dataset.sgemm_matrices ~seed:12 ~m:32 ~k:32 ~n:32)

let iter_cutcp_box =
  lazy
    (Kern.Dataset.cutcp ~seed:13 ~atoms:48 ~nx:12 ~ny:12 ~nz:12 ~spacing:0.5
       ~cutoff:1.8)

let iter_tpacf_cat =
  lazy (Kern.Dataset.tpacf ~seed:14 ~points:128 ~random_sets:1)

let iter_patterns =
  [ "dot"; "sgemm-tile"; "sgemm-tile-lib"; "cutcp"; "tpacf-hist"; "tpacf-hist-lib" ]

let bench_iter =
  (* dot / map-reduce: zip two arrays, multiply, sum. *)
  let dot_pipeline () =
    Iter.sum
      (Iter.map (fun (x, y) -> x *. y)
         (Iter.zip (Iter.of_floatarray xs) (Iter.of_floatarray ys)))
  in
  let dot_imperative () =
    let acc = ref 0.0 in
    for i = 0 to n_dot - 1 do
      acc := !acc +. (Float.Array.unsafe_get xs i *. Float.Array.unsafe_get ys i)
    done;
    !acc
  in
  (* sgemm tile: a 32x32 product, transposition included, as
     run_triolet builds it ([%fuse]d: 2x2 blocks of dots through
     Matrix.dot_range2x2) and as the library pipeline it is written as
     (to_matrix over the row-pair dots), sequential, vs run_c. *)
  let sgemm_pipeline () =
    let a, b = Lazy.force iter_sgemm_mats in
    Kern.Sgemm.tile ~alpha:1.0 ~hint:Iter.Sequential a (Matrix.transpose b)
  in
  let sgemm_library () =
    let a, b = Lazy.force iter_sgemm_mats in
    Iter.to_matrix (Kern.Sgemm.pipeline ~hint:Iter.sequential a b)
  in
  let sgemm_imperative () =
    let a, b = Lazy.force iter_sgemm_mats in
    Kern.Sgemm.run_c a b
  in
  (* cutcp gather: the full scatter pipeline (atoms -> nearby grid
     points -> conditional scatter-add) as run_triolet runs it
     ([%fuse]d), sequential, vs run_c. *)
  let cutcp_pipeline () =
    Kern.Cutcp.run_triolet ~hint:Iter.sequential (Lazy.force iter_cutcp_box)
  in
  let cutcp_imperative () = Kern.Cutcp.run_c (Lazy.force iter_cutcp_box) in
  (* tpacf histogram: the DD triangular pair loop into a histogram, as
     the kernel runs it ([%fuse]d) and as the library pipeline it is
     written as, vs the imperative double loop with direct bin
     updates. *)
  let tpacf_bins = 32 in
  let tpacf_pipeline () =
    Kern.Tpacf.self_correlation ~hint:Iter.Sequential ~bins:tpacf_bins
      (Lazy.force iter_tpacf_cat).Kern.Dataset.observed
  in
  let tpacf_library () =
    Iter.histogram ~bins:tpacf_bins
      (Kern.Tpacf.dd_pipeline ~hint:Iter.Sequential ~bins:tpacf_bins
         (Lazy.force iter_tpacf_cat))
  in
  let tpacf_imperative () =
    let d = Lazy.force iter_tpacf_cat in
    let c = d.Kern.Dataset.observed in
    let n = Float.Array.length c.Kern.Dataset.cx in
    let h = Array.make tpacf_bins 0 in
    for i = 0 to n - 1 do
      let xi = Vec.fget c.Kern.Dataset.cx i
      and yi = Vec.fget c.Kern.Dataset.cy i
      and zi = Vec.fget c.Kern.Dataset.cz i in
      for j = i + 1 to n - 1 do
        let dot =
          (xi *. Vec.fget c.Kern.Dataset.cx j)
          +. (yi *. Vec.fget c.Kern.Dataset.cy j)
          +. (zi *. Vec.fget c.Kern.Dataset.cz j)
        in
        let b = Kern.Tpacf.bin_of_dot ~bins:tpacf_bins dot in
        h.(b) <- h.(b) + 1
      done
    done;
    h
  in
  Test.make_grouped ~name:"iter"
    [
      Test.make_grouped ~name:"dot"
        [
          Test.make ~name:"pipeline" (Staged.stage dot_pipeline);
          Test.make ~name:"imperative" (Staged.stage dot_imperative);
        ];
      Test.make_grouped ~name:"sgemm-tile"
        [
          Test.make ~name:"pipeline" (Staged.stage sgemm_pipeline);
          Test.make ~name:"imperative" (Staged.stage sgemm_imperative);
        ];
      Test.make_grouped ~name:"sgemm-tile-lib"
        [
          Test.make ~name:"pipeline" (Staged.stage sgemm_library);
          Test.make ~name:"imperative" (Staged.stage sgemm_imperative);
        ];
      Test.make_grouped ~name:"cutcp"
        [
          Test.make ~name:"pipeline" (Staged.stage cutcp_pipeline);
          Test.make ~name:"imperative" (Staged.stage cutcp_imperative);
        ];
      Test.make_grouped ~name:"tpacf-hist"
        [
          Test.make ~name:"pipeline" (Staged.stage tpacf_pipeline);
          Test.make ~name:"imperative" (Staged.stage tpacf_imperative);
        ];
      Test.make_grouped ~name:"tpacf-hist-lib"
        [
          Test.make ~name:"pipeline" (Staged.stage tpacf_library);
          Test.make ~name:"imperative" (Staged.stage tpacf_imperative);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Scheduler: static chunk preload vs adaptive lazy splitting on
   uniform and Zipf-skewed per-element work, pushed through the same
   filter/concat_map pipeline shape that produces irregular loop nests
   in the kernels.  Wall times go through Bechamel below; this section
   also reports per-worker busy times from [Stats], whose max is the
   makespan the schedule would have on dedicated cores — the
   load-balance signal survives even when the host timeshares the
   workers on fewer physical cores. *)

module Pool = Triolet_runtime.Pool
module Partition = Triolet_runtime.Partition
module Stats = Triolet_runtime.Stats

let sched_workers = 4
let sched_n = 4096
let sched_pool = lazy (Pool.create ~workers:sched_workers ())

(* Outer loop of [sched_n] elements; [cost i] inner iterations each,
   behind a filter so the scheduler sees the paper's filter/concat_map
   nest, not a plain map. *)
let sched_pipeline cost =
  Iter.range 0 sched_n
  |> Iter.filter (fun i -> i land 3 <> 3)
  |> Iter.concat_map (fun i -> Seq_iter.range 0 (cost i))
  |> Iter.map (fun j -> j land 1023)

(* Inner-loop counts are sized so per-element cost dwarfs the fixed
   per-element pipeline overhead (~0.3 µs of stepper transitions);
   otherwise that uniform overhead dilutes the skew the family is
   meant to exercise. *)
let sched_uniform = sched_pipeline (fun _ -> 512)

(* Zipf-ish skew: element i costs ~1/(i+1), so the first static chunk
   holds ~70% of the total work. *)
let sched_zipf = sched_pipeline (fun i -> 1 + (262_144 / (i + 1)))

(* Hot band: a dense region (one static chunk wide, several grains
   long) carries nearly all the work — the adversarial case for static
   chunking, which cannot subdivide the hot chunk, while lazy splitting
   keeps halving it until every worker holds a piece. *)
let sched_spike =
  sched_pipeline (fun i -> if i >= 1024 && i < 1280 then 16_384 else 64)

let sched_chunk it off len = Iter.fold ( + ) 0 (Iter.sub ~off ~len it)

(* Baseline: static chunking — the loop cut into 4 blocks per worker up
   front, each block run whole (grain 1 over the block indices), so a
   block is never subdivided however much work it holds. *)
let sched_static it () =
  let pool = Lazy.force sched_pool in
  let blocks = Partition.blocks ~parts:(4 * Pool.size pool) sched_n in
  let sums = Array.make (Array.length blocks) 0 in
  Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:(Array.length blocks) (fun k ->
      let off, len = blocks.(k) in
      sums.(k) <- sched_chunk it off len);
  Array.fold_left ( + ) 0 sums

let sched_adaptive it () =
  let pool = Lazy.force sched_pool in
  Pool.parallel_range pool ~lo:0 ~hi:sched_n ~f:(sched_chunk it) ~merge:( + )
    ~init:0 ()

let bench_scheduler =
  Test.make_grouped ~name:"scheduler-4w"
    [
      Test.make ~name:"uniform-static" (Staged.stage (sched_static sched_uniform));
      Test.make ~name:"uniform-adaptive"
        (Staged.stage (sched_adaptive sched_uniform));
      Test.make ~name:"zipf-static" (Staged.stage (sched_static sched_zipf));
      Test.make ~name:"zipf-adaptive" (Staged.stage (sched_adaptive sched_zipf));
      Test.make ~name:"spike-static" (Staged.stage (sched_static sched_spike));
      Test.make ~name:"spike-adaptive"
        (Staged.stage (sched_adaptive sched_spike));
    ]

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)

module Obs = Triolet_obs.Obs
module Json = Triolet_obs.Json
module Clock = Triolet_runtime.Clock

(* Rows of the family currently running (for its BENCH file) and of the
   whole run (for the aggregate [--json] dump). *)
let family_rows : (string * float * float option) list ref = ref []
let all_rows : (string * float * float option) list ref = ref []

let add_row ?speedup name ns =
  family_rows := (name, ns, speedup) :: !family_rows;
  all_rows := (name, ns, speedup) :: !all_rows

(* [stabilize] compacts the heap before each test: families that mix
   allocation-free imperative baselines with allocating pipelines (the
   iter fusion-gap family) need it so one test's garbage doesn't tax
   its neighbour's measurement. *)
let measure_group ~quota ~stabilize test =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:None ~stabilize
      ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name o acc ->
      let ns =
        match Analyze.OLS.estimates o with Some (x :: _) -> x | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square o) in
      (name, ns, r2) :: acc)
    results []
  |> List.sort compare

let run_group test =
  List.iter
    (fun (name, ns, r2) ->
      add_row name ns;
      Printf.printf "  %-36s %14.1f ns/run   (r2 %.3f)\n" name ns r2)
    (measure_group ~quota:0.5 ~stabilize:false test)

(* Measure several runs under [Stats.measure] and keep the fastest:
   when the host timeshares the workers on fewer physical cores,
   preemption inflates individual runs and the minimum is the least
   contaminated sample of the schedule itself. *)
let sched_measure ?(reps = 5) run =
  ignore (run ());
  (* warm: pool up, code compiled *)
  let best = ref None in
  for _ = 1 to reps do
    (* Monotonic, not wall clock: an NTP step mid-run must not poison
       the best-of-N minimum with a negative or tiny sample. *)
    let t0 = Clock.monotonic_ns () in
    let _, s = Stats.measure (fun () -> ignore (run ())) in
    let wall_ns = float_of_int (Clock.monotonic_ns () - t0) in
    match !best with
    | Some (w, _) when w <= wall_ns -> ()
    | _ -> best := Some (wall_ns, s)
  done;
  let wall_ns, s = Option.get !best in
  let makespan =
    Array.fold_left
      (fun m (w : Stats.worker_snapshot) -> max m w.w_busy_ns)
      0 s.Stats.per_worker
  in
  (wall_ns, float_of_int makespan, s)

let sched_report () =
  print_endline
    "\n-- scheduler load balance (4 workers, busy-time makespan) --";
  Printf.printf "  %-10s %-10s %12s %12s %10s %8s %8s\n" "workload"
    "scheduler" "wall(ms)" "makespan(ms)" "imbalance" "splits" "steals";
  let variants =
    [
      ("uniform", sched_uniform); ("zipf", sched_zipf);
      ("spike", sched_spike);
    ]
  in
  List.iter
    (fun (wname, it) ->
      let report sname run =
        let wall_ns, makespan_ns, s = sched_measure run in
        Printf.printf "  %-10s %-10s %12.3f %12.3f %10.2f %8d %8d\n" wname
          sname (wall_ns /. 1e6) (makespan_ns /. 1e6) (Stats.imbalance s)
          s.Stats.splits s.Stats.steals;
        (wall_ns, makespan_ns)
      in
      let st_wall, st_mk = report "static" (sched_static it) in
      let ad_wall, ad_mk = report "adaptive" (sched_adaptive it) in
      let projected = st_mk /. ad_mk in
      Printf.printf
        "  %-10s projected makespan speedup (static/adaptive): %.2fx\n" wname
        projected;
      add_row (Printf.sprintf "sched-balance/%s-static" wname) st_wall
        ~speedup:1.0;
      add_row
        (Printf.sprintf "sched-balance/%s-adaptive" wname)
        ad_wall ~speedup:projected)
    variants

(* ------------------------------------------------------------------ *)
(* Families and JSON output                                             *)

let row_json (name, ns, speedup) =
  let base =
    [
      ("name", Json.Str name);
      ("ns_per_run", Json.Num (if Float.is_finite ns then ns else -1.0));
    ]
  in
  match speedup with
  | Some x when Float.is_finite x -> Json.Obj (base @ [ ("speedup", Json.Num x) ])
  | _ -> Json.Obj base

let counters_json (s : Stats.snapshot) =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("messages", num s.Stats.messages);
      ("bytes_sent", num s.Stats.bytes_sent);
      ("chunks_run", num s.Stats.chunks_run);
      ("splits", num s.Stats.splits);
      ("steals", num s.Stats.steals);
      ("failed_steals", num s.Stats.failed_steals);
      ("retries", num s.Stats.retries);
      ("recovery_ns", num s.Stats.recovery_ns);
    ]

(* The iter family: the whole group measured [iter_reps] times, each
   pattern's pipeline and imperative sides next to each other in every
   repetition.  A raw row is the median of its estimates, and a gap row
   the median of the per-repetition ratios: one Bechamel estimate per
   side spreads too widely to gate on. *)
let iter_reps = 5

let run_iter_family () =
  let reps =
    List.init iter_reps (fun _ -> measure_group ~quota:1.0 ~stabilize:true bench_iter)
  in
  let median l =
    let a = Array.of_list (List.sort Float.compare l) in
    a.(Array.length a / 2)
  in
  let ns rep name =
    List.find_map (fun (n, v, _) -> if n = name then Some v else None) rep
  in
  List.iter
    (fun (name, _, _) ->
      let estimates = List.filter_map (fun rep -> ns rep name) reps in
      let m = median estimates in
      add_row name m;
      Printf.printf "  %-36s %14.1f ns/run   (%.1f-%.1f over %d)\n" name m
        (List.fold_left Float.min infinity estimates)
        (List.fold_left Float.max neg_infinity estimates)
        (List.length estimates))
    (List.hd reps);
  List.iter
    (fun pat ->
      let side s = Printf.sprintf "iter/%s/%s" pat s in
      let gaps =
        List.filter_map
          (fun rep ->
            match (ns rep (side "pipeline"), ns rep (side "imperative")) with
            | Some p, Some i when i > 0.0 && Float.is_finite p -> Some (p /. i)
            | _ -> None)
          reps
      in
      if gaps <> [] then begin
        let gap = median gaps in
        Printf.printf "  %-36s %14.2fx pipeline/imperative   (%.2f-%.2f)\n"
          (Printf.sprintf "iter/%s-gap" pat)
          gap
          (List.fold_left Float.min infinity gaps)
          (List.fold_left Float.max neg_infinity gaps);
        add_row (Printf.sprintf "iter/%s-gap" pat) gap
      end)
    iter_patterns

(* ------------------------------------------------------------------ *)
(* Service: open-loop load against the long-lived supervised service
   (fork-per-node fabric, heartbeats, admission control).  Each arrival
   rate gets p50/p99 latency rows plus a dimensionless shed-rate row.
   The service forks, and OCaml forbids fork once any domain has been
   spawned, so this family must run before any pool-backed family; it
   is listed first and skips itself (loudly) if domains already exist. *)

module Service = Triolet_runtime.Service

(* Per-slice compute cost: enough work (~0.1 ms of integer arithmetic)
   that the top arrival rate genuinely exceeds service capacity — the
   sweep must drive the admission queue into shedding, not just measure
   dispatch overhead. *)
let service_spin = 200_000

let service_double ~node:_ ~pool:_ payload =
  match payload with
  | [ Triolet_base.Payload.Ints a ] ->
      let s = ref 0 in
      for k = 1 to service_spin do
        s := !s + (k land 7)
      done;
      ignore !s;
      [ Triolet_base.Payload.Ints (Array.map (fun x -> (2 * x) + 1) a) ]
  | _ -> failwith "bench service: bad payload"

(* One rate point: [total] arrivals at [rate]/s pushed by [clients]
   threads; arrival i is due at start + i/rate regardless of service
   state (open loop), so queueing shows up as latency and shedding, not
   as a slower generator. *)
let service_rate_point t ~rate ~total ~clients =
  let lock = Mutex.create () in
  let next = ref 0 in
  let shed = ref 0 in
  let failures = ref 0 in
  let lats = ref [] in
  let start = Clock.monotonic_ns () in
  let client () =
    let rec loop () =
      Mutex.lock lock;
      let i = !next in
      if i >= total then Mutex.unlock lock
      else begin
        incr next;
        Mutex.unlock lock;
        let due = start + int_of_float (float_of_int i /. rate *. 1e9) in
        let now = Clock.monotonic_ns () in
        if due > now then Unix.sleepf (float_of_int (due - now) /. 1e9);
        let payloads =
          Array.init 4 (fun s ->
              [ Triolet_base.Payload.Ints
                  (Array.init 8 (fun j -> i + (s * 100) + j)) ])
        in
        let t0 = Clock.monotonic_ns () in
        (match Service.submit t payloads with
        | Ok _ ->
            let dt = float_of_int (Clock.monotonic_ns () - t0) in
            Mutex.lock lock;
            lats := dt :: !lats;
            Mutex.unlock lock
        | Error Service.Overloaded ->
            Mutex.lock lock;
            incr shed;
            Mutex.unlock lock
        | Error _ ->
            Mutex.lock lock;
            incr failures;
            Mutex.unlock lock);
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let pct p =
    let n = Array.length sorted in
    if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  ( pct 0.50,
    pct 0.99,
    float_of_int !shed /. float_of_int (max 1 total),
    !failures )

let run_service_family ~quick =
  if Pool.domains_ever_spawned () then
    print_endline
      "(skipping family 'service': the service fabric forks one process \
       per node, which OCaml forbids once a worker domain has been \
       spawned; run with --filter service to measure it)"
  else begin
    let cfg =
      {
        Service.default_config with
        Service.nodes = 4;
        cores_per_node = 1;
        queue_bound = 4;
        heartbeat_interval = 0.02;
      }
    in
    let t = Service.create ~cfg ~work:service_double () in
    Fun.protect
      ~finally:(fun () -> Service.shutdown ~grace:2.0 t)
      (fun () ->
        let dur = if quick then 0.3 else 1.0 in
        List.iter
          (fun rate ->
            let total = int_of_float (rate *. dur) in
            let p50, p99, shed_rate, failures =
              service_rate_point t ~rate ~total ~clients:8
            in
            let tag = Printf.sprintf "service/r%.0f" rate in
            Printf.printf
              "  %-24s p50 %10.1f ns  p99 %10.1f ns  shed %5.1f%%%s\n" tag
              p50 p99 (100.0 *. shed_rate)
              (if failures > 0 then
                 Printf.sprintf "  (%d FAILED)" failures
               else "");
            add_row (tag ^ "/p50") p50;
            add_row (tag ^ "/p99") p99;
            add_row (tag ^ "/shed-rate") shed_rate)
          [ 200.0; 800.0; 3200.0 ];
        Printf.printf
          "  %-24s respawns %d  heartbeat misses %d  live nodes %d\n"
          "service/supervision" (Service.respawns t)
          (Service.heartbeat_misses t)
          (List.length (Service.live_nodes t)))
  end

(* ------------------------------------------------------------------ *)
(* Darray: persistent distributed arrays — per-round scatter bytes and
   latency, cold (first round ships every segment) vs warm (unchanged
   segments ship as key-only reuses).  Like the service family this
   forks per-node children, so it must run before any domain spawns;
   it is listed right after "service" and skips itself loudly
   otherwise. *)

let run_darray_family ~quick =
  if Pool.domains_ever_spawned () then
    print_endline
      "(skipping family 'darray': the resident fabric forks one process \
       per node, which OCaml forbids once a worker domain has been \
       spawned; run with --filter darray to measure it)"
  else begin
    let module D = Kern.Dataset in
    let module Cluster = Triolet_runtime.Cluster in
    let ctx =
      Exec.make ~nodes:4 ~cores_per_node:1 ~backend:Cluster.Process ()
    in
    let rounds = if quick then 3 else 8 in
    (* Iterated sgemm: A resident and much larger than the per-round
       B, the geometry where residency pays. *)
    let m, k, n = if quick then (96, 96, 6) else (256, 256, 6) in
    let a, b = D.sgemm_matrices ~seed:11 ~m ~k ~n in
    let r = Kern.Sgemm.Resident.create ~ctx a in
    let cold_bytes, cold_ns, warm_bytes, warm_ns =
      Fun.protect
        ~finally:(fun () -> Kern.Sgemm.Resident.close r)
        (fun () ->
          let t0 = Clock.monotonic_ns () in
          let _, rep = Kern.Sgemm.Resident.multiply r b in
          let cold_ns = float_of_int (Clock.monotonic_ns () - t0) in
          let bytes = ref 0 in
          let t1 = Clock.monotonic_ns () in
          for _ = 1 to rounds do
            let _, rep = Kern.Sgemm.Resident.multiply r b in
            bytes := !bytes + rep.Cluster.scatter_bytes
          done;
          let warm_ns =
            float_of_int (Clock.monotonic_ns () - t1) /. float_of_int rounds
          in
          ( float_of_int rep.Cluster.scatter_bytes,
            cold_ns,
            float_of_int !bytes /. float_of_int rounds,
            warm_ns ))
    in
    Printf.printf
      "  %-28s cold %10.0f B %10.1f ns   warm %8.0f B %10.1f ns\n"
      "darray/sgemm" cold_bytes cold_ns warm_bytes warm_ns;
    add_row "darray/sgemm/cold-bytes" cold_bytes;
    add_row "darray/sgemm/warm-bytes" warm_bytes;
    add_row "darray/sgemm/byte-ratio" (warm_bytes /. cold_bytes);
    add_row "darray/sgemm/cold-ns" cold_ns;
    add_row "darray/sgemm/warm-ns" warm_ns;
    (* cutcp halo: one atom moves per round; only the touched slab and
       changed halos re-ship. *)
    let atoms = if quick then 60 else 160 in
    let c =
      D.cutcp ~seed:12 ~atoms ~nx:12 ~ny:12 ~nz:32 ~spacing:0.5 ~cutoff:1.5
    in
    let u = Kern.Cutcp.Resident.create ~ctx c in
    Fun.protect
      ~finally:(fun () -> Kern.Cutcp.Resident.close u)
      (fun () ->
        let _, rep_cold = Kern.Cutcp.Resident.potential u in
        let bytes = ref 0 in
        for i = 1 to rounds do
          Kern.Cutcp.Resident.displace u ~atom:(i mod atoms) ~dx:0.02
            ~dy:0.0 ~dz:0.03;
          ignore (Kern.Cutcp.Resident.resync u);
          let _, rep = Kern.Cutcp.Resident.potential u in
          bytes := !bytes + rep.Cluster.scatter_bytes
        done;
        let halo_warm = float_of_int !bytes /. float_of_int rounds in
        let halo_cold = float_of_int rep_cold.Cluster.scatter_bytes in
        Printf.printf "  %-28s cold %10.0f B   moving-atom warm %8.0f B\n"
          "darray/cutcp-halo" halo_cold halo_warm;
        add_row "darray/cutcp-halo/cold-bytes" halo_cold;
        add_row "darray/cutcp-halo/warm-bytes" halo_warm;
        add_row "darray/cutcp-halo/byte-ratio" (halo_warm /. halo_cold))
  end

let families : (string * string * (quick:bool -> unit)) list =
  [
    ( "service",
      "long-lived service: open-loop arrival sweep, tail latency and \
       overload shedding",
      fun ~quick -> run_service_family ~quick );
    ( "darray",
      "persistent distributed arrays: cold vs warm per-round scatter \
       bytes (resident segments, halo exchange)",
      fun ~quick -> run_darray_family ~quick );
    ( "dot",
      "loop fusion: dot product (paper section 2)",
      fun ~quick:_ -> run_group bench_dot );
    ( "iter",
      "iterator fusion gap: fused pipeline vs imperative loop per kernel \
       inner pattern",
      fun ~quick:_ -> run_iter_family () );
    ( "nested",
      "nested traversal encodings (Figure 1 'slow' cell)",
      fun ~quick:_ -> run_group bench_nested );
    ( "serialize",
      "serialization: block copy vs element-wise (section 3.4), frame \
       checksum",
      fun ~quick:_ ->
        run_group bench_serialize;
        run_group bench_checksum );
    ( "histogram",
      "histogramming: collector vs boxed list",
      fun ~quick:_ -> run_group bench_histogram );
    ("zip3", "zip fusion", fun ~quick:_ -> run_group bench_zip);
    ( "cutcp-direction",
      "cutcp scatter vs gather (Dim3)",
      fun ~quick:_ -> run_group bench_cutcp_direction );
    ( "payload",
      "payload shipping (serialize + copy + decode)",
      fun ~quick:_ -> run_group bench_payload );
    ( "scheduler",
      "scheduler: static preload vs adaptive lazy splitting",
      fun ~quick:_ ->
        run_group bench_scheduler;
        sched_report () );
    ( "kernels",
      "kernel styles on micro instances (Figure 3 in miniature)",
      fun ~quick:_ -> run_group bench_kernels );
    ( "figures",
      "figures (Figure 3 measured; 4, 5, 7, 8 simulated)",
      fun ~quick ->
        let scale = if quick then 0.25 else 1.0 in
        ignore (Triolet_harness.Figures.all ~scale ()) );
  ]

let family_names = List.map (fun (n, _, _) -> n) families

(* Each family runs with tracing on and freshly baselined counters, so
   its BENCH file carries the phase breakdown and counter deltas of
   exactly that family's runs. *)
let run_family ~quick ~out_dir ~suffix (name, desc, body) =
  Printf.printf "\n-- %s --\n%!" desc;
  family_rows := [];
  Obs.reset ();
  Obs.enable ();
  Stats.reset ();
  let t0 = Clock.monotonic_ns () in
  body ~quick;
  let wall_ns = Clock.monotonic_ns () - t0 in
  Obs.disable ();
  let stats = Stats.snapshot () in
  let doc =
    Json.Obj
      [
        ("family", Json.Str name);
        ("wall_ns", Json.Num (float_of_int wall_ns));
        ("rows", Json.Arr (List.rev_map row_json !family_rows));
        ("phases", Obs.aggregates_json ());
        ("counters", counters_json stats);
        ("dropped_spans", Json.Num (float_of_int (Obs.dropped_spans ())));
      ]
  in
  let path = Filename.concat out_dir ("BENCH_" ^ name ^ suffix ^ ".json") in
  Json.to_file path doc;
  Printf.printf "  [%d rows, wall %.1f ms -> %s]\n%!"
    (List.length !family_rows)
    (float_of_int wall_ns /. 1e6)
    path

let write_json file =
  let rows = List.rev !all_rows in
  Json.to_file file (Json.Arr (List.map row_json rows));
  Printf.printf "\nwrote %d benchmark rows to %s\n" (List.length rows) file

(* ------------------------------------------------------------------ *)
(* Argument parsing: the full argv is scanned and anything unknown is
   an error — a typoed flag must not silently run the 10-minute full
   suite with the flag ignored. *)

type opts = {
  quick : bool;
  filter : string option;
  json : string option;
  out_dir : string;
  list : bool;
  backend : [ `Inprocess | `Process ];
}

let usage_msg =
  "usage: bench/main.exe [quick|--quick] [--list] [--filter FAMILY]\n\
  \       [--json FILE] [--out-dir DIR] [--backend inprocess|process]\n\
   families: "
  ^ String.concat ", " family_names
  ^ "\n"

let argv_error msg =
  prerr_string ("bench: " ^ msg ^ "\n" ^ usage_msg);
  exit 2

let parse_argv () =
  let rec go o = function
    | [] -> o
    | ("quick" | "--quick") :: tl -> go { o with quick = true } tl
    | "--list" :: tl -> go { o with list = true } tl
    | "--filter" :: f :: tl ->
        if List.mem f family_names then go { o with filter = Some f } tl
        else argv_error (Printf.sprintf "unknown family %S" f)
    | [ "--filter" ] -> argv_error "--filter requires a family name"
    | "--json" :: f :: tl -> go { o with json = Some f } tl
    | [ "--json" ] -> argv_error "--json requires a file name"
    | "--out-dir" :: d :: tl -> go { o with out_dir = d } tl
    | [ "--out-dir" ] -> argv_error "--out-dir requires a directory"
    | "--backend" :: "inprocess" :: tl -> go { o with backend = `Inprocess } tl
    | "--backend" :: "process" :: tl -> go { o with backend = `Process } tl
    | "--backend" :: b :: _ ->
        argv_error (Printf.sprintf "unknown backend %S" b)
    | [ "--backend" ] -> argv_error "--backend requires inprocess or process"
    | a :: _ -> argv_error (Printf.sprintf "unknown argument %S" a)
  in
  go
    {
      quick = false;
      filter = None;
      json = None;
      out_dir = ".";
      list = false;
      backend = `Inprocess;
    }
    (List.tl (Array.to_list Sys.argv))

let () =
  let o = parse_argv () in
  if o.list then List.iter print_endline family_names
  else begin
    if o.out_dir <> "." && not (Sys.file_exists o.out_dir) then
      Sys.mkdir o.out_dir 0o755;
    (* Results are written per backend: the in-process transport keeps
       the historical BENCH_<family>.json names (so existing baselines
       stay comparable), the process transport writes
       BENCH_<family>.process.json. *)
    let suffix =
      match o.backend with `Inprocess -> "" | `Process -> ".process"
    in
    (match o.backend with
    | `Inprocess -> ()
    | `Process ->
        (* Must run before any pool exists: forking requires that no
           domain was ever spawned in this process. *)
        Unix.putenv "TRIOLET_BACKEND" "process";
        Triolet.Exec.set_ambient
          {
            (Triolet.Exec.current ()) with
            Triolet.Exec.backend = Triolet_runtime.Cluster.Process;
          });
    print_endline "== Micro-benchmarks (Bechamel, monotonic clock) ==";
    let selected =
      match o.filter with
      | None -> families
      | Some f -> List.filter (fun (n, _, _) -> n = f) families
    in
    (* The scheduler family spawns a 4-worker domain pool in this
       process, which permanently disables fork — incompatible with the
       process transport, so it is skipped (not silently: say so). *)
    let selected =
      match o.backend with
      | `Inprocess -> selected
      | `Process ->
          List.filter
            (fun (n, _, _) ->
              if n = "scheduler" then begin
                print_endline
                  "(skipping family 'scheduler': it spawns worker domains, \
                   which the process backend's fork requirement forbids)";
                false
              end
              else true)
            selected
    in
    List.iter (run_family ~quick:o.quick ~out_dir:o.out_dir ~suffix) selected;
    Option.iter write_json o.json
  end
