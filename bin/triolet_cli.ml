(* triolet: command-line driver for the reproduction.

   Subcommands regenerate individual paper figures, run the kernel
   agreement checks, and demo the distributed runtime with byte
   accounting. *)

open Cmdliner
module Figures = Triolet_harness.Figures
module Stats = Triolet_runtime.Stats
module Cluster = Triolet_runtime.Cluster
module Fault = Triolet_runtime.Fault
module Clock = Triolet_runtime.Clock
module Obs = Triolet_obs.Obs

let backend_arg =
  let doc =
    "Cluster transport backend: $(b,inprocess) runs nodes as mailbox \
     channels inside this process; $(b,process) forks one OS process per \
     node and moves every frame over a socketpair.  Forking must happen \
     before any worker domain is spawned, so $(b,process) runs the \
     parent single-threaded."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("inprocess", Cluster.Inprocess); ("process", Cluster.Process) ])
        Cluster.Inprocess
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

(* Select the transport before anything touches the default pool: the
   environment variable keeps [Pool.default] one worker wide in the
   parent (forked children still build full-width pools), and the
   ambient context routes the skeletons to the chosen transport. *)
let apply_backend backend =
  (match backend with
  | Cluster.Process -> Unix.putenv "TRIOLET_BACKEND" "process"
  | Cluster.Inprocess | Cluster.Flat -> ());
  Triolet.Exec.set_ambient
    { (Triolet.Exec.current ()) with Triolet.Exec.backend }

let backend_name = function
  | Cluster.Inprocess -> "in-process"
  | Cluster.Process -> "multi-process"
  | Cluster.Flat -> "flat"

let verbose_arg =
  let doc = "Enable debug logging of the runtime (chunks, messages)." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let scale_arg =
  let doc =
    "Scale factor for the measured (Figure 3 / calibration) instances. \
     1.0 takes a few CPU-minutes; 0.5 is a quick look."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let measured_arg =
  let doc =
    "Calibrate the simulator with the efficiency ratios measured on this \
     machine (Figure 3 styles) instead of the paper's reported ratios."
  in
  Arg.(value & flag & info [ "measured" ] ~doc)

let tsv_arg =
  let doc = "Also write the figure's speedup series as TSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "tsv" ] ~docv:"FILE" ~doc)

let write_tsv tsv series =
  match tsv with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Figures.series_to_tsv series);
      close_out oc;
      Printf.printf "wrote %s\n" path

let with_ctx scale measured f =
  let ctx = Figures.make_context ~scale ~measured_efficiency:measured () in
  f ctx;
  0

let fig_cmd =
  let figure =
    Arg.(
      required
      & pos 0 (some (enum [ ("1", `F1); ("3", `F3); ("4", `F4); ("5", `F5);
                            ("7", `F7); ("8", `F8) ])) None
      & info [] ~docv:"FIGURE" ~doc:"Figure number: 1, 3, 4, 5, 7 or 8.")
  in
  let run figure scale measured tsv =
    match figure with
    | `F1 ->
        Figures.fig1 ();
        0
    | `F3 -> with_ctx scale measured (fun ctx -> ignore (Figures.fig3 ctx))
    | `F4 ->
        with_ctx scale measured (fun ctx -> write_tsv tsv (Figures.fig4 ctx))
    | `F5 ->
        with_ctx scale measured (fun ctx -> write_tsv tsv (Figures.fig5 ctx))
    | `F7 ->
        with_ctx scale measured (fun ctx -> write_tsv tsv (Figures.fig7 ctx))
    | `F8 ->
        with_ctx scale measured (fun ctx -> write_tsv tsv (Figures.fig8 ctx))
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate one figure of the paper's evaluation")
    Term.(const run $ figure $ scale_arg $ measured_arg $ tsv_arg)

let summary_cmd =
  Cmd.v
    (Cmd.info "summary"
       ~doc:"Headline claims: Triolet vs C and vs sequential C at 128 cores")
    Term.(
      const (fun scale measured ->
          with_ctx scale measured (fun ctx -> ignore (Figures.summary ctx)))
      $ scale_arg $ measured_arg)

let ablation_cmd =
  let which =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("gc", `Gc); ("slicing", `Slicing); ("twolevel", `Twolevel);
                  ("scheduling", `Scheduling); ("gather", `Gather) ]))
          None
      & info [] ~docv:"NAME"
          ~doc:"One of: gc, slicing, twolevel, scheduling, gather.")
  in
  let run which scale measured =
    with_ctx scale measured (fun ctx ->
        match which with
        | `Gc -> ignore (Figures.ablation_gc ctx)
        | `Slicing -> Figures.ablation_slicing ctx
        | `Twolevel -> Figures.ablation_twolevel ctx
        | `Scheduling -> Figures.ablation_scheduling ctx
        | `Gather -> Figures.ablation_gather ctx)
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run one design-choice ablation")
    Term.(const run $ which $ scale_arg $ measured_arg)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every figure, the summary and all ablations")
    Term.(
      const (fun scale measured ->
          ignore (Figures.all ~scale ~measured_efficiency:measured ());
          0)
      $ scale_arg $ measured_arg)

(* Single-configuration simulation with a phase breakdown. *)
let sim_cmd =
  let kernel =
    Arg.(
      required
      & opt (some (enum [ ("mri-q", "mri-q"); ("sgemm", "sgemm");
                          ("tpacf", "tpacf"); ("cutcp", "cutcp") ])) None
      & info [ "kernel" ] ~docv:"K" ~doc:"One of: mri-q, sgemm, tpacf, cutcp.")
  in
  let profile =
    Arg.(
      value
      & opt (enum [ ("triolet", `Triolet); ("eden", `Eden); ("cmpi", `Cmpi) ])
          `Triolet
      & info [ "profile" ] ~docv:"P" ~doc:"triolet, eden or cmpi.")
  in
  let nodes = Arg.(value & opt int 8 & info [ "nodes" ] ~doc:"Cluster nodes.") in
  let cores =
    Arg.(value & opt int 16 & info [ "cores" ] ~doc:"Cores per node.")
  in
  let run kernel profile nodes cores scale measured =
    let module Sched = Triolet_sim.Sched_sim in
    let module App = Triolet_sim.App_model in
    let module Table = Triolet_harness.Table in
    let ctx = Figures.make_context ~scale ~measured_efficiency:measured () in
    let app = Figures.model_of ctx kernel in
    let p =
      match profile with
      | `Triolet -> List.nth (Figures.profiles ctx) 1
      | `Eden -> List.nth (Figures.profiles ctx) 2
      | `Cmpi -> List.nth (Figures.profiles ctx) 0
    in
    let m = { Sched.nodes; cores_per_node = cores } in
    (match Sched.run app p m with
    | Sched.Failed msg -> Printf.printf "FAILED: %s\n" msg
    | Sched.Completed b ->
        let seq = App.sequential_time app in
        Printf.printf "%s on %s, %d nodes x %d cores\n" kernel
          p.Triolet_sim.Profile.name nodes cores;
        Table.print
          [
            [ "phase"; "value" ];
            [ "sequential reference"; Table.seconds seq ];
            [ "total"; Table.seconds b.Sched.total ];
            [ "speedup"; Table.f1 (seq /. b.Sched.total) ];
            [ "setup (e.g. transpose)"; Table.seconds b.Sched.setup_time ];
            [ "last input delivered"; Table.seconds b.Sched.scatter_done ];
            [ "last worker finished"; Table.seconds b.Sched.compute_done ];
            [ "bytes scattered"; Table.bytes b.Sched.bytes_scattered ];
            [ "bytes gathered"; Table.bytes b.Sched.bytes_gathered ];
            [ "time attributed to GC"; Table.seconds b.Sched.gc_time ];
          ]);
    0
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Simulate one kernel/profile/machine configuration with a phase breakdown")
    Term.(const run $ kernel $ profile $ nodes $ cores $ scale_arg $ measured_arg)

(* Kernel agreement self-check: the three styles must agree. *)
let verify_cmd =
  let run () =
    let times = Triolet_harness.Calibrate.run_fig3 ~scale:0.25 () in
    List.iter
      (fun t ->
        Printf.printf "%-6s styles agree (C %s, Triolet %s, Eden %s)\n"
          t.Triolet_harness.Calibrate.kernel
          (Triolet_harness.Table.seconds t.Triolet_harness.Calibrate.c_time)
          (Triolet_harness.Table.seconds t.Triolet_harness.Calibrate.triolet_time)
          (Triolet_harness.Table.seconds t.Triolet_harness.Calibrate.eden_time))
      times;
    print_endline "all kernels verified";
    0
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check that the C, Triolet and Eden styles of all four kernels agree")
    Term.(const run $ const ())

(* ---- Fault injection ---- *)

let fault_rate_arg =
  let doc =
    "Per-link fault rate used by fault injection: each of drop, \
     duplicate, corrupt and delay fires with this probability per \
     message."
  in
  Arg.(value & opt float 0.1 & info [ "fault-rate" ] ~docv:"P" ~doc)

let fault_seed_arg =
  let doc = "Seed of the deterministic fault injector." in
  Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let faults_flag =
  let doc =
    "Inject seeded faults (message drop/duplicate/corrupt/delay plus a \
     node crash) into the distributed runtime, and recover from them."
  in
  Arg.(value & flag & info [ "faults" ] ~doc)

(* Fault-matrix mode: run every kernel under a set of failure
   scenarios and check each result against the fault-free reference. *)
let faults_cmd =
  let run nodes cores backend rate seed verbose =
    setup_logs verbose;
    apply_backend backend;
    Triolet.Exec.set_ambient
      (Triolet.Exec.make ~nodes ~cores_per_node:cores ());
    let module Kern = Triolet_kernels.Kernel in
    let module Table = Triolet_harness.Table in
    let crash_node = min 1 (nodes - 1) in
    (* Retry timeouts sized for the transport: the in-process mailbox
       turns messages around in microseconds, a forked node takes real
       scheduling and pipe latency, so the process backend gets a much
       larger base timeout to keep delayed frames from triggering retry
       storms. *)
    let base_timeout, max_timeout =
      match backend with
      | Cluster.Process -> (Some 0.1, Some 1.0)
      | Cluster.Inprocess | Cluster.Flat -> (None, None)
    in
    let spec = Fault.spec ?base_timeout ?max_timeout in
    let scenarios =
      [
        ("drop+corrupt", spec ~seed ~drop:rate ~corrupt:rate ());
        ("dup+delay", spec ~seed ~duplicate:rate ~delay:rate ());
        ( "crash-before",
          spec ~seed ~crash:(crash_node, Fault.Before_work) () );
        ( "crash-during",
          spec ~seed ~crash:(crash_node, Fault.During_work) () );
        ( "everything",
          spec ~seed ~drop:rate ~duplicate:rate ~corrupt:rate ~delay:rate
            ~crash:(crash_node, Fault.After_work)
            ~stragglers:[ 0 ] () );
      ]
    in
    (* Every registered kernel at its tiny size class.  The first
       [check] call runs fault-free and pins the reference result; the
       scenario loop below re-runs under injected faults and compares.
       (cutcp merges float histograms in pool completion order, so its
       registry checker compares with the kernel's standard tolerance
       instead of exact equality.) *)
    let kernels =
      List.map
        (fun (module K : Kern.S) ->
          let inst = K.instance ~size:"tiny" () in
          ignore (inst.Kern.check ());
          (K.name, fun () -> inst.Kern.check ()))
        (Kern.all ())
    in
    let rows = ref [] in
    let all_ok = ref true in
    List.iter
      (fun (kname, check) ->
        List.iter
          (fun (sname, spec) ->
            let ok, delta =
              Stats.measure (fun () ->
                  Triolet.Exec.with_context
                    (Triolet.Exec.make ~faults:(Some spec) ())
                    (fun () -> check ()))
            in
            if not ok then all_ok := false;
            rows :=
              [
                kname; sname;
                (if ok then "ok" else "WRONG RESULT");
                string_of_int delta.Stats.faults_injected;
                string_of_int delta.Stats.retries;
                string_of_int delta.Stats.redeliveries;
                string_of_int delta.Stats.corrupt_drops;
                string_of_int delta.Stats.crashed_nodes;
              ]
              :: !rows)
          scenarios)
      kernels;
    Printf.printf
      "fault matrix: %d nodes x %d cores (%s), rate %.3f, seed %d\n" nodes
      cores (backend_name backend) rate seed;
    Table.print
      ([ "kernel"; "scenario"; "result"; "faults"; "retries"; "redeliv";
         "corrupt"; "crashes" ]
      :: List.rev !rows);
    if !all_ok then begin
      print_endline "all kernels correct under every fault scenario";
      0
    end
    else begin
      print_endline "FAILURE: some kernel produced a wrong result";
      1
    end
  in
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Cluster nodes.") in
  let cores =
    Arg.(value & opt int 2 & info [ "cores" ] ~doc:"Cores per node.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run every kernel under a matrix of injected failures (drops, \
          duplicates, corruption, delays, node crashes, stragglers) and \
          verify the results still match the fault-free runs")
    Term.(const run $ nodes $ cores $ backend_arg $ fault_rate_arg
          $ fault_seed_arg $ verbose_arg)

(* Distributed-runtime demo with byte accounting and optional tracing. *)
let demo_cmd =
  let run nodes cores flat backend faults fault_rate fault_seed trace verbose
      =
    setup_logs verbose;
    apply_backend backend;
    Triolet.Exec.set_ambient
      (Triolet.Exec.make ~nodes ~cores_per_node:cores
         ~backend:(if flat then Cluster.Flat else backend)
         ());
    if faults then begin
      let base_timeout, max_timeout =
        match backend with
        | Cluster.Process -> (Some 0.1, Some 1.0)
        | Cluster.Inprocess | Cluster.Flat -> (None, None)
      in
      Triolet.Exec.set_ambient
        (Triolet.Exec.make
           ~faults:
             (Some
                (Fault.spec ?base_timeout ?max_timeout ~seed:fault_seed
              ~drop:fault_rate ~duplicate:fault_rate ~corrupt:fault_rate
              ~delay:fault_rate
                   ~crash:(min 1 (nodes - 1), Fault.During_work)
                   ()))
           ())
    end;
    let n = 1_000_000 in
    let xs = Float.Array.init n (fun i -> float_of_int (i mod 1000) /. 1000.0) in
    let ys = Float.Array.init n (fun i -> float_of_int ((i + 17) mod 1000) /. 1000.0) in
    Stats.reset ();
    if trace <> None then begin
      Obs.reset ();
      Obs.enable ()
    end;
    let t0 = Clock.monotonic_ns () in
    let dot, delta =
      Stats.measure (fun () ->
          Triolet.Iter.sum
            (Triolet.Iter.map
               (fun (x, y) -> x *. y)
               (Triolet.Iter.zip
                  (Triolet.Iter.par (Triolet.Iter.of_floatarray xs))
                  (Triolet.Iter.of_floatarray ys))))
    in
    let wall_ns = Clock.monotonic_ns () - t0 in
    Printf.printf
      "dot product of 2 x %d floats on a %dx%d %s cluster = %.4f\n" n nodes
      cores
      (if flat then "flat" else "two-level " ^ backend_name backend)
      dot;
    Printf.printf "messages: %d   bytes moved: %s   chunks: %d   steals: %d\n"
      delta.Stats.messages
      (Triolet_harness.Table.bytes delta.Stats.bytes_sent)
      delta.Stats.chunks_run delta.Stats.steals;
    if faults then
      Printf.printf
        "faults injected: %d   retries: %d   redeliveries: %d   corrupt \
         drops: %d   crashed nodes: %d\n"
        delta.Stats.faults_injected delta.Stats.retries
        delta.Stats.redeliveries delta.Stats.corrupt_drops
        delta.Stats.crashed_nodes;
    (match trace with
    | None -> ()
    | Some path ->
        Obs.disable ();
        Obs.write_trace path;
        Format.printf "%a" Obs.pp_aggregates (Obs.aggregates ());
        (* The cluster phases partition a cluster run end to end, so
           their totals should account for nearly all of the wall time
           of a distributed run. *)
        let cluster_phases =
          [ "cluster.serialize"; "cluster.send"; "cluster.compute";
            "cluster.recv"; "cluster.merge" ]
        in
        let covered =
          List.fold_left (fun acc p -> acc + Obs.agg_total p) 0 cluster_phases
        in
        Printf.printf "wrote %s (%d events, %d dropped)\n" path
          (List.length (Obs.events ()))
          (Obs.dropped_spans ());
        Printf.printf
          "cluster phase coverage: %.1f%% of %.2f ms wall\n"
          (100.0 *. float_of_int covered /. float_of_int wall_ns)
          (float_of_int wall_ns /. 1e6));
    Triolet.Exec.set_ambient (Triolet.Exec.make ~faults:None ());
    0
  in
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Cluster nodes.") in
  let cores =
    Arg.(value & opt int 2 & info [ "cores" ] ~doc:"Cores per node.")
  in
  let flat =
    Arg.(value & flag & info [ "flat" ] ~doc:"Flat (Eden-style) distribution.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record per-phase spans of the run and write them as a Chrome \
             trace_event JSON file (load in chrome://tracing or Perfetto).")
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Distributed dot product on the in-process cluster, with byte accounting")
    Term.(const run $ nodes $ cores $ flat $ backend_arg $ faults_flag
          $ fault_rate_arg $ fault_seed_arg $ trace $ verbose_arg)

(* Bench-result regression gate. *)
let bench_cmd =
  let compare_flag =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Compare two bench result files (written by bench/main.exe as \
             BENCH_<family>.json or --json) and fail on regressions.")
  in
  let threshold =
    Arg.(
      value & opt float 0.15
      & info [ "threshold" ] ~docv:"T"
          ~doc:
            "Regression threshold as a fraction: a row regresses when \
             new/old > 1 + T.")
  in
  let old_file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"OLD" ~doc:"Baseline file.")
  in
  let new_file =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"Candidate file.")
  in
  let run compare threshold old_file new_file =
    let module BC = Triolet_harness.Bench_compare in
    match (compare, old_file, new_file) with
    | true, Some old_f, Some new_f -> (
        match BC.compare_files ~threshold old_f new_f with
        | report ->
            Format.printf "%a" (BC.pp_report ~threshold) report;
            if report.BC.regressions = [] then 0 else 1
        | exception Triolet_obs.Json.Parse_error msg ->
            Printf.eprintf "bench: malformed input: %s\n" msg;
            2)
    | true, _, _ ->
        prerr_endline "bench: --compare needs OLD and NEW result files";
        2
    | false, _, _ ->
        print_endline
          "run benchmarks with:  dune exec bench/main.exe -- --help\n\
           compare results with: triolet bench --compare OLD NEW";
        0
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Compare bench result files and exit nonzero on per-row slowdowns \
          beyond the threshold")
    Term.(const run $ compare_flag $ threshold $ old_file $ new_file)

(* Static analysis gate: reify every kernel's pipeline into a plan,
   audit the plans, scan for unchecked unsafe accesses, and
   exhaustively model-check the concurrency protocols.  Exit status 1
   on any error-severity finding or protocol violation, so CI can use
   it as a lint gate. *)
let analyze_cmd =
  let run nodes cores root locks protocol dot_file verbose =
    setup_logs verbose;
    Triolet.Exec.set_ambient
      (Triolet.Exec.make ~nodes ~cores_per_node:cores ());
    let module Kern = Triolet_kernels.Kernel in
    let module Plan = Triolet_analysis.Plan in
    let module Passes = Triolet_analysis.Passes in
    (* One plan per registered analyzer hook, reified at the tiny size
       class — registry iteration, no per-kernel match arms. *)
    let plans =
      List.concat_map
        (fun (module K : Kern.S) ->
          let inst = K.instance ~size:"tiny" () in
          List.map
            (fun (pname, pipe) ->
              match pipe with
              | Kern.Pipe_1d it -> Plan.of_iter ~name:pname it
              | Kern.Pipe_2d it -> Plan.of_iter2 ~name:pname it)
            (inst.Kern.pipelines ()))
        (Kern.all ())
    in
    print_endline "== plans ==";
    List.iter (fun p -> print_endline (Plan.to_string p)) plans;
    let lock_findings, lock_edges =
      if locks then Triolet_analysis.Lockcheck.run ~root ()
      else ([], [])
    in
    if locks then begin
      print_endline "== lock graph ==";
      if lock_edges = [] then print_endline "(no nested acquisitions)"
      else
        List.iter
          (fun (e : Triolet_analysis.Lockcheck.edge) ->
            Printf.printf "%s -> %s (%s:%d%s)\n" e.from_lock e.to_lock
              e.file e.line
              (match e.via with Some v -> " via " ^ v | None -> ""))
          lock_edges;
      match dot_file with
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc
                (Triolet_analysis.Lockcheck.dot_of_edges lock_edges));
          Printf.printf "lock graph written to %s\n" path
      | None -> ()
    end;
    let protocol_findings =
      if protocol then Triolet_analysis.Protocol_lint.run ~root () else []
    in
    let findings =
      Passes.run_all plans
      @ Triolet_analysis.Unsafe_scan.run ~root ()
      @ lock_findings @ protocol_findings
    in
    print_endline "== findings ==";
    if findings = [] then print_endline "(none)"
    else List.iter (fun f -> print_endline (Passes.to_string f)) findings;
    print_endline "== protocol models ==";
    let reports =
      [
        Triolet_sim.Protocol_models.Wsdeque_model.check ();
        Triolet_sim.Protocol_models.Mailbox_model.check ();
      ]
      @
      if protocol then
        [
          Triolet_sim.Dispatch_model.check_supervision ();
          Triolet_sim.Dispatch_model.check_residency ();
          Triolet_sim.Dispatch_model.check_failure ();
        ]
      else []
    in
    List.iter
      (fun r -> print_endline (Triolet_sim.Modelcheck.report_to_string r))
      reports;
    let model_bad =
      List.exists
        (fun r -> r.Triolet_sim.Modelcheck.violation <> None)
        reports
    in
    if Passes.has_errors findings || model_bad then begin
      print_endline "analyze: FAILED";
      1
    end
    else begin
      print_endline "analyze: ok";
      0
    end
  in
  let nodes =
    Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Cluster nodes to plan for.")
  in
  let cores =
    Arg.(value & opt int 2 & info [ "cores" ] ~doc:"Cores per node to plan for.")
  in
  let root =
    Arg.(value & opt string "."
         & info [ "root" ] ~docv:"DIR"
             ~doc:"Source tree root for the unsafe-access scan.")
  in
  let locks =
    Arg.(
      value & flag
      & info [ "locks" ]
          ~doc:
            "Run the concurrency lint: lock-order inversions, blocking \
             calls under a lock, Condition.wait shape, and the \
             Mutex/Atomic introduction ratchet.")
  in
  let protocol =
    Arg.(
      value & flag
      & info [ "protocol" ]
          ~doc:
            "Audit the reified wire-protocol spec (completeness, drift \
             against sent frame kinds) and exhaustively model-check the \
             real dispatch engine and node handler.")
  in
  let dot_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"With --locks, write the lock-acquisition graph as Graphviz.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis gate: audit reified kernel plans (coverage, \
          fusion, serialization, grain), scan for unchecked unsafe \
          accesses, lint the runtime's lock discipline and wire-protocol \
          spec, and exhaustively model-check the concurrency protocols")
    Term.(const run $ nodes $ cores $ root $ locks $ protocol $ dot_file $ verbose_arg)

(* Long-lived supervised service demo: keep a forked fabric warm, push
   an open-loop request stream at it, optionally kill children along
   the way, and report tail latency plus supervision counters. *)
let serve_cmd =
  let module Service = Triolet_runtime.Service in
  let module Rng = Triolet_base.Rng in
  let module Payload = Triolet_base.Payload in
  let double_inc ~node:_ ~pool:_ payload =
    match payload with
    | [ Payload.Ints a ] ->
        [ Payload.Ints (Array.map (fun x -> (2 * x) + 1) a) ]
    | _ -> failwith "serve: bad payload"
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let run nodes cores duration rate clients queue_bound slices deadline
      kill_every heartbeat_loss fault_seed verbose =
    setup_logs verbose;
    if rate <= 0.0 then invalid_arg "serve: --rate must be positive";
    if duration <= 0.0 then invalid_arg "serve: --duration must be positive";
    if clients < 1 then invalid_arg "serve: --clients must be >= 1";
    let faults =
      if heartbeat_loss > 0.0 then
        Some (Fault.spec ~heartbeat_loss ~seed:fault_seed ())
      else None
    in
    let cfg =
      {
        Service.default_config with
        Service.nodes;
        cores_per_node = cores;
        queue_bound;
        heartbeat_interval = 0.02;
        faults;
      }
    in
    (* The service forks and re-forks; nothing in this parent may ever
       spawn a domain, so all client concurrency below is systhreads. *)
    let t = Service.create ~cfg ~work:double_inc () in
    Fun.protect
      ~finally:(fun () -> Service.shutdown ~grace:2.0 t)
      (fun () ->
        let total = int_of_float (rate *. duration) in
        let lock = Mutex.create () in
        let next_arrival = ref 0 in
        let completed = ref 0 in
        let shed = ref 0 in
        let expired = ref 0 in
        let failed = ref 0 in
        let wrong = ref 0 in
        let latencies = ref [] in
        let kill_rng = Rng.create fault_seed in
        let start = Clock.monotonic_ns () in
        let client () =
          let rec loop () =
            Mutex.lock lock;
            let i = !next_arrival in
            if i >= total then Mutex.unlock lock
            else begin
              incr next_arrival;
              Mutex.unlock lock;
              (* Open loop: arrival i is due at start + i/rate whatever
                 the service is doing; a late pickup submits at once. *)
              let due =
                start + int_of_float (float_of_int i /. rate *. 1e9)
              in
              let now = Clock.monotonic_ns () in
              if due > now then
                Unix.sleepf (float_of_int (due - now) /. 1e9);
              let payloads =
                Array.init slices (fun s ->
                    [ Payload.Ints (Array.init 8 (fun j -> i + (s * 100) + j)) ])
              in
              let t0 = Clock.monotonic_ns () in
              (match Service.submit ?deadline t payloads with
              | Ok results ->
                  let dt = Clock.monotonic_ns () - t0 in
                  let exact =
                    Array.for_all2
                      (fun sent got ->
                        match (sent, got) with
                        | [ Payload.Ints a ], [ Payload.Ints b ] ->
                            b = Array.map (fun x -> (2 * x) + 1) a
                        | _ -> false)
                      payloads results
                  in
                  Mutex.lock lock;
                  incr completed;
                  if not exact then incr wrong;
                  latencies := float_of_int dt /. 1e6 :: !latencies;
                  if
                    kill_every > 0
                    && !completed mod kill_every = 0
                  then begin
                    let pids = Service.node_pids t in
                    let victim = Rng.int kill_rng nodes in
                    (try Unix.kill pids.(victim) Sys.sigkill
                     with Unix.Unix_error _ -> ())
                  end;
                  Mutex.unlock lock
              | Error Service.Overloaded ->
                  Mutex.lock lock;
                  incr shed;
                  Mutex.unlock lock
              | Error Service.Deadline_expired ->
                  Mutex.lock lock;
                  incr expired;
                  Mutex.unlock lock
              | Error (Service.Draining | Service.Failed _) ->
                  Mutex.lock lock;
                  incr failed;
                  Mutex.unlock lock);
              loop ()
            end
          in
          loop ()
        in
        let threads = List.init clients (fun _ -> Thread.create client ()) in
        List.iter Thread.join threads;
        let wall =
          float_of_int (Clock.monotonic_ns () - start) /. 1e9
        in
        let sorted = Array.of_list !latencies in
        Array.sort compare sorted;
        let module Table = Triolet_harness.Table in
        Printf.printf
          "service: %d nodes x %d cores, %d req at %.0f req/s (open loop), \
           %d clients\n"
          nodes cores total rate clients;
        Table.print
          [
            [ "metric"; "value" ];
            [ "wall time"; Printf.sprintf "%.2f s" wall ];
            [ "completed"; string_of_int !completed ];
            [ "wrong results"; string_of_int !wrong ];
            [ "shed (overloaded)"; string_of_int !shed ];
            [ "deadline expired"; string_of_int !expired ];
            [ "failed"; string_of_int !failed ];
            [ "shed rate";
              Printf.sprintf "%.1f%%"
                (100.0 *. float_of_int !shed /. float_of_int (max 1 total)) ];
            [ "p50 latency"; Printf.sprintf "%.2f ms" (percentile sorted 0.50) ];
            [ "p99 latency"; Printf.sprintf "%.2f ms" (percentile sorted 0.99) ];
            [ "respawns"; string_of_int (Service.respawns t) ];
            [ "heartbeat misses"; string_of_int (Service.heartbeat_misses t) ];
            [ "live nodes"; string_of_int (List.length (Service.live_nodes t)) ];
          ];
        (match Service.fault_counters t with
        | Some c -> Format.printf "injected: %a@." Fault.pp_counters c
        | None -> ());
        if !wrong > 0 || !failed > 0 then 1 else 0)
  in
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Service nodes.") in
  let cores =
    Arg.(value & opt int 2 & info [ "cores" ] ~doc:"Cores per node.")
  in
  let duration =
    Arg.(value & opt float 2.0
         & info [ "duration" ] ~docv:"S" ~doc:"Load duration in seconds.")
  in
  let rate =
    Arg.(value & opt float 200.0
         & info [ "rate" ] ~docv:"R"
             ~doc:"Open-loop arrival rate, requests per second.")
  in
  let clients =
    Arg.(value & opt int 8
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let queue_bound =
    Arg.(value & opt int 64
         & info [ "queue-bound" ] ~docv:"N"
             ~doc:"Admission-queue high-water mark; beyond it requests are \
                   rejected as overloaded.")
  in
  let slices =
    Arg.(value & opt int 4
         & info [ "slices" ] ~docv:"K" ~doc:"Slices per request.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"S"
             ~doc:"Per-request compute budget in seconds; expired requests \
                   are cancelled, not computed.")
  in
  let kill_every =
    Arg.(value & opt int 0
         & info [ "kill-every" ] ~docv:"K"
             ~doc:"Chaos: SIGKILL a random child after every $(docv) \
                   completed requests (0 = off); the supervisor must \
                   respawn it.")
  in
  let heartbeat_loss =
    Arg.(value & opt float 0.0
         & info [ "heartbeat-loss" ] ~docv:"P"
             ~doc:"Chaos: drop each heartbeat reply with this probability \
                   (seeded), forcing miss-threshold kills and respawns.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived supervised service demo: open-loop load against a \
          forked node fabric with heartbeats, respawn, deadlines and \
          overload shedding; reports p50/p99 latency and supervision \
          counters")
    Term.(const run $ nodes $ cores $ duration $ rate $ clients $ queue_bound
          $ slices $ deadline $ kill_every $ heartbeat_loss $ fault_seed_arg
          $ verbose_arg)

(* ---- Cost-model-driven auto-mapper ---- *)

let autotune_cmd =
  let module Tune = Triolet_tune.Tune in
  let module Kern = Triolet_kernels.Kernel in
  let module Mapping = Triolet.Mapping in
  let module Table = Triolet_harness.Table in
  let module Json = Triolet_obs.Json in
  let print_ranked ~top scores =
    let rows =
      List.filteri (fun i _ -> i < top) scores
      |> List.map (fun s ->
             let c = s.Tune.cand in
             [
               string_of_int c.Tune.nodes;
               string_of_int c.Tune.cores_per_node;
               Cluster.backend_to_string c.Tune.backend;
               (match c.Tune.grain with
               | None -> "auto"
               | Some g -> string_of_int g);
               string_of_int c.Tune.chunk_multiplier;
               Table.seconds s.Tune.host_s;
               Table.seconds s.Tune.cluster_s;
             ])
    in
    Table.print
      ([ "nodes"; "cores"; "backend"; "grain"; "chunk_x"; "pred host";
         "pred cluster" ]
      :: rows)
  in
  let score_json s =
    let c = s.Tune.cand in
    Json.Obj
      [
        ("nodes", Json.Num (float_of_int c.Tune.nodes));
        ("cores_per_node", Json.Num (float_of_int c.Tune.cores_per_node));
        ("backend", Json.Str (Cluster.backend_to_string c.Tune.backend));
        ( "grain",
          match c.Tune.grain with
          | None -> Json.Null
          | Some g -> Json.Num (float_of_int g) );
        ( "chunk_multiplier",
          Json.Num (float_of_int c.Tune.chunk_multiplier) );
        ("predicted_host_s", Json.Num s.Tune.host_s);
        ("predicted_cluster_s", Json.Num s.Tune.cluster_s);
      ]
  in
  let run check out kernel size objective top table reps no_validate verbose =
    setup_logs verbose;
    if check then begin
      match Mapping.load out with
      | Error msg ->
          Printf.eprintf "autotune --check: cannot read %s: %s\n%!" out msg;
          2
      | Ok file -> (
          match Tune.check file with
          | Tune.Check_ok ->
              Printf.printf
                "autotune --check: %s ok (%d entries, objective %s)\n" out
                (List.length file.Mapping.entries)
                file.Mapping.objective;
              0
          | Tune.Check_drift issues ->
              Printf.eprintf
                "autotune --check: %s has drifted from the current \
                 registry/model:\n"
                out;
              List.iter (fun i -> Printf.eprintf "  - %s\n" i) issues;
              Printf.eprintf "re-run `triolet autotune` to regenerate it\n%!";
              1)
    end
    else begin
      (* Tuning measures at explicit contexts; installing the current
         context as explicit ambient keeps any already-checked-in
         mapping file from steering the very runs that regenerate it. *)
      Triolet.Exec.set_ambient (Triolet.Exec.current ());
      let selected =
        match kernel with
        | None -> Kern.all ()
        | Some k -> (
            match Kern.find k with
            | Some m -> [ m ]
            | None ->
                invalid_arg
                  (Printf.sprintf "autotune: unknown kernel %S (valid: %s)" k
                     (String.concat ", " (Kern.names ()))))
      in
      Printf.printf "measuring machine rates...\n%!";
      let rates = Triolet_kernels.Models.measure_rates () in
      let results =
        List.map
          (fun (module K : Kern.S) ->
            let size = Option.value size ~default:K.default_size in
            let inst = K.instance ~size () in
            Printf.printf "\ntuning %s/%s (%d work units)...\n%!" K.name size
              inst.Kern.work_units;
            let entry, ranked =
              Tune.tune_instance ~objective ~reps ~validate:(not no_validate)
                ~rates inst
            in
            print_ranked ~top ranked;
            (match (entry.Mapping.measured_s, entry.Mapping.delta) with
            | Some m, Some d ->
                Printf.printf
                  "%s/%s: predicted %s, measured %s (delta %.1f%%)\n%!" K.name
                  size
                  (Table.seconds entry.Mapping.predicted_s)
                  (Table.seconds m) (100.0 *. d)
            | _ ->
                Printf.printf "%s/%s: predicted %s (not validated)\n%!" K.name
                  size
                  (Table.seconds entry.Mapping.predicted_s));
            (entry, (K.name, size, ranked)))
          selected
      in
      let file =
        {
          Mapping.version = Mapping.schema_version;
          objective = Tune.objective_to_string objective;
          host_cores = Tune.default_host_cores ();
          rates = Tune.rates_to_assoc rates;
          entries = List.map fst results;
        }
      in
      Mapping.save out file;
      Printf.printf "\nwrote %s (%d entries)\n" out (List.length file.entries);
      (match table with
      | None -> ()
      | Some path ->
          let tables =
            Json.Arr
              (List.map
                 (fun (_, (k, size, ranked)) ->
                   Json.Obj
                     [
                       ("kernel", Json.Str k);
                       ("size", Json.Str size);
                       ("ranked", Json.Arr (List.map score_json ranked));
                     ])
                 results)
          in
          Json.to_file path tables;
          Printf.printf "wrote ranked-candidates table to %s\n" path);
      let worst =
        List.fold_left
          (fun acc (e, _) ->
            match e.Mapping.delta with Some d -> max acc d | None -> acc)
          0.0 results
      in
      if worst > 0.25 then
        Printf.eprintf
          "warning: worst predicted-vs-measured delta %.1f%% exceeds 25%%\n%!"
          (100.0 *. worst);
      0
    end
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-validate the mapping file against the current kernel \
             registry and simulator without re-measuring (exit 1 on drift, \
             2 if the file is unreadable or has a mismatched schema).")
  in
  let out =
    Arg.(
      value
      & opt string "tune/MAPPINGS.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Mapping file to write (or to read with $(b,--check)).")
  in
  let kernel =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel" ] ~docv:"K"
          ~doc:"Tune only this kernel (default: every registered kernel).")
  in
  let size =
    Arg.(
      value
      & opt (some string) None
      & info [ "size" ] ~docv:"S"
          ~doc:
            "Size class to tune at (default: each kernel's default size \
             class).")
  in
  let objective =
    Arg.(
      value
      & opt (enum [ ("host", Tune.Host); ("cluster", Tune.Cluster) ]) Tune.Host
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "Ranking objective: $(b,host) ranks by makespan projected onto \
             this machine (validatable), $(b,cluster) by the abstract \
             simulated cluster makespan.")
  in
  let top =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~docv:"N" ~doc:"Show the N best candidates per kernel.")
  in
  let table =
    Arg.(
      value
      & opt (some string) None
      & info [ "table" ] ~docv:"FILE"
          ~doc:"Also write the full ranked-candidates tables as JSON.")
  in
  let reps =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"R" ~doc:"Best-of-R timing repetitions.")
  in
  let no_validate =
    Arg.(
      value & flag
      & info [ "no-validate" ]
          ~doc:
            "Skip the measured run at the winning context (faster; the \
             mapping records no delta).")
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Search execution contexts per kernel with the calibrated cost \
          model, validate the winner against a real run, and write the \
          mapping file that run_triolet consults by default")
    Term.(
      const run $ check_flag $ out $ kernel $ size $ objective $ top $ table
      $ reps $ no_validate $ verbose_arg)

let () =
  let info =
    Cmd.info "triolet" ~version:"1.0.0"
      ~doc:"Reproduction of Triolet (PPoPP 2014): figures, ablations, demos"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            fig_cmd; summary_cmd; ablation_cmd; all_cmd; verify_cmd; demo_cmd;
            sim_cmd; faults_cmd; analyze_cmd; bench_cmd; serve_cmd;
            autotune_cmd;
          ]))
