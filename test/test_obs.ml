(* Observability-layer tests: the monotonic clock, span recording
   (nesting, ordering, wraparound, drops), Chrome-trace JSON output
   round-tripping through the parser, the JSON printer/parser itself,
   Stats snapshot/reset coherence under concurrent workers, and the
   bench-compare regression gate. *)

module Obs = Triolet_obs.Obs
module Json = Triolet_obs.Json
module Clock = Triolet_runtime.Clock
module Stats = Triolet_runtime.Stats
module Pool = Triolet_runtime.Pool
module Cluster = Triolet_runtime.Cluster
module Fault = Triolet_runtime.Fault
module Darray = Triolet_runtime.Darray
module Payload = Triolet_base.Payload
module BC = Triolet_harness.Bench_compare

(* This suite spawns multi-domain pools and then runs ambient-context
   distributed pipelines, which the process backend's fork requirement
   forbids; ignore TRIOLET_BACKEND so the suite behaves identically
   under it (test_transport covers the process backend). *)
let () = Unix.putenv "TRIOLET_BACKEND" ""
let () = Pool.set_default_width 2

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Fresh tracing state with a known ring capacity; always disabled on
   the way out so later tests start quiet. *)
let with_tracing ?(capacity = 4096) f =
  Obs.set_ring_capacity capacity;
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)

let test_monotonic_nondecreasing () =
  let prev = ref (Clock.monotonic_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.monotonic_ns () in
    if t < !prev then Alcotest.fail "monotonic clock went backwards";
    prev := t
  done;
  (* the obs stub reads the same clock *)
  let a = Clock.monotonic_ns () in
  let b = Obs.monotonic_ns () in
  let c = Clock.monotonic_ns () in
  check_bool "obs clock agrees with runtime clock" true (a <= b && b <= c)

let test_duration_nonnegative () =
  let r, dt = Clock.duration (fun () -> 42) in
  check_int "result passthrough" 42 r;
  check_bool "duration >= 0" true (dt >= 0.0)

(* ------------------------------------------------------------------ *)
(* Spans: values, nesting, ordering, attrs                             *)

let test_span_disabled_passthrough () =
  Obs.reset ();
  (* disabled: still runs the thunk, records nothing *)
  check_int "value" 7 (Obs.span ~name:"off" (fun () -> 7));
  check_int "no events" 0 (List.length (Obs.events ()))

let test_span_nesting_and_order () =
  with_tracing (fun () ->
      let v =
        Obs.span ~name:"outer" (fun () ->
            ignore (Obs.span ~name:"inner1" (fun () -> 1));
            Obs.span ~name:"inner2" ~attrs:[ ("k", "v") ] (fun () -> 2))
      in
      check_int "value through nested spans" 2 v;
      let evs = Obs.events () in
      check_int "three events" 3 (List.length evs);
      let find n = List.find (fun e -> e.Obs.ev_name = n) evs in
      let outer = find "outer"
      and i1 = find "inner1"
      and i2 = find "inner2" in
      check_int "outer at depth 0" 0 outer.Obs.ev_depth;
      check_int "inner1 at depth 1" 1 i1.Obs.ev_depth;
      check_int "inner2 at depth 1" 1 i2.Obs.ev_depth;
      check_bool "events sorted by start" true
        (List.for_all2
           (fun a b -> a.Obs.ev_start_ns <= b.Obs.ev_start_ns)
           [ outer; i1 ] [ i1; i2 ]);
      let ends e = e.Obs.ev_start_ns + e.Obs.ev_dur_ns in
      check_bool "inner1 inside outer" true
        (i1.Obs.ev_start_ns >= outer.Obs.ev_start_ns && ends i1 <= ends outer);
      check_bool "inner2 inside outer" true
        (i2.Obs.ev_start_ns >= outer.Obs.ev_start_ns && ends i2 <= ends outer);
      check_bool "inner1 before inner2" true (ends i1 <= i2.Obs.ev_start_ns);
      check_bool "attrs kept" true (i2.Obs.ev_attrs = [ ("k", "v") ]))

let test_span_exception_safe () =
  with_tracing (fun () ->
      (match Obs.span ~name:"boom" (fun () -> failwith "x") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure _ -> ());
      (* the span closed and depth unwound: a sibling records at 0 *)
      ignore (Obs.span ~name:"after" (fun () -> ()));
      let after =
        List.find (fun e -> e.Obs.ev_name = "after") (Obs.events ())
      in
      check_int "depth unwound after raise" 0 after.Obs.ev_depth;
      check_bool "raising span still recorded" true
        (List.exists (fun e -> e.Obs.ev_name = "boom") (Obs.events ())))

let test_instants () =
  with_tracing (fun () ->
      Obs.instant ~name:"mark" ~attrs:[ ("n", "1") ] ();
      let e = List.find (fun e -> e.Obs.ev_name = "mark") (Obs.events ()) in
      check_int "instants have zero duration" 0 e.Obs.ev_dur_ns)

let test_multi_domain_events () =
  with_tracing (fun () ->
      let worker tag () =
        ignore (Obs.span ~name:("dom." ^ tag) (fun () -> Unix.sleepf 0.001))
      in
      let d1 = Domain.spawn (worker "a") and d2 = Domain.spawn (worker "b") in
      Domain.join d1;
      Domain.join d2;
      ignore (Obs.span ~name:"dom.main" (fun () -> ()));
      let evs = Obs.events () in
      let tid n = (List.find (fun e -> e.Obs.ev_name = n) evs).Obs.ev_tid in
      check_bool "distinct recording domains get distinct tids" true
        (tid "dom.a" <> tid "dom.b" && tid "dom.a" <> tid "dom.main"))

(* ------------------------------------------------------------------ *)
(* Ring wraparound                                                     *)

let test_wraparound_drops_oldest () =
  with_tracing ~capacity:16 (fun () ->
      for i = 0 to 99 do
        ignore
          (Obs.span ~name:"w" ~attrs:[ ("i", string_of_int i) ] (fun () -> i))
      done;
      let evs = Obs.events () in
      check_int "ring keeps capacity events" 16 (List.length evs);
      check_int "drop counter accounts for the rest" 84 (Obs.dropped_spans ());
      let indices =
        List.map (fun e -> int_of_string (List.assoc "i" e.Obs.ev_attrs)) evs
      in
      check_bool "oldest events dropped, newest retained" true
        (List.sort compare indices = List.init 16 (fun k -> 84 + k));
      (* aggregates are not subject to wraparound *)
      let _, a = List.find (fun (n, _) -> n = "w") (Obs.aggregates ()) in
      check_int "aggregate count complete despite drops" 100 a.Obs.agg_count;
      check_bool "aggregate total covers max" true
        (a.Obs.agg_total_ns >= a.Obs.agg_max_ns))

(* ------------------------------------------------------------------ *)
(* Trace JSON round-trips through the parser                           *)

let test_trace_json_roundtrip () =
  with_tracing (fun () ->
      ignore
        (Obs.span ~name:"phase \"quoted\"" (fun () ->
             Obs.instant ~name:"tick" ();
             ignore (Obs.span ~name:"child" (fun () -> 0))));
      let path = Filename.temp_file "triolet_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.write_trace path;
          let doc = Json.of_file path in
          let events =
            match Json.member "traceEvents" doc with
            | Some (Json.Arr _ as a) -> Json.to_list a
            | _ -> Alcotest.fail "traceEvents missing"
          in
          check_int "one JSON event per recorded event"
            (List.length (Obs.events ()))
            (List.length events);
          List.iter
            (fun e ->
              let str f = Option.bind (Json.member f e) Json.to_string_opt in
              let num f = Option.bind (Json.member f e) Json.to_float_opt in
              check_bool "event has a name" true (str "name" <> None);
              (match str "ph" with
              | Some ("X" | "i") -> ()
              | _ -> Alcotest.fail "unexpected phase type");
              check_bool "timestamps non-negative" true
                (match num "ts" with Some t -> t >= 0.0 | None -> false))
            events;
          check_bool "names survive escaping" true
            (List.exists
               (fun e ->
                 Option.bind (Json.member "name" e) Json.to_string_opt
                 = Some "phase \"quoted\"")
               events)))

(* ------------------------------------------------------------------ *)
(* JSON printer/parser                                                 *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te\ru\x01f");
        ("n", Json.Num (-1.5e3));
        ("i", Json.Num 42.0);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.0; Json.Arr []; Json.Obj [] ]);
      ]
  in
  Alcotest.(check bool)
    "print/parse identity" true
    (Json.of_string (Json.to_string v) = v)

let test_json_parses_standard_forms () =
  check_bool "null" true (Json.of_string " null " = Json.Null);
  check_bool "escapes" true
    (Json.of_string {|"A\né"|} = Json.Str "A\n\xc3\xa9");
  check_bool "surrogate pair" true
    (Json.of_string {|"😀"|} = Json.Str "\xf0\x9f\x98\x80");
  check_bool "nested" true
    (Json.of_string {|{"a":[{"b":-1.5e3},true]}|}
    = Json.Obj
        [ ("a", Json.Arr [ Json.Obj [ ("b", Json.Num (-1500.0)) ]; Json.Bool true ]) ])

let test_json_rejects_malformed () =
  let rejects s =
    match Json.of_string s with
    | _ -> Alcotest.fail ("parsed malformed input: " ^ s)
    | exception Json.Parse_error _ -> ()
  in
  rejects "[1, 2,]";
  rejects "{\"a\":1";
  rejects "\"unterminated";
  rejects "nul";
  rejects "[1] trailing";
  rejects ""

(* ------------------------------------------------------------------ *)
(* Stats coherence under concurrent workers                            *)

let nonneg (s : Stats.snapshot) =
  s.Stats.messages >= 0 && s.Stats.bytes_sent >= 0 && s.Stats.chunks_run >= 0
  && s.Stats.steals >= 0 && s.Stats.splits >= 0 && s.Stats.failed_steals >= 0
  && s.Stats.recovery_ns >= 0
  && Array.for_all
       (fun w ->
         w.Stats.w_chunks >= 0 && w.Stats.w_splits >= 0
         && w.Stats.w_steals >= 0 && w.Stats.w_failed_steals >= 0
         && w.Stats.w_busy_ns >= 0)
       s.Stats.per_worker

let test_stats_hammer () =
  let p = Pool.create ~workers:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let stop = Atomic.make false in
      let bad = Atomic.make 0 in
      (* one domain hammers reset+snapshot while the pool records *)
      let checker =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Stats.reset ();
              if not (nonneg (Stats.snapshot ())) then Atomic.incr bad
            done)
      in
      for _ = 1 to 50 do
        let sum off len =
          let acc = ref 0 in
          for i = off to off + len - 1 do
            acc := !acc + i
          done;
          !acc
        in
        (* measure must stay non-negative even with resets in flight *)
        let total, delta =
          Stats.measure (fun () ->
              Pool.parallel_range p ~lo:0 ~hi:20_000 ~f:sum ~merge:( + )
                ~init:0 ())
        in
        check_int "work correct under hammering" (20_000 * 19_999 / 2) total;
        if not (nonneg delta) then Atomic.incr bad
      done;
      Atomic.set stop true;
      Domain.join checker;
      check_int "no negative snapshot ever observed" 0 (Atomic.get bad))

(* ------------------------------------------------------------------ *)
(* Layer spans: the names a trace and the benchmarks read              *)

(* One inline cluster run and one inline darray round each record their
   layer's phases under the names [demo --trace] and the end-to-end
   benchmark aggregate. *)
let test_layer_span_names () =
  let topo = { Cluster.nodes = 2; cores_per_node = 1; backend = Cluster.Inprocess } in
  let ints = function [ Payload.Ints a ] -> a | _ -> failwith "bad payload" in
  with_tracing (fun () ->
      let sum, _ =
        Cluster.run_topology topo
          ~scatter:(fun i -> [ Payload.Ints [| i + 1 |] ])
          ~work:(fun ~node:_ ~pool:_ p -> (ints p).(0))
          ~result_codec:Triolet_base.Codec.int ~merge:( + ) ~init:0
      in
      check_int "cluster result" 3 sum;
      let s =
        Darray.create_session ~topology:topo
          ~work:(fun ~node:_ ~resident ~arg:_ -> resident)
          ()
      in
      Fun.protect
        ~finally:(fun () -> Darray.close_session s)
        (fun () ->
          let d = Darray.create s ~segments:[| [ Payload.Ints [| 1 |] ]; [ Payload.Ints [| 2 |] ] |] in
          let total, _ =
            Darray.run d ~arg:(fun _ -> []) ~merge:(fun acc r -> acc + (ints r).(0)) ~init:0
          in
          check_int "darray result" 3 total);
      let names = List.map fst (Obs.aggregates ()) in
      List.iter
        (fun name -> check_bool (name ^ " recorded") true (List.mem name names))
        [
          "cluster.serialize";
          "cluster.send";
          "cluster.compute";
          "cluster.recv";
          "cluster.merge";
          "darray.compute";
          "darray.serialize";
        ])

(* ------------------------------------------------------------------ *)
(* Recovery timing: monotonic, hence non-negative                      *)

let test_recovery_ns_nonnegative () =
  Triolet.Exec.set_ambient (Triolet.Exec.make ~nodes:(3) ~cores_per_node:(1) ());
  let n = 3000 in
  let xs = Float.Array.init n float_of_int in
  let spec =
    Fault.spec ~seed:7
      ~crash:(1, Fault.During_work)
      ~max_attempts:8 ~base_timeout:0.002 ~max_timeout:0.02 ()
  in
  Stats.reset ();
  let sum =
    Triolet.Exec.with_context (Triolet.Exec.make ~faults:(Some spec) ())
      (fun () ->
        Triolet.Iter.sum (Triolet.Iter.par (Triolet.Iter.of_floatarray xs)))
  in
  let s = Stats.snapshot () in
  Alcotest.(check (float 0.0))
    "correct result despite crash"
    (float_of_int (n * (n - 1) / 2))
    sum;
  check_bool "crash forced a retry" true (s.Stats.retries > 0);
  check_bool "recovery_ns non-negative" true (s.Stats.recovery_ns >= 0);
  check_bool "recovery took measurable time" true (s.Stats.recovery_ns > 0)

(* ------------------------------------------------------------------ *)
(* Bench-compare regression gate                                       *)

let test_bench_compare_slowdown () =
  let old_rows =
    [ { BC.name = "a"; ns_per_run = 100.0 };
      { BC.name = "b"; ns_per_run = 200.0 } ]
  in
  let scaled k =
    List.map (fun r -> { r with BC.ns_per_run = r.BC.ns_per_run *. k }) old_rows
  in
  let slowdown = BC.compare_rows old_rows (scaled 2.0) in
  check_int "2x slowdown flags every row" 2
    (List.length slowdown.BC.regressions);
  check_int "identical rows pass" 0
    (List.length (BC.compare_rows old_rows old_rows).BC.regressions);
  check_int "speedups are not regressions" 0
    (List.length (BC.compare_rows old_rows (scaled 0.5)).BC.regressions);
  check_int "exactly-at-threshold passes" 0
    (List.length (BC.compare_rows old_rows (scaled 1.15)).BC.regressions);
  check_int "custom threshold applies" 2
    (List.length
       (BC.compare_rows ~threshold:0.05 old_rows (scaled 1.10)).BC.regressions)

(* Rows with no usable baseline are "added", never regressions and
   never a failure: a brand-new bench family's first run under
   [bench --compare] must pass while still being visible in the
   report.  A non-positive baseline value (a zeroed or botched old
   row) counts as no-baseline too — no ratio can be formed from it. *)
let test_bench_compare_added_rows () =
  let old_rows =
    [ { BC.name = "a"; ns_per_run = 100.0 };
      { BC.name = "zeroed"; ns_per_run = 0.0 };
      { BC.name = "negative"; ns_per_run = -5.0 } ]
  in
  let new_rows =
    [ { BC.name = "a"; ns_per_run = 100.0 };
      { BC.name = "zeroed"; ns_per_run = 50.0 };
      { BC.name = "negative"; ns_per_run = 50.0 };
      { BC.name = "brand-new"; ns_per_run = 1.0 } ]
  in
  let r = BC.compare_rows old_rows new_rows in
  check_int "only the usable baseline row is compared" 1
    (List.length r.BC.deltas);
  check_int "added rows are never regressions" 0
    (List.length r.BC.regressions);
  Alcotest.(check (list string))
    "absent and non-positive baselines all land in only_new"
    [ "zeroed"; "negative"; "brand-new" ]
    r.BC.only_new;
  check_int "nothing dropped from old" 0 (List.length r.BC.only_old)

let test_bench_compare_json_shapes () =
  let family =
    {|{"family":"dot","wall_ns":1,"rows":[{"name":"a","ns_per_run":100.0},{"name":"c","ns_per_run":5.0}]}|}
  in
  let legacy = {|[{"name":"a","ns_per_run":250.0},{"name":"d","ns_per_run":1}]|} in
  let old_rows = BC.rows_of_json (Json.of_string family) in
  let new_rows = BC.rows_of_json (Json.of_string legacy) in
  check_int "family-file rows parsed" 2 (List.length old_rows);
  check_int "legacy-array rows parsed" 2 (List.length new_rows);
  let r = BC.compare_rows old_rows new_rows in
  check_int "matched rows compared" 1 (List.length r.BC.deltas);
  check_int "2.5x slowdown caught across formats" 1
    (List.length r.BC.regressions);
  check_bool "unmatched rows reported, not regressions" true
    (r.BC.only_old = [ "c" ] && r.BC.only_new = [ "d" ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic never decreases" `Quick
            test_monotonic_nondecreasing;
          Alcotest.test_case "duration non-negative" `Quick
            test_duration_nonnegative;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled passthrough" `Quick
            test_span_disabled_passthrough;
          Alcotest.test_case "nesting and ordering" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "instants" `Quick test_instants;
          Alcotest.test_case "multi-domain tids" `Quick test_multi_domain_events;
          Alcotest.test_case "wraparound drops oldest" `Quick
            test_wraparound_drops_oldest;
        ] );
      ( "trace-json",
        [
          Alcotest.test_case "trace round-trips through parser" `Quick
            test_trace_json_roundtrip;
        ] );
      ( "layer-spans",
        [ Alcotest.test_case "cluster and darray phase names" `Quick test_layer_span_names ] );
      ( "json",
        [
          Alcotest.test_case "print/parse roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "standard forms" `Quick
            test_json_parses_standard_forms;
          Alcotest.test_case "malformed input rejected" `Quick
            test_json_rejects_malformed;
        ] );
      ( "stats",
        [
          Alcotest.test_case "snapshot/reset hammer" `Quick test_stats_hammer;
          Alcotest.test_case "recovery_ns non-negative" `Quick
            test_recovery_ns_nonnegative;
        ] );
      ( "bench-compare",
        [
          Alcotest.test_case "synthetic slowdowns gate" `Quick
            test_bench_compare_slowdown;
          Alcotest.test_case "added rows are not failures" `Quick
            test_bench_compare_added_rows;
          Alcotest.test_case "both file shapes" `Quick
            test_bench_compare_json_shapes;
        ] );
    ]
