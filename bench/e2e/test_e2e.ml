(* The benchmark's own test: test_e2e.exe BENCHMARK.json

   A short --all run (0.4 s windows) must report every metric
   BENCHMARK.json declares for every workload it lists, finite and in
   the declared unit.  compare.exe must pass a results file against
   itself, and fail when speedup_vs_c halves (the Triolet side taking
   twice as long), when fail_frac rises from 0 to 0.01, and when HEAD
   lacks a workload or a gated metric. *)

module R = Results

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

(* Children's output goes to a log beside the test, kept for failures. *)
let log = "e2e-test.log"

let run args = Sys.command (String.concat " " (List.map Filename.quote args) ^ " >> " ^ log ^ " 2>&1")

let compare_exit base head spec = run [ "./compare.exe"; base; head; "--spec"; spec ]

(* Rewrite one workload of a results file. *)
let with_workload ws name f = List.map (fun (w : R.workload) -> if w.workload = name then f w else w) ws

let with_metric name f (w : R.workload) =
  { w with metrics = List.map (fun (m : R.metric) -> if m.name = name then f m else m) w.metrics }

let () =
  let spec_path = Sys.argv.(1) in
  let spec = R.read_spec spec_path in
  let out = "e2e-test.json" in
  if Sys.file_exists log then Sys.remove log;
  let code =
    run
      [ "./main.exe"; "--all"; "--seed"; "7"; "--seconds"; "0.4"; "--out"; out;
        "--spec"; spec_path; "--trace-dir"; "." ]
  in
  check "main.exe --all exits 0" (code = 0);
  let ws = R.read out in
  List.iter
    (fun name ->
      match List.find_opt (fun (w : R.workload) -> w.workload = name) ws with
      | None -> check (name ^ " reported") false
      | Some w ->
          check (name ^ " attempted >= 1") (w.attempted >= 1);
          List.iter
            (fun (d : R.decl) ->
              match R.find w d.d_name with
              | None -> check (Printf.sprintf "%s reports %s" name d.d_name) false
              | Some m ->
                  check (Printf.sprintf "%s %s finite" name d.d_name) (Float.is_finite m.value);
                  check
                    (Printf.sprintf "%s %s in %s (got %s)" name d.d_name d.d_unit m.unit_)
                    (m.unit_ = d.d_unit))
            (spec.end_to_end @ spec.per_layer))
    spec.workloads;
  check "compare: a file against itself exits 0" (compare_exit out out spec_path = 0);
  (* Synthetic pairs: spreads zeroed so the verdict cannot be unresolved. *)
  let exact (m : R.metric) = { m with q1 = m.value; q3 = m.value } in
  let base = "e2e-test-base.json" and head = "e2e-test-head.json" in
  let write f ws = R.write f ~seed:7 ~seconds:0.0 ws in
  let gated = "speedup_vs_c" and wl = "kernels-inproc" in
  write base (with_workload ws wl (with_metric gated exact));
  write head
    (with_workload ws wl (with_metric gated (fun m -> exact { m with value = m.value /. 2.0 })));
  check "compare: halved speedup_vs_c exits 1" (compare_exit base head spec_path = 1);
  let attempts failed (w : R.workload) = { w with attempted = 100; failed } in
  write base (with_workload ws wl (attempts 0));
  write head (with_workload ws wl (attempts 1));
  check "compare: fail_frac 0 -> 0.01 exits 1" (compare_exit base head spec_path = 1);
  write base ws;
  write head (List.filter (fun (w : R.workload) -> w.workload <> wl) ws);
  check "compare: a workload missing from HEAD exits 1" (compare_exit base head spec_path = 1);
  write head
    (with_workload ws wl (fun w ->
         { w with metrics = List.filter (fun (m : R.metric) -> m.name <> gated) w.metrics }));
  check "compare: a gated metric missing from HEAD exits 1" (compare_exit base head spec_path = 1);
  if !failures > 0 then begin
    Printf.printf "%d benchmark checks failed; output in %s\n" !failures (Filename.concat (Sys.getcwd ()) log);
    exit 1
  end;
  print_endline "e2e benchmark checks passed"
