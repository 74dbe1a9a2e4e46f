(* Auto-mapper tests: MAPPINGS.json round-tripping through the Json
   printer/parser, schema-version mismatch handling (warn-and-ignore,
   never an error), runtime lookup precedence in Exec.for_kernel, loud
   rejection of unknown TRIOLET_BACKEND values, search determinism,
   and registry/mapping drift detection (`autotune --check`). *)

module Mapping = Triolet.Mapping
module Exec = Triolet.Exec
module Cluster = Triolet_runtime.Cluster
module Json = Triolet_obs.Json
module Kernel = Triolet_kernels.Kernel
module Models = Triolet_kernels.Models
module App = Triolet_sim.App_model
module Tune = Triolet_tune.Tune

(* A stray backend or mapping file in the environment would perturb
   every precedence test below; start from a clean slate. *)
let () = Unix.putenv "TRIOLET_BACKEND" ""
let () = Unix.putenv "TRIOLET_MAPPINGS" ""
let () = Mapping.reload ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_env var value f =
  let old = try Some (Sys.getenv var) with Not_found -> None in
  Unix.putenv var value;
  Mapping.reload ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (match old with Some v -> v | None -> "");
      Mapping.reload ())
    f

let sample_entry =
  {
    Mapping.kernel = "mri-q";
    size = "tiny";
    nodes = 3;
    cores_per_node = 2;
    backend = "flat";
    grain = Some 64;
    predicted_s = 0.125;
    cluster_s = 0.0625;
    seq_s = 0.5;
    measured_s = Some 0.13;
    delta = Some 0.04;
  }

let sample_file =
  {
    Mapping.version = Mapping.schema_version;
    objective = "host";
    host_cores = 4;
    rates = [ ("mriq_pair_s", 1e-8); ("sgemm_mac_s", 2e-9) ];
    entries =
      [
        sample_entry;
        { sample_entry with Mapping.kernel = "sgemm"; grain = None;
          measured_s = None; delta = None };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Mapping file round-trip                                             *)

let test_json_round_trip () =
  match Mapping.of_json (Json.of_string (Json.to_string (Mapping.to_json sample_file))) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok f ->
      check_bool "identical after print/parse round trip" true
        (f = sample_file)

let test_save_load_round_trip () =
  let path = Filename.temp_file "triolet_mappings" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mapping.save path sample_file;
      match Mapping.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok f -> check_bool "identical after save/load" true (f = sample_file))

let test_lookup () =
  check_bool "hit" true
    (Mapping.lookup sample_file ~kernel:"mri-q" ~size:"tiny" = Some sample_entry);
  check_bool "size miss" true
    (Mapping.lookup sample_file ~kernel:"mri-q" ~size:"paper" = None);
  check_bool "kernel miss" true
    (Mapping.lookup sample_file ~kernel:"cutcp" ~size:"tiny" = None)

let test_schema_mismatch_is_error () =
  let bad = { sample_file with Mapping.version = Mapping.schema_version + 7 } in
  (match Mapping.of_json (Mapping.to_json bad) with
  | Ok _ -> Alcotest.fail "schema mismatch must not parse"
  | Error msg ->
      check_bool "message names the schema version" true
        (let re = Str.regexp_string "schema version" in
         try ignore (Str.search_forward re msg 0); true
         with Not_found -> false));
  (* Malformed entries are rejected with the offending field named. *)
  match
    Mapping.of_json
      (Mapping.to_json
         { sample_file with
           Mapping.entries = [ { sample_entry with Mapping.nodes = 0 } ] })
  with
  | Ok _ -> Alcotest.fail "non-positive nodes must not parse"
  | Error msg ->
      check_bool "message names the field" true
        (let re = Str.regexp_string "nodes" in
         try ignore (Str.search_forward re msg 0); true
         with Not_found -> false)

(* A stale (schema-mismatched) checked-in file must degrade to "no
   mapping" — a warning, never an exception. *)
let test_stale_file_ignored () =
  let path = Filename.temp_file "triolet_mappings" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.to_file path
        (Mapping.to_json
           { sample_file with Mapping.version = Mapping.schema_version + 1 });
      with_env "TRIOLET_MAPPINGS" path (fun () ->
          check_bool "stale file reads as absent" true (Mapping.loaded () = None));
      (* Unparseable likewise. *)
      let oc = open_out path in
      output_string oc "{ not json";
      close_out oc;
      with_env "TRIOLET_MAPPINGS" path (fun () ->
          check_bool "garbage file reads as absent" true (Mapping.loaded () = None)))

let test_empty_env_disables () =
  with_env "TRIOLET_MAPPINGS" "" (fun () ->
      check_bool "empty TRIOLET_MAPPINGS disables lookup" true
        (Mapping.default_path () = None))

(* ------------------------------------------------------------------ *)
(* Runtime precedence: ?ctx > explicit ambient > env > mapping > default *)

let test_for_kernel_precedence () =
  let path = Filename.temp_file "triolet_mappings" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mapping.save path sample_file;
      with_env "TRIOLET_MAPPINGS" path (fun () ->
          (* Mapping entry applies when nothing else is installed. *)
          let c = Exec.for_kernel ~kernel:"mri-q" ~size:"tiny" () in
          check_int "mapping nodes" 3 c.Exec.nodes;
          check_int "mapping cores" 2 c.Exec.cores_per_node;
          check_bool "mapping backend" true (c.Exec.backend = Cluster.Flat);
          check_bool "mapping grain" true (c.Exec.grain = Some 64);
          (* No entry for this (kernel, size): current context. *)
          let d = Exec.for_kernel ~kernel:"mri-q" ~size:"paper" () in
          check_int "miss falls back to current" (Exec.current ()).Exec.nodes
            d.Exec.nodes;
          (* ?ctx beats the mapping. *)
          let e =
            Exec.for_kernel ~ctx:(Exec.make ~nodes:9 ()) ~kernel:"mri-q"
              ~size:"tiny" ()
          in
          check_int "?ctx wins" 9 e.Exec.nodes;
          (* An explicitly installed ambient context beats the mapping. *)
          Exec.with_context (Exec.make ~nodes:7 ~cores_per_node:1 ())
            (fun () ->
              let f = Exec.for_kernel ~kernel:"mri-q" ~size:"tiny" () in
              check_int "explicit ambient wins" 7 f.Exec.nodes);
          (* TRIOLET_BACKEND beats the mapping's backend field but not
             its geometry. *)
          Unix.putenv "TRIOLET_BACKEND" "inprocess";
          Fun.protect
            ~finally:(fun () -> Unix.putenv "TRIOLET_BACKEND" "")
            (fun () ->
              let g = Exec.for_kernel ~kernel:"mri-q" ~size:"tiny" () in
              check_int "env keeps mapping geometry" 3 g.Exec.nodes;
              check_bool "env overrides mapping backend" true
                (g.Exec.backend = Cluster.Inprocess))))

let test_unknown_backend_rejected () =
  Unix.putenv "TRIOLET_BACKEND" "opencl";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "TRIOLET_BACKEND" "")
    (fun () ->
      match Exec.default () with
      | _ -> Alcotest.fail "unknown TRIOLET_BACKEND must raise"
      | exception Invalid_argument msg ->
          check_string "error lists the valid values"
            "TRIOLET_BACKEND=\"opencl\" is not a known backend (valid \
             values: inprocess, flat, process)"
            msg)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

let default_rates_assoc = Tune.rates_to_assoc Models.default_rates

let cand_key (s : Tune.score) =
  ( s.Tune.cand.Tune.nodes,
    s.Tune.cand.Tune.cores_per_node,
    s.Tune.cand.Tune.grain,
    Cluster.backend_to_string s.Tune.cand.Tune.backend )

let test_search_deterministic () =
  let app = Models.mriq_model_sized ~voxels:4096 ~samples:1024 () in
  let r1 = Tune.search ~objective:Tune.Host ~host_cores:4 ~app () in
  let r2 = Tune.search ~objective:Tune.Host ~host_cores:4 ~app () in
  check_int "full lattice scored"
    (List.length (Tune.default_lattice ()))
    (List.length r1);
  check_bool "identical ranking and scores" true
    (List.map (fun s -> (cand_key s, s.Tune.host_s, s.Tune.cluster_s)) r1
    = List.map (fun s -> (cand_key s, s.Tune.host_s, s.Tune.cluster_s)) r2);
  (* Ranking is actually sorted by the objective. *)
  let rec sorted = function
    | a :: (b :: _ as tl) -> a.Tune.host_s <= b.Tune.host_s && sorted tl
    | _ -> true
  in
  check_bool "best-first" true (sorted r1)

let test_lattice_size () =
  check_int "nodes x cores x grain x backend" 108
    (List.length (Tune.default_lattice ()))

let test_score_finite_on_host_lattice () =
  let app = Models.sgemm_model_sized ~m:256 ~k:256 ~n:256 () in
  List.iter
    (fun c ->
      let s = Tune.score ~host_cores:4 ~app c in
      check_bool "host projection is finite" true (Float.is_finite s.Tune.host_s))
    (Tune.default_lattice ())

(* ------------------------------------------------------------------ *)
(* Drift checking                                                      *)

(* A consistent file built the same way `autotune` builds one, except
   the "measured" sequential time is taken from the uncalibrated model
   so nothing here depends on wall clocks. *)
let synthetic_file () =
  let host_cores = Tune.default_host_cores () in
  let rates = Models.default_rates in
  let entries =
    List.map
      (fun (module K : Kernel.S) ->
        let inst = K.instance ~size:K.default_size () in
        let app0 = inst.Kernel.model ~rates () in
        let seq_s = App.sequential_time app0 in
        let app = Tune.calibrate app0 ~measured_seq:seq_s in
        match Tune.search ~objective:Tune.Host ~host_cores ~app () with
        | [] -> Alcotest.fail "empty lattice"
        | best :: _ ->
            {
              Mapping.kernel = K.name;
              size = K.default_size;
              nodes = best.Tune.cand.Tune.nodes;
              cores_per_node = best.Tune.cand.Tune.cores_per_node;
              backend =
                Cluster.backend_to_string best.Tune.cand.Tune.backend;
              grain = best.Tune.cand.Tune.grain;
              predicted_s = best.Tune.host_s;
              cluster_s = best.Tune.cluster_s;
              seq_s;
              measured_s = None;
              delta = None;
            })
      (Kernel.all ())
  in
  {
    Mapping.version = Mapping.schema_version;
    objective = "host";
    host_cores;
    rates = default_rates_assoc;
    entries;
  }

let drift_mentions needle = function
  | Tune.Check_ok -> false
  | Tune.Check_drift issues ->
      List.exists
        (fun i ->
          try
            ignore (Str.search_forward (Str.regexp_string needle) i 0);
            true
          with Not_found -> false)
        issues

let test_check_ok () =
  match Tune.check (synthetic_file ()) with
  | Tune.Check_ok -> ()
  | Tune.Check_drift issues ->
      Alcotest.failf "expected ok, got drift:\n%s" (String.concat "\n" issues)

let test_check_detects_drift () =
  let file = synthetic_file () in
  (* Unregistered kernel in an entry. *)
  let bad_kernel =
    { file with
      Mapping.entries =
        List.map
          (fun e ->
            if e.Mapping.kernel = "sgemm" then
              { e with Mapping.kernel = "spmv" }
            else e)
          file.Mapping.entries }
  in
  check_bool "unknown kernel is drift" true
    (drift_mentions "not registered" (Tune.check bad_kernel));
  check_bool "unknown kernel also breaks coverage" true
    (drift_mentions "no entry" (Tune.check bad_kernel));
  (* Recorded context that left the lattice. *)
  let off_lattice =
    { file with
      Mapping.entries =
        List.map
          (fun e ->
            if e.Mapping.kernel = "mri-q" then { e with Mapping.nodes = 5 }
            else e)
          file.Mapping.entries }
  in
  check_bool "off-lattice context is drift" true
    (drift_mentions "no longer in the search lattice" (Tune.check off_lattice));
  (* Prediction that no longer matches the model. *)
  let moved =
    { file with
      Mapping.entries =
        List.map
          (fun e ->
            if e.Mapping.kernel = "cutcp" then
              { e with Mapping.predicted_s = e.Mapping.predicted_s *. 3.0 }
            else e)
          file.Mapping.entries }
  in
  check_bool "re-score mismatch is drift" true
    (drift_mentions "cost model moved" (Tune.check moved));
  (* Missing kernel coverage. *)
  let uncovered =
    { file with
      Mapping.entries =
        List.filter
          (fun e -> e.Mapping.kernel <> "tpacf")
          file.Mapping.entries }
  in
  check_bool "missing kernel is drift" true
    (drift_mentions "tpacf has no entry" (Tune.check uncovered));
  (* Unknown objective string. *)
  check_bool "unknown objective is drift" true
    (drift_mentions "unknown objective"
       (Tune.check { file with Mapping.objective = "gpu" }))

(* The checked-in tune/MAPPINGS.json passes [check] with no
   re-measurement, and each entry re-scores to exactly the host
   prediction the cost model gave it when the file was written, so a
   scoring change that moves a checked-in prediction shows here. *)
let checked_in_rescores =
  [
    ("mri-q", 0x1.8ce21b23d909cp-4);
    ("sgemm", 0x1.9ccd2ce65f698p-6);
    ("tpacf", 0x1.bd45f820a7599p-4);
    ("cutcp", 0x1.22f85ee5ad5d4p-4);
  ]

let test_checked_in_file () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../tune/MAPPINGS.json"
  in
  match Mapping.load path with
  | Error e -> Alcotest.failf "tune/MAPPINGS.json unreadable: %s" e
  | Ok file ->
      (match Tune.check file with
      | Tune.Check_ok -> ()
      | Tune.Check_drift issues ->
          Alcotest.failf "expected ok, got drift:\n%s" (String.concat "\n" issues));
      check_int "one entry per kernel" (List.length checked_in_rescores)
        (List.length file.Mapping.entries);
      let rates = Tune.rates_of_assoc file.Mapping.rates in
      List.iter
        (fun (e : Mapping.entry) ->
          let (module K : Kernel.S) = Option.get (Kernel.find e.Mapping.kernel) in
          let inst = K.instance ~size:e.Mapping.size () in
          let app =
            Tune.calibrate (inst.Kernel.model ~rates ())
              ~measured_seq:e.Mapping.seq_s
          in
          let cand =
            {
              Tune.nodes = e.Mapping.nodes;
              cores_per_node = e.Mapping.cores_per_node;
              grain = e.Mapping.grain;
              backend = Option.get (Cluster.backend_of_string e.Mapping.backend);
            }
          in
          let s = Tune.score ~host_cores:file.Mapping.host_cores ~app cand in
          Alcotest.(check (float 0.0))
            (e.Mapping.kernel ^ " re-scores as pinned")
            (List.assoc e.Mapping.kernel checked_in_rescores)
            s.Tune.host_s)
        file.Mapping.entries

(* ------------------------------------------------------------------ *)
(* Registry consistency                                                *)

(* Runtime lookup classifies by work units; it only hits the tuned
   entries if every instance's work_units maps back to the size class
   it was built from. *)
let test_size_taxonomy_agrees () =
  List.iter
    (fun (module K : Kernel.S) ->
      List.iter
        (fun size ->
          let inst = K.instance ~size () in
          check_string
            (Printf.sprintf "%s/%s work units classify back" K.name size)
            size
            (Mapping.size_class_of_work inst.Kernel.work_units))
        K.size_classes)
    (Kernel.all ())

let test_registry_names () =
  check_bool "all four paper kernels registered" true
    (List.sort compare (Kernel.names ())
    = [ "cutcp"; "mri-q"; "sgemm"; "tpacf" ]);
  check_bool "find hits" true (Kernel.find "tpacf" <> None);
  check_bool "find misses" true (Kernel.find "spmv" = None)

let () =
  Alcotest.run "tune"
    [
      ( "mapping",
        [
          Alcotest.test_case "json round trip" `Quick test_json_round_trip;
          Alcotest.test_case "save/load round trip" `Quick
            test_save_load_round_trip;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "schema mismatch is an error" `Quick
            test_schema_mismatch_is_error;
          Alcotest.test_case "stale file warn-and-ignore" `Quick
            test_stale_file_ignored;
          Alcotest.test_case "empty env disables" `Quick
            test_empty_env_disables;
        ] );
      ( "precedence",
        [
          Alcotest.test_case "ctx > ambient > env > mapping" `Quick
            test_for_kernel_precedence;
          Alcotest.test_case "unknown TRIOLET_BACKEND fails loudly" `Quick
            test_unknown_backend_rejected;
        ] );
      ( "search",
        [
          Alcotest.test_case "deterministic ranking" `Quick
            test_search_deterministic;
          Alcotest.test_case "lattice size" `Quick test_lattice_size;
          Alcotest.test_case "finite host scores" `Quick
            test_score_finite_on_host_lattice;
        ] );
      ( "check",
        [
          Alcotest.test_case "consistent file passes" `Quick test_check_ok;
          Alcotest.test_case "drift detected" `Quick test_check_detects_drift;
          Alcotest.test_case "checked-in file" `Quick test_checked_in_file;
        ] );
      ( "registry",
        [
          Alcotest.test_case "size taxonomy agrees" `Quick
            test_size_taxonomy_agrees;
          Alcotest.test_case "names" `Quick test_registry_names;
        ] );
    ]
