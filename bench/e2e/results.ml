(* Metric records, the results file written by [main.exe --out], and the
   metric declarations of BENCHMARK.json.  Shared by the benchmark, the
   compare tool and the benchmark's own test. *)

module Json = Triolet_obs.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;  (** the statistic over the whole measured window *)
  q1 : float;  (** quartiles of the same statistic over window blocks *)
  q3 : float;
  n : int;  (** samples behind [value] *)
}

type workload = {
  workload : string;
  attempted : int;
  failed : int;  (** wrong results + errors + refusals *)
  correct : bool;
  metrics : metric list;
}

let fail_frac w = float_of_int w.failed /. float_of_int (max 1 w.attempted)
let find w name = List.find_opt (fun m -> m.name = name) w.metrics

(* Relative quartile spread; 0 when the metric is exact. *)
let spread m =
  if m.value = 0.0 then 0.0 else Float.abs (m.q3 -. m.q1) /. Float.abs m.value

let num x = Json.Num x
let int n = Json.Num (float_of_int n)

let metric_to_json m =
  Json.Obj
    [
      ("name", Json.Str m.name); ("unit", Json.Str m.unit_);
      ("median", num m.value); ("q1", num m.q1); ("q3", num m.q3); ("n", int m.n);
    ]

let workload_to_json w =
  Json.Obj
    [
      ("workload", Json.Str w.workload); ("attempted", int w.attempted);
      ("failed", int w.failed); ("fail_frac", num (fail_frac w));
      ("correct", Json.Bool w.correct);
      ("metrics", Json.Arr (List.map metric_to_json w.metrics));
    ]

let write path ~seed ~seconds ws =
  Json.to_file path
    (Json.Obj
       [
         ("seed", int seed); ("seconds", num seconds);
         ("workloads", Json.Arr (List.map workload_to_json ws));
       ])

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing or ill-typed field %S" name)

let float_field name j =
  (* Non-finite numbers serialize as null. *)
  match Json.member name j with
  | Some Json.Null -> nan
  | _ -> field name Json.to_float_opt j

let metric_of_json j =
  {
    name = field "name" Json.to_string_opt j;
    unit_ = field "unit" Json.to_string_opt j;
    value = float_field "median" j;
    q1 = float_field "q1" j;
    q3 = float_field "q3" j;
    n = int_of_float (float_field "n" j);
  }

let workload_of_json j =
  {
    workload = field "workload" Json.to_string_opt j;
    attempted = int_of_float (float_field "attempted" j);
    failed = int_of_float (float_field "failed" j);
    correct = (match Json.member "correct" j with Some (Json.Bool b) -> b | _ -> false);
    metrics = List.map metric_of_json (Json.to_list (field "metrics" Option.some j));
  }

let read path =
  List.map workload_of_json
    (Json.to_list (field "workloads" Option.some (Json.of_file path)))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json: the metrics the benchmark promises, with units,
   directions and (for end-to-end metrics) regression bounds. *)

type decl = {
  d_name : string;
  d_unit : string;
  higher_is_better : bool;
  bound : float option;  (** [None] for per-layer metrics: reported, not gated *)
}

type spec = { workloads : string list; end_to_end : decl list; per_layer : decl list }

let decl_of_json j =
  {
    d_name = field "name" Json.to_string_opt j;
    d_unit = field "unit" Json.to_string_opt j;
    higher_is_better =
      (match field "better" Json.to_string_opt j with
      | "higher" -> true
      | "lower" -> false
      | s -> failwith (Printf.sprintf "better must be higher or lower, not %S" s));
    bound = Option.bind (Json.member "bound" j) Json.to_float_opt;
  }

let read_spec path =
  let j = Json.of_file path in
  let decls key = List.map decl_of_json (Json.to_list (field key Option.some j)) in
  {
    workloads =
      List.map (field "name" Json.to_string_opt)
        (Json.to_list (field "workloads" Option.some j));
    end_to_end = decls "end_to_end";
    per_layer = decls "per_layer";
  }
