(** Comparison of two bench result files for the regression gate.

    [triolet bench --compare old.json new.json] loads two files written
    by the bench harness (per-family [BENCH_<family>.json] objects with
    a ["rows"] array, or a legacy top-level array of row objects),
    matches rows by name, and flags every row whose [ns_per_run] grew by
    more than the threshold.  A baseline row carrying a ["max"] field is
    gated against that limit as it stands instead: a row pinned where a
    target sits below pin + threshold.  Rows present in only one file
    are reported but are not regressions — families and benchmarks come
    and go. *)

module Json = Triolet_obs.Json

type row = { name : string; ns_per_run : float }

type delta = {
  d_name : string;
  old_ns : float;
  new_ns : float;
  ratio : float;  (** new / old; > 1.0 is a slowdown *)
  limit : float option;  (** the baseline row's ["max"], gated as it stands *)
}

type report = {
  deltas : delta list;  (** rows present in both files, by name *)
  only_old : string list;
  only_new : string list;
      (** rows with no usable baseline — absent from the old file, or
          matched against a non-positive old value.  Reported as
          "added", never a regression and never a failure: a new bench
          family's first run always lands here. *)
  regressions : delta list;
      (** deltas above their limit, or without one, with
          ratio > 1 + threshold *)
}

let row_of_json j =
  let field f conv = Option.bind (Json.member f j) conv in
  match (field "name" Json.to_string_opt, field "ns_per_run" Json.to_float_opt)
  with
  | Some name, Some ns_per_run -> Some { name; ns_per_run }
  | _ -> None

(* Accept either shape: {"family":..,"rows":[...]} or a bare [...]
   array of rows. *)
let row_objects j =
  match j with
  | Json.Arr _ -> Json.to_list j
  | Json.Obj _ -> (
      match Json.member "rows" j with
      | Some (Json.Arr _ as rows) -> Json.to_list rows
      | _ -> [])
  | _ -> []

let rows_of_json j = List.filter_map row_of_json (row_objects j)

let load_rows path = rows_of_json (Json.of_file path)

(* The rows that carry a ["max"], and that limit. *)
let limits_of_json j =
  List.filter_map
    (fun r ->
      let field f conv = Option.bind (Json.member f r) conv in
      match (field "name" Json.to_string_opt, field "max" Json.to_float_opt) with
      | Some name, Some max -> Some (name, max)
      | _ -> None)
    (row_objects j)

let regressed ~threshold d =
  match d.limit with Some max -> d.new_ns > max | None -> d.ratio > 1.0 +. threshold

let compare_rows ?(threshold = 0.15) ?(limits = []) old_rows new_rows =
  let find rows n = List.find_opt (fun r -> r.name = n) rows in
  let deltas =
    List.filter_map
      (fun o ->
        match find new_rows o.name with
        | Some n when o.ns_per_run > 0.0 ->
            Some
              {
                d_name = o.name;
                old_ns = o.ns_per_run;
                new_ns = n.ns_per_run;
                ratio = n.ns_per_run /. o.ns_per_run;
                limit = List.assoc_opt o.name limits;
              }
        | _ -> None)
      old_rows
  in
  let only_in a b =
    List.filter_map
      (fun r -> if find b r.name = None then Some r.name else None)
      a
  in
  (* A new row whose baseline is absent — or present but non-positive,
     so no ratio can be formed — is "added", not an error. *)
  let added =
    List.filter_map
      (fun r ->
        match find old_rows r.name with
        | None -> Some r.name
        | Some o when o.ns_per_run <= 0.0 -> Some r.name
        | Some _ -> None)
      new_rows
  in
  {
    deltas;
    only_old = only_in old_rows new_rows;
    only_new = added;
    regressions = List.filter (regressed ~threshold) deltas;
  }

let compare_files ?threshold old_path new_path =
  let old_json = Json.of_file old_path in
  compare_rows ?threshold ~limits:(limits_of_json old_json) (rows_of_json old_json)
    (load_rows new_path)

let pp_report ?(threshold = 0.15) ppf r =
  let pct d = (d.ratio -. 1.0) *. 100.0 in
  Format.fprintf ppf "%-32s %12s %12s %8s@."
    "benchmark" "old ns/run" "new ns/run" "delta";
  List.iter
    (fun d ->
      Format.fprintf ppf "%-32s %12.1f %12.1f %+7.1f%%%s%s@."
        d.d_name d.old_ns d.new_ns (pct d)
        (match d.limit with Some max -> Printf.sprintf "  (max %g)" max | None -> "")
        (if regressed ~threshold d then "  REGRESSION" else ""))
    r.deltas;
  List.iter
    (fun n -> Format.fprintf ppf "%-32s (only in old file)@." n)
    r.only_old;
  List.iter
    (fun n -> Format.fprintf ppf "%-32s (added — no baseline row)@." n)
    r.only_new;
  if r.regressions = [] then
    Format.fprintf ppf "no regressions beyond %.0f%% or a row's max@."
      (threshold *. 100.0)
  else
    Format.fprintf ppf "%d regression(s) beyond %.0f%% or a row's max@."
      (List.length r.regressions)
      (threshold *. 100.0)
