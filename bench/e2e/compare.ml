(* compare.exe BASE.json HEAD.json [--spec BENCHMARK.json]

   Compares two results files written by [main.exe --all --out] (or
   [--workload ... --out]).  Bounds and directions come from
   BENCHMARK.json: each metric of each BENCHMARK.json workload in BASE
   gets one row.

     ok          within its bound
     better      improved by more than its bound
     REGRESSION  worse by more than its bound, or missing or non-finite
                 in HEAD
     unresolved  either side's quartile spread exceeds the bound, so the
                 difference cannot be told from noise

   A rise in fail_frac is always a regression, and so is a workload BASE
   has and HEAD lacks.  Per-layer and detail metrics are printed as
   "info" rows and never gate.  Exit 0 when nothing regressed, 1 on a
   regression, 2 on bad arguments or an unreadable file. *)

module R = Results

let usage = "usage: compare.exe BASE.json HEAD.json [--spec BENCHMARK.json]\n"

let argv_error msg =
  prerr_string ("compare: " ^ msg ^ "\n" ^ usage);
  exit 2

(* [head] is [None] when HEAD lacks the workload or the metric. *)
type row = { workload : string; metric : string; base : float; head : float option; verdict : string }

(* Signed worsening: positive when head is worse than base. *)
let worsening ~higher_is_better base head =
  let d = (head -. base) /. Float.abs base in
  if higher_is_better then -.d else d

let verdict (d : R.decl) (b : R.metric) (h : R.metric) =
  match d.bound with
  | None -> "info"
  | Some _ when not (Float.is_finite h.value) -> "REGRESSION"
  | Some bound ->
      if R.spread b > bound || R.spread h > bound then "unresolved"
      else
        let w = worsening ~higher_is_better:d.higher_is_better b.value h.value in
        if w > bound then "REGRESSION" else if w < -.bound then "better" else "ok"

let rows (spec : R.spec) base head =
  let decl name = List.find_opt (fun (d : R.decl) -> d.d_name = name) (spec.end_to_end @ spec.per_layer) in
  List.concat_map
    (fun (bw : R.workload) ->
      let hw = List.find_opt (fun (w : R.workload) -> w.workload = bw.workload) head in
      let row metric base head verdict = { workload = bw.workload; metric; base; head; verdict } in
      let fail =
        let b = R.fail_frac bw in
        match hw with
        | None -> row "fail_frac" b None "REGRESSION"
        | Some hw ->
            let h = R.fail_frac hw in
            row "fail_frac" b (Some h) (if h > b then "REGRESSION" else "ok")
      in
      fail
      :: List.filter_map
           (fun (b : R.metric) ->
             match (Option.bind hw (fun hw -> R.find hw b.name), decl b.name) with
             | Some h, Some d -> Some (row b.name b.value (Some h.value) (verdict d b h))
             | Some h, None -> Some (row b.name b.value (Some h.value) "info")
             | None, Some { bound = Some _; _ } -> Some (row b.name b.value None "REGRESSION")
             | None, _ -> None)
           bw.metrics)
    (List.filter (fun (w : R.workload) -> List.mem w.workload spec.workloads) base)

let () =
  let files, spec =
    let rec go files spec = function
      | [] -> (List.rev files, spec)
      | "--spec" :: f :: tl -> go files f tl
      | a :: _ when String.length a > 0 && a.[0] = '-' -> argv_error (Printf.sprintf "unknown argument %S" a)
      | f :: tl -> go (f :: files) spec tl
    in
    go [] "BENCHMARK.json" (List.tl (Array.to_list Sys.argv))
  in
  let base, head =
    match files with [ b; h ] -> (b, h) | _ -> argv_error "expected two results files"
  in
  let load what f =
    try what f with e -> Printf.eprintf "compare: cannot read %s: %s\n" f (Printexc.to_string e); exit 2
  in
  let spec = load R.read_spec spec in
  let rows = rows spec (load R.read base) (load R.read head) in
  Printf.printf "%-16s %-32s %14s %14s %8s  %s\n" "workload" "metric" "base" "head" "change" "verdict";
  List.iter
    (fun r ->
      let head, change =
        match r.head with
        | None -> ("missing", "")
        | Some h ->
            let change = if r.base = 0.0 then 0.0 else 100.0 *. (h -. r.base) /. Float.abs r.base in
            (Printf.sprintf "%.6g" h, Printf.sprintf "%+.1f%%" change)
      in
      Printf.printf "%-16s %-32s %14.6g %14s %8s  %s\n" r.workload r.metric r.base head change r.verdict)
    rows;
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  Printf.printf "%d regressions, %d unresolved, %d better\n" (count "REGRESSION") (count "unresolved")
    (count "better");
  if count "REGRESSION" > 0 then exit 1
