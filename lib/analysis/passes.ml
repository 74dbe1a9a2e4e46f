(** Verification passes over reified plans.

    Each pass audits one property a correct plan must have and emits
    findings.  [Error] findings make [triolet analyze] (and the CI lint
    gate) fail; [Warning]s flag performance hazards; [Info]s record
    facts worth seeing in the report but expected on a clean tree. *)

type severity = Info | Warning | Error

type finding = {
  pass : string;
  plan : string;  (** plan name the finding is about *)
  severity : severity;
  message : string;
}

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let to_string f =
  Printf.sprintf "%-7s %-14s %-10s %s"
    (severity_to_string f.severity)
    f.pass f.plan f.message

let has_errors findings = List.exists (fun f -> f.severity = Error) findings

(* ------------------------------------------------------------------ *)
(* Coverage: static partitions must tile the index space exactly once. *)

let coverage (p : Plan.t) : finding list =
  let mk v =
    {
      pass = "coverage";
      plan = p.Plan.name;
      severity = Error;
      message = Coverage.violation_to_string v;
    }
  in
  match (p.Plan.partition, p.Plan.space) with
  | ( Plan.Static_blocks blocks,
      (Plan.Space_1d n | Plan.Space_3d { depth = n; _ }) ) ->
      List.map mk (Coverage.check_blocks ~n blocks)
  | Plan.Static_grid { blocks; _ }, Plan.Space_2d { rows; cols } ->
      List.map mk (Coverage.check_grid ~rows ~cols blocks)
  | Plan.Static_blocks _, Plan.Space_2d _
  | Plan.Static_grid _, (Plan.Space_1d _ | Plan.Space_3d _) ->
      [
        {
          pass = "coverage";
          plan = p.Plan.name;
          severity = Error;
          message = "partition dimensionality does not match the space";
        };
      ]
  | (Plan.Whole | Plan.Dynamic_ranges _), _ ->
      (* Dynamic ranges are carved by the scheduler at run time; the
         scheduler's own tests cover them. *)
      []

(* ------------------------------------------------------------------ *)
(* Fusion: a parallel pipeline whose outer loop nest starts with a
   stepper has lost random access, so it cannot be partitioned — the
   paper's motivating diagnostic (sections 3.2 and 3.4). *)

let fusion (p : Plan.t) : finding list =
  let mk severity message =
    [ { pass = "fusion"; plan = p.Plan.name; severity; message } ]
  in
  match p.Plan.shape with
  | None -> []
  | Some shape -> (
      let rendered = Triolet.Seq_iter.shape_to_string shape in
      match shape with
      | Triolet.Seq_iter.Shape_step_flat | Triolet.Seq_iter.Shape_step_nest _
        when p.Plan.hint <> Triolet.Iter.Sequential ->
          mk Warning
            (Printf.sprintf
               "outer loop is a stepper (%s): random access lost, tasks \
                cannot be partitioned — zip of a non-flat operand, append, \
                or a sequential source upstream"
               rendered)
      | Triolet.Seq_iter.Shape_step_flat | Triolet.Seq_iter.Shape_step_nest _
        ->
          []
      (* a multi-dimensional domain nests one level per axis by design *)
      | Triolet.Seq_iter.Shape_idx_nest _
        when (match p.Plan.space with Plan.Space_1d _ -> true | _ -> false) ->
          mk Info
            (Printf.sprintf
               "nested shape %s: inner irregularity isolated, outer loop \
                stays partitionable"
               rendered)
      | Triolet.Seq_iter.Shape_idx_nest _ | Triolet.Seq_iter.Shape_idx_flat _
        ->
          [])

(* ------------------------------------------------------------------ *)
(* Serialization: distributed tasks must be able to extract their
   payload, pointer-free payloads ship as block copies, and no payload
   may alias the sender's memory — an aliased payload only "decodes"
   in-process because the receiver was handed the sender's pointer; over
   a real transport (the process backend) it is a silent correctness
   bug, so it is a hard error here. *)

let slice_to_string = function
  | Plan.Slice_1d { off; len } -> Printf.sprintf "slice [%d, %d)" off (off + len)
  | Plan.Slice_2d { r0; nr; c0; nc } ->
      Printf.sprintf "block (r %d+%d, c %d+%d)" r0 nr c0 nc

let serialization (p : Plan.t) : finding list =
  let findings = ref [] in
  let add severity message =
    findings :=
      { pass = "serialization"; plan = p.Plan.name; severity; message }
      :: !findings
  in
  let raw_bytes = ref 0 and raw_tasks = ref 0 in
  List.iter
    (fun (t : Plan.task) ->
      let where = slice_to_string t.Plan.slice in
      (match t.Plan.payload with
      | None | Some (Ok []) -> ()
      | Some (Error msg) ->
          add Error
            (Printf.sprintf
               "payload extraction failed for %s: %s — a boxed source \
                needs a codec to run distributed"
               where msg)
      | Some (Ok bufs) ->
          if
            List.exists
              (function Plan.Raw_buf _ -> true | _ -> false)
              bufs
          then begin
            incr raw_tasks;
            List.iter
              (function
                | Plan.Raw_buf n -> raw_bytes := !raw_bytes + n | _ -> ())
              bufs
          end);
      if t.Plan.aliased then
        add Error
          (Printf.sprintf
             "payload for %s aliases sender memory: the extractor returns \
              the source buffer instead of a copy, so it only decodes \
              in-process — over a real transport (--backend=process) the \
              receiver gets serialized bytes and the sharing assumption \
              breaks"
             where))
    p.Plan.tasks;
  if !raw_tasks > 0 then
    add Info
      (Printf.sprintf
         "%d task payload(s) carry element-encoded (Raw) buffers, %d \
          bytes total: serializable but not block-copyable"
         !raw_tasks !raw_bytes);
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Grain advisory: a grain-size override large enough to starve the
   pool defeats the lazy-splitting scheduler.  Auto grains never warn
   (Partition.grain already accounts for pool width). *)

let grain_advisory (p : Plan.t) : finding list =
  match p.Plan.partition with
  | Plan.Dynamic_ranges { grain; overridden = true }
    when grain > 0
         && Plan.space_size p.Plan.space >= p.Plan.workers
         && Plan.space_size p.Plan.space / grain < p.Plan.workers ->
      [
        {
          pass = "grain";
          plan = p.Plan.name;
          severity = Warning;
          message =
            Printf.sprintf
              "grain override %d yields %d chunk(s) for %d workers over \
               %d iterations: some workers will starve"
              grain
              (Plan.space_size p.Plan.space / grain)
              p.Plan.workers
              (Plan.space_size p.Plan.space);
        };
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)

let all_passes = [ coverage; fusion; serialization; grain_advisory ]

let run_plan (p : Plan.t) : finding list =
  List.concat_map (fun pass -> pass p) all_passes

let run_all (plans : Plan.t list) : finding list =
  List.concat_map run_plan plans
