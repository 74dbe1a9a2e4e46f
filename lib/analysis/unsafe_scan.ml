(** Unsafe-access ratchet.

    Counts unchecked array/bytes accesses ([Array.unsafe_*] and
    [Bytes.unsafe_*], which includes the [Float.Array] variants) across
    the source tree and compares against a per-file whitelist of
    audited sites.
    A file above its allowance — or any unsafe access in a file not on
    the list — is an [Error]: new unsafe accesses must either go
    through a checked accessor ({!Triolet_base.Vec.fget}/[fset]) or be
    audited and added here with the count.  A file *below* its
    allowance is an [Info]: the ratchet can be tightened.

    The scan is textual by design: it runs with no build artifacts and
    flags commented-out code too, which is what a lint gate wants. *)

(* Needles are assembled by concatenation so this file does not match
   its own scan. *)
let patterns =
  List.concat_map
    (fun m -> [ m ^ "unsafe_get"; m ^ "unsafe_set" ])
    [ "Array."; "Bytes." ]

(* Audited allowance per file (paths relative to the repo root).
   - vec.ml: the checked fget/fset accessors themselves plus the
     hot memset loop;
   - rw.ml: the single-byte codec primitives (bounds carried by the
     cursor invariant); float arrays move by checked block copies;
   - matrix.ml / grid3.ml / stepper.ml: inner loops whose indices are
     produced by the module's own shape arithmetic;
   - mriq.ml / sgemm.ml / bench: measured inner loops where the bounds
     are the enclosing for-loop's.
   tpacf.ml and cutcp.ml are deliberately absent: they were migrated to
   Vec.fget/fset, so any unsafe access reappearing there fails. *)
let whitelist =
  [
    ("lib/base/rw.ml", 2);
    ("lib/base/vec.ml", 5);
    ("lib/core/grid3.ml", 4);
    ("lib/core/matrix.ml", 13);
    ("lib/core/stepper.ml", 4);
    ("lib/kernels/mriq.ml", 13);
    ("lib/kernels/sgemm.ml", 5);
    ("bench/main.ml", 7);
  ]

let scan_dirs = [ "lib"; "bin"; "bench"; "examples" ]

(* Wall-clock ratchet: durations and deadlines must be computed on the
   monotonic clock ({!Triolet_runtime.Clock.monotonic_ns}) — the wall
   clock steps under NTP adjustment, which once produced spurious
   receive timeouts and skewed recovery timing.  Any qualified call in
   a timing-sensitive tree is an error with no allowance.  (Needle
   assembled by concatenation so this file passes its own scan.) *)
let wallclock_needle = "Unix." ^ "gettimeofday"
let wallclock_dirs = [ "lib/runtime/"; "lib/harness/"; "lib/kernels/"; "bench/" ]

(* Fused-path ratchet: the push-based stream encoding gets its speed
   from keeping pipelines allocation-free, so the files on the fused hot
   path are held to two extra rules.  [Obj] tricks are banned outright —
   an [Obj.magic] "optimization" sneaking into the stream core is how
   fusion rewrites rot.  Mutable cells are ratcheted per file: the
   audited allowance covers the unboxed float accumulators and the
   per-invocation state cells of restartable push faces; a new [ref] in
   a fused file means a closure captured mutable state, which defeats
   unboxing and must be audited here.  (Needles assembled by
   concatenation so this file passes its own scan.) *)
let obj_needle = "Obj" ^ "."
let ref_needle = "ref" ^ " "

let fusion_whitelist =
  [
    ("lib/core/stepper.ml", 4);
    ("lib/core/folder.ml", 0);
    ("lib/core/indexer.ml", 1);
    ("lib/core/seq_iter.ml", 0);
    ("lib/core/shape.ml", 0);
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let count_occurrences ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go from acc =
    if from + nl > hl then acc
    else
      match String.index_from_opt haystack from needle.[0] with
      | None -> acc
      | Some i ->
          if i + nl <= hl && String.sub haystack i nl = needle then
            go (i + nl) (acc + 1)
          else go (i + 1) acc
  in
  go 0 0

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let count_file path =
  let s = read_file path in
  List.fold_left (fun acc p -> acc + count_occurrences ~needle:p s) 0 patterns

let rec walk dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc name ->
          if name = "_build" || name = "" || name.[0] = '.' then acc
          else
            let path = Filename.concat dir name in
            if Sys.is_directory path then walk path acc
            else if Filename.check_suffix name ".ml" then path :: acc
            else acc)
        acc entries
  | exception Sys_error _ -> acc

(** [run ~root ()] scans the tree under [root] (default ["."]) and
    returns findings in {!Passes} form, plan field ["<tree>"]. *)
let run ?(root = ".") () : Passes.finding list =
  let files =
    List.concat_map
      (fun d ->
        let dir = Filename.concat root d in
        if Sys.file_exists dir && Sys.is_directory dir then walk dir []
        else [])
      scan_dirs
    |> List.sort compare
  in
  let strip path =
    (* report paths relative to [root] so the whitelist is portable *)
    let prefix = if root = "." then "./" else Filename.concat root "" in
    let pl = String.length prefix and l = String.length path in
    if l >= pl && String.sub path 0 pl = prefix then
      String.sub path pl (l - pl)
    else path
  in
  let wallclock_findings =
    List.filter_map
      (fun path ->
        let rel = strip path in
        if not (List.exists (fun d -> starts_with ~prefix:d rel) wallclock_dirs)
        then None
        else
          let count =
            count_occurrences ~needle:wallclock_needle (read_file path)
          in
          if count = 0 then None
          else
            Some
              {
                Passes.pass = "wallclock";
                plan = rel;
                severity = Passes.Error;
                message =
                  Printf.sprintf
                    "%d wall-clock timing call(s) in a timing path: use \
                     Clock.monotonic_ns (NTP steps make wall-clock \
                     deadlines and durations wrong)"
                    count;
              })
      files
  in
  let fusion_findings =
    List.filter_map
      (fun (rel, allowed_refs) ->
        let path = Filename.concat root rel in
        if not (Sys.file_exists path) then None
        else
          let s = read_file path in
          let objs = count_occurrences ~needle:obj_needle s in
          let refs = count_occurrences ~needle:ref_needle s in
          if objs > 0 then
            Some
              {
                Passes.pass = "fusion";
                plan = rel;
                severity = Passes.Error;
                message =
                  Printf.sprintf
                    "%d Obj use(s) on the fused stream path: no unsafe \
                     representation tricks in the stream core"
                    objs;
              }
          else if refs > allowed_refs then
            Some
              {
                Passes.pass = "fusion";
                plan = rel;
                severity = Passes.Error;
                message =
                  Printf.sprintf
                    "%d mutable cell(s) on the fused stream path, %d \
                     audited: captured refs defeat unboxing — thread the \
                     accumulator or audit the site and raise the allowance"
                    refs allowed_refs;
              }
          else if refs < allowed_refs then
            Some
              {
                Passes.pass = "fusion";
                plan = rel;
                severity = Passes.Info;
                message =
                  Printf.sprintf
                    "%d mutable cell(s), %d audited: allowance can be \
                     lowered"
                    refs allowed_refs;
              }
          else None)
      fusion_whitelist
  in
  wallclock_findings @ fusion_findings
  @ List.filter_map
    (fun path ->
      let rel = strip path in
      let count = count_file path in
      let allowed =
        match List.assoc_opt rel whitelist with Some n -> n | None -> 0
      in
      if count > allowed then
        Some
          {
            Passes.pass = "unsafe";
            plan = rel;
            severity = Passes.Error;
            message =
              Printf.sprintf
                "%d unchecked unsafe access(es), %d audited: use \
                 Vec.fget/fset or audit the new site and raise the \
                 allowance"
                count allowed;
          }
      else if count < allowed then
        Some
          {
            Passes.pass = "unsafe";
            plan = rel;
            severity = Passes.Info;
            message =
              Printf.sprintf
                "%d unsafe access(es), %d audited: allowance can be \
                 lowered"
                count allowed;
          }
      else None)
    files
