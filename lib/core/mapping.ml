(* The checked-in auto-mapping file.  See mapping.mli for the contract;
   the schema lives entirely in to_json/of_json below, so the tuner
   (lib/tune), the runtime consultation (Exec.for_kernel) and the CI
   drift check all agree by construction. *)

module Json = Triolet_obs.Json

let schema_version = 1

type entry = {
  kernel : string;
  size : string;
  nodes : int;
  cores_per_node : int;
  backend : string;
  grain : int option;
  predicted_s : float;
  cluster_s : float;
  seq_s : float;
  measured_s : float option;
  delta : float option;
}

type file = {
  version : int;
  objective : string;
  host_cores : int;
  rates : (string * float) list;
  entries : entry list;
}

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization                                              *)

let num_opt = function None -> Json.Null | Some f -> Json.Num f
let int_opt = function None -> Json.Null | Some i -> Json.Num (float_of_int i)

let entry_to_json (e : entry) =
  Json.Obj
    [
      ("kernel", Json.Str e.kernel);
      ("size", Json.Str e.size);
      ("nodes", Json.Num (float_of_int e.nodes));
      ("cores_per_node", Json.Num (float_of_int e.cores_per_node));
      ("backend", Json.Str e.backend);
      ("grain", int_opt e.grain);
      ("predicted_s", Json.Num e.predicted_s);
      ("cluster_s", Json.Num e.cluster_s);
      ("seq_s", Json.Num e.seq_s);
      ("measured_s", num_opt e.measured_s);
      ("delta", num_opt e.delta);
    ]

let to_json (f : file) =
  Json.Obj
    [
      ("version", Json.Num (float_of_int f.version));
      ("objective", Json.Str f.objective);
      ("host_cores", Json.Num (float_of_int f.host_cores));
      ("rates", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) f.rates));
      ("entries", Json.Arr (List.map entry_to_json f.entries));
    ]

(* Field accessors that report *which* field broke, so a hand-edited
   file fails with something actionable. *)

let field name j = Json.member name j

let get_num ctx name j =
  match Option.bind (field name j) Json.to_float_opt with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: missing or non-numeric %S" ctx name)

let get_int ctx name j = Result.map int_of_float (get_num ctx name j)

let get_str ctx name j =
  match Option.bind (field name j) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: missing or non-string %S" ctx name)

let get_int_opt name j =
  match field name j with
  | None | Some Json.Null -> None
  | Some v -> Option.map int_of_float (Json.to_float_opt v)

let get_num_opt name j =
  match field name j with
  | None | Some Json.Null -> None
  | Some v -> Json.to_float_opt v

let ( let* ) = Result.bind

let entry_of_json i j =
  let ctx = Printf.sprintf "entries[%d]" i in
  let* kernel = get_str ctx "kernel" j in
  let* size = get_str ctx "size" j in
  let* nodes = get_int ctx "nodes" j in
  let* cores_per_node = get_int ctx "cores_per_node" j in
  let* backend = get_str ctx "backend" j in
  let* predicted_s = get_num ctx "predicted_s" j in
  let* cluster_s = get_num ctx "cluster_s" j in
  let* seq_s = get_num ctx "seq_s" j in
  let non_positive =
    List.filter_map
      (fun (name, v) -> if v < 1 then Some name else None)
      [ ("nodes", nodes); ("cores_per_node", cores_per_node) ]
  in
  if non_positive <> [] then
    Error
      (Printf.sprintf "%s: non-positive %s" ctx
         (String.concat ", " non_positive))
  else
    Ok
      {
        kernel;
        size;
        nodes;
        cores_per_node;
        backend;
        grain = get_int_opt "grain" j;
        predicted_s;
        cluster_s;
        seq_s;
        measured_s = get_num_opt "measured_s" j;
        delta = get_num_opt "delta" j;
      }

let of_json j =
  let* version = get_int "mapping" "version" j in
  if version <> schema_version then
    Error
      (Printf.sprintf "schema version %d (this build reads %d)" version
         schema_version)
  else
    let* objective = get_str "mapping" "objective" j in
    let* host_cores = get_int "mapping" "host_cores" j in
    let rates =
      match field "rates" j with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v))
            kvs
      | _ -> []
    in
    let entries = match field "entries" j with Some a -> Json.to_list a | None -> [] in
    let* entries =
      List.fold_left
        (fun acc (i, e) ->
          let* acc = acc in
          let* e = entry_of_json i e in
          Ok (e :: acc))
        (Ok [])
        (List.mapi (fun i e -> (i, e)) entries)
    in
    Ok { version; objective; host_cores; rates; entries = List.rev entries }

(* ------------------------------------------------------------------ *)
(* File I/O                                                            *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ())

let save path f =
  mkdir_p (Filename.dirname path);
  Json.to_file path (to_json f)

let load path =
  match Json.of_file path with
  | exception Sys_error m -> Error m
  | exception Json.Parse_error m -> Error (path ^ ": " ^ m)
  | j -> Result.map_error (fun m -> path ^ ": " ^ m) (of_json j)

let lookup f ~kernel ~size =
  List.find_opt (fun e -> e.kernel = kernel && e.size = size) f.entries

(* ------------------------------------------------------------------ *)
(* Size taxonomy                                                       *)

let size_class_of_work w =
  if w < 1 lsl 21 then "tiny" else if w < 1 lsl 28 then "small" else "paper"

(* ------------------------------------------------------------------ *)
(* Ambient singleton                                                   *)

let default_path () =
  match Sys.getenv_opt "TRIOLET_MAPPINGS" with
  | Some "" -> None
  | Some p -> Some p
  | None ->
      (* Walk up from the cwd (a few levels: dune sandboxes run tests in
         _build/default/test) looking for tune/MAPPINGS.json. *)
      let rec walk dir depth =
        if depth > 6 then None
        else
          let candidate = Filename.concat dir "tune/MAPPINGS.json" in
          if Sys.file_exists candidate then Some candidate
          else
            let parent = Filename.dirname dir in
            if parent = dir then None else walk parent (depth + 1)
      in
      walk (Sys.getcwd ()) 0

let warned = ref false

let warn msg =
  if not !warned then (
    warned := true;
    Printf.eprintf "triolet: ignoring mappings file: %s\n%!" msg)

let cache : file option option ref = ref None

let loaded () =
  match !cache with
  | Some f -> f
  | None ->
      let f =
        match default_path () with
        | None -> None
        | Some p -> (
            match load p with
            | Ok f -> Some f
            | Error m ->
                warn m;
                None)
      in
      cache := Some f;
      f

let reload () =
  cache := None;
  warned := false
