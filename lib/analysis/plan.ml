(** Reified execution plans.

    [of_iter] interrogates an iterator pipeline *without
    running a consumer* and produce a [t]: the loop-nest shape the tasks
    will execute, the partition strategy the skeleton dispatch would
    choose under the ambient {!Triolet.Exec} cluster geometry, the
    per-task index slices, and a summary of each task's serialized
    payload.  The verification passes in {!Passes} then audit the plan
    instead of the opaque closures. *)

open Triolet

type space =
  | Space_1d of int
  | Space_2d of { rows : int; cols : int }
  | Space_3d of { depth : int; height : int; width : int }

type slice =
  | Slice_1d of { off : int; len : int }
  | Slice_2d of { r0 : int; nr : int; c0 : int; nc : int }

type buf_summary =
  | Floats_buf of int  (** pointer-free float buffer, element count *)
  | Ints_buf of int  (** pointer-free int buffer, element count *)
  | Raw_buf of int  (** opaque pre-encoded bytes (boxed source), length *)

type task = {
  slice : slice;
  payload : (buf_summary list, string) result option;
      (** [None] when the task runs in place (no payload extracted);
          [Some (Error msg)] when slicing raised — e.g. a boxed source
          with no codec asked for distributed execution. *)
  aliased : bool;
      (** the extracted payload physically shares a buffer with the
          sender's memory instead of copying the slice.  Such a payload
          only "decodes" in-process, where the receiver is handed the
          sender's pointer; over a real transport (the process backend)
          the receiver gets bytes, and any in-place mutation or
          identity assumption breaks.  Detected by extracting twice and
          comparing buffers for physical equality. *)
}

type partition =
  | Whole  (** one task over the whole space (sequential execution) *)
  | Dynamic_ranges of { grain : int; overridden : bool }
      (** lazy-splitting scheduler over contiguous ranges; [grain] is
          the effective grain size, [overridden] when it came from the
          ambient context's [grain] rather than
          {!Triolet_runtime.Partition.grain} *)
  | Static_blocks of (int * int) array
      (** pre-cut 1-D (offset, length) node blocks, or the plane ranges
          of a 3-D space's z-slabs *)
  | Static_grid of {
      row_parts : int;
      col_parts : int;
      blocks : (int * int * int * int) array;
    }  (** 2-D (row0, nrows, col0, ncols) node block grid *)

type t = {
  name : string;
  hint : Iter.hint;
  space : space;
  shape : Seq_iter.shape option;
      (** loop-nest shape of a probe band of the outer axis; [None] for
          an empty space *)
  partition : partition;
  workers : int;  (** worker count the partition targets *)
  tasks : task list;
}

let hint_to_string = function
  | Iter.Sequential -> "sequential"
  | Iter.Local -> "local"
  | Iter.Distributed -> "distributed"

let space_size = function
  | Space_1d n -> n
  | Space_2d { rows; cols } -> rows * cols
  | Space_3d { depth; height; width } -> depth * height * width

let buf_summary_of = function
  | Triolet_base.Payload.Floats a -> Floats_buf (Float.Array.length a)
  | Triolet_base.Payload.Slice (_, _, len) -> Floats_buf len
  | Triolet_base.Payload.Ints a -> Ints_buf (Array.length a)
  | Triolet_base.Payload.Raw s -> Raw_buf (String.length s)

(* Two extractions of a *copying* [payload_of] yield physically distinct
   buffers; physically equal non-empty buffers mean the extractor handed
   out the sender's own array.  (Zero-length arrays and strings are
   excluded: OCaml interns those, so sharing proves nothing.)  A [Slice]
   names the sender's array on purpose: it is only ever encoded, and
   decodes as a fresh [Floats]. *)
let phys_alias b1 b2 =
  match (b1, b2) with
  | Triolet_base.Payload.Floats a, Triolet_base.Payload.Floats b ->
      Float.Array.length a > 0 && a == b
  | Triolet_base.Payload.Ints a, Triolet_base.Payload.Ints b ->
      Array.length a > 0 && a == b
  | Triolet_base.Payload.Raw s, Triolet_base.Payload.Raw r ->
      String.length s > 0 && s == r
  | _ -> false

let probe_payload extract =
  match extract () with
  | p ->
      let aliased =
        match extract () with
        | p2 -> List.length p = List.length p2 && List.exists2 phys_alias p p2
        | exception _ -> false
      in
      (Some (Ok (List.map buf_summary_of p)), aliased)
  | exception e -> (Some (Error (Printexc.to_string e)), false)

let local_workers () =
  Triolet_runtime.Pool.size (Triolet_runtime.Pool.default ())

let effective_grain ~workers n =
  match (Exec.current ()).Exec.grain with
  | Some g -> (g, true)
  | None -> (Triolet_runtime.Partition.grain ~workers n, false)

let space_of : type i. i Shape.t -> space = function
  | Shape.Seq n -> Space_1d n
  | Shape.Dim2 (rows, cols) -> Space_2d { rows; cols }
  | Shape.Dim3 (d, h, w) -> Space_3d { depth = d; height = h; width = w }

(* Z-slabs of a [Dim3] are 1-D ranges of planes. *)
let slice_of : type i. i Shape.block -> slice =
 fun (o, ext) ->
  match (ext, o) with
  | Shape.Seq len, off -> Slice_1d { off; len }
  | Shape.Dim2 (nr, nc), (r0, c0) -> Slice_2d { r0; nr; c0; nc }
  | Shape.Dim3 (len, _, _), (off, _, _) -> Slice_1d { off; len }

let partition_of : type i. i Shape.t -> i Shape.block array -> partition =
 fun shape blocks ->
  match shape with
  | Shape.Seq _ ->
      Static_blocks (Array.map (fun (off, Shape.Seq n) -> (off, n)) blocks)
  | Shape.Dim2 _ ->
      let row_parts, col_parts = Shape.grid_parts blocks in
      Static_grid
        {
          row_parts;
          col_parts;
          blocks =
            Array.map
              (fun ((r0, c0), Shape.Dim2 (nr, nc)) -> (r0, nr, c0, nc))
              blocks;
        }
  | Shape.Dim3 _ ->
      Static_blocks
        (Array.map (fun ((z0, _, _), Shape.Dim3 (n, _, _)) -> (z0, n)) blocks)

(** Reify a pipeline over any domain.  Mirrors the dispatch in [Iter]'s
    consumers: sequential → one in-place task; local → lazy-splitting
    dynamic ranges over the outer axis; distributed → the consumers' own
    {!Iter.node_blocks}, one probed payload per block. *)
let of_iter ~name (it : ('i, 'a) Iter.iter) : t =
  let domain = Iter.shape it in
  let outer = Shape.outer domain in
  let shape =
    if Iter.length it = 0 then None
    else
      let probe = Shape.band domain 0 (min outer 4) in
      Some (Seq_iter.shape_of (it.Iter.local probe))
  in
  let hint = Iter.hint it in
  let whole =
    { slice = slice_of (Shape.whole domain); payload = None; aliased = false }
  in
  let partition, workers, tasks =
    match hint with
    | Iter.Sequential -> (Whole, 1, [ whole ])
    | Iter.Local ->
        let workers = local_workers () in
        let grain, overridden = effective_grain ~workers outer in
        (Dynamic_ranges { grain; overridden }, workers, [ whole ])
    | Iter.Distributed ->
        let blocks = Iter.node_blocks domain in
        let tasks =
          Array.to_list blocks
          |> List.map (fun blk ->
                 let payload, aliased =
                   probe_payload (fun () -> it.Iter.payload_of blk)
                 in
                 { slice = slice_of blk; payload; aliased })
        in
        (partition_of domain blocks, Exec.worker_count (Exec.current ()), tasks)
  in
  { name; hint; space = space_of domain; shape; partition; workers; tasks }

let payload_bytes t =
  List.fold_left
    (fun acc task ->
      match task.payload with
      | Some (Ok bufs) ->
          List.fold_left
            (fun acc b ->
              acc
              + match b with
                | Floats_buf n -> n * 8
                | Ints_buf n -> n * 8
                | Raw_buf n -> n)
            acc bufs
      | _ -> acc)
    0 t.tasks

let to_string t =
  let b = Buffer.create 256 in
  let space_str =
    match t.space with
    | Space_1d n -> Printf.sprintf "[0, %d)" n
    | Space_2d { rows; cols } -> Printf.sprintf "%d x %d" rows cols
    | Space_3d { depth; height; width } ->
        Printf.sprintf "%d x %d x %d" depth height width
  in
  Buffer.add_string b
    (Printf.sprintf "plan %-10s %-11s space %-12s" t.name
       (hint_to_string t.hint) space_str);
  (match t.shape with
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf " nest %s" (Seq_iter.shape_to_string s))
  | None -> ());
  (match t.partition with
  | Whole -> Buffer.add_string b "\n  one task, in place"
  | Dynamic_ranges { grain; overridden } ->
      Buffer.add_string b
        (Printf.sprintf "\n  dynamic ranges over %d workers, grain %d%s"
           t.workers grain
           (if overridden then " (override)" else " (auto)"))
  | Static_blocks blocks ->
      Buffer.add_string b
        (Printf.sprintf "\n  %d static blocks over %d workers, %d payload bytes"
           (Array.length blocks) t.workers (payload_bytes t))
  | Static_grid { row_parts; col_parts; blocks } ->
      Buffer.add_string b
        (Printf.sprintf
           "\n  %dx%d block grid (%d blocks) over %d workers, %d payload bytes"
           row_parts col_parts (Array.length blocks) t.workers
           (payload_bytes t)));
  Buffer.contents b
