(* First-class kernel registry.  See kernel.mli for the contract.

   The four paper kernels are defined here rather than self-registering
   from their own modules: archive linking only pulls modules something
   references, so side-effect registration is a reliability trap — an
   explicit seed list is the robust OCaml idiom. *)

open Triolet

type pipeline = Pipe : ('i, 'a) Iter.iter -> pipeline

type instance = {
  kernel : string;
  size : string;
  work_units : int;
  run_ref : unit -> unit;
  run_eden : unit -> unit;
  run_triolet : ?ctx:Exec.t -> unit -> unit;
  run_seq : unit -> unit;
  check_seq : unit -> bool;
  check : ?ctx:Exec.t -> unit -> bool;
  pipelines : unit -> (string * pipeline) list;
  model : ?rates:Models.rates -> unit -> Triolet_sim.App_model.t;
}

module type S = sig
  val name : string
  val size_classes : string list
  val default_size : string
  val instance : ?seed:int -> size:string -> unit -> instance
end

let standard_sizes = [ "tiny"; "small"; "paper" ]

let unknown_size kernel size valid =
  invalid_arg
    (Printf.sprintf "Kernel %s: unknown size %S (valid: %s)" kernel size
       (String.concat ", " valid))

(* The first Triolet run's result becomes the reference; later [check]
   calls re-run and compare.  Forcing the first call before perturbing
   the ambient context (faults, odd geometry) pins a clean reference. *)
let checker ~agree run =
  let reference = ref None in
  fun ?ctx () ->
    let r = run ?ctx () in
    match !reference with
    | None ->
        reference := Some r;
        true
    | Some r0 -> agree r0 r

(* ------------------------------------------------------------------ *)

module Mriq_k = struct
  let name = "mri-q"
  let size_classes = standard_sizes
  let default_size = "small"

  let dims = function
    | "tiny" -> (64, 192)
    | "small" -> (1024, 4096)
    | "paper" -> (4096, 262144)
    | s -> unknown_size name s size_classes

  let instance ?(seed = 11) ~size () =
    let samples, voxels = dims size in
    let d = lazy (Dataset.mriq ~seed ~samples ~voxels) in
    let run ?ctx () = Mriq.run_triolet ?ctx (Lazy.force d) in
    let seq () = Mriq.run_triolet ~hint:Iter.sequential (Lazy.force d) in
    {
      kernel = name;
      size;
      work_units = samples * voxels;
      run_ref = (fun () -> ignore (Mriq.run_c (Lazy.force d)));
      run_eden = (fun () -> ignore (Mriq.run_eden (Lazy.force d)));
      run_triolet = (fun ?ctx () -> ignore (run ?ctx ()));
      run_seq = (fun () -> ignore (seq ()));
      check_seq =
        (fun () -> Mriq.agrees ~eps:1e-9 (Mriq.run_c (Lazy.force d)) (seq ()));
      check = checker ~agree:(Mriq.agrees ~eps:1e-9) run;
      pipelines =
        (fun () -> [ (name, Pipe (Mriq.pipeline (Lazy.force d))) ]);
      model =
        (fun ?rates () -> Models.mriq_model_sized ?rates ~voxels ~samples ());
    }
end

module Sgemm_k = struct
  let name = "sgemm"
  let size_classes = standard_sizes
  let default_size = "small"

  let dims = function
    | "tiny" -> (24, 18, 20)
    | "small" -> (256, 256, 256)
    | "paper" -> (4096, 4096, 4096)
    | s -> unknown_size name s size_classes

  let instance ?(seed = 12) ~size () =
    let m, k, n = dims size in
    let ab = lazy (Dataset.sgemm_matrices ~seed ~m ~k ~n) in
    let run ?ctx () =
      let a, b = Lazy.force ab in
      Sgemm.run_triolet ?ctx a b
    in
    let seq () =
      let a, b = Lazy.force ab in
      Sgemm.run_triolet ~hint:Iter.sequential a b
    in
    {
      kernel = name;
      size;
      work_units = m * k * n;
      run_ref =
        (fun () ->
          let a, b = Lazy.force ab in
          ignore (Sgemm.run_c a b));
      run_eden =
        (fun () ->
          let a, b = Lazy.force ab in
          ignore (Sgemm.run_eden a b));
      run_triolet = (fun ?ctx () -> ignore (run ?ctx ()));
      run_seq = (fun () -> ignore (seq ()));
      check_seq =
        (fun () ->
          let a, b = Lazy.force ab in
          Sgemm.agrees ~eps:1e-9 (Sgemm.run_c a b) (seq ()));
      check = checker ~agree:(Sgemm.agrees ~eps:1e-9) run;
      pipelines =
        (fun () ->
          let a, b = Lazy.force ab in
          [ (name, Pipe (Sgemm.pipeline a b)) ]);
      model = (fun ?rates () -> Models.sgemm_model_sized ?rates ~m ~k ~n ());
    }
end

module Tpacf_k = struct
  let name = "tpacf"
  let size_classes = standard_sizes
  let default_size = "small"

  let dims = function
    | "tiny" -> (48, 4, 16)
    | "small" -> (768, 4, 32)
    | "paper" -> (8192, 64, 64)
    | s -> unknown_size name s size_classes

  let instance ?(seed = 13) ~size () =
    let points, sets, bins = dims size in
    let d = lazy (Dataset.tpacf ~seed ~points ~random_sets:sets) in
    let run ?ctx () = Tpacf.run_triolet ?ctx ~bins (Lazy.force d) in
    let seq () =
      Tpacf.run_triolet ~hint:Iter.Sequential ~bins (Lazy.force d)
    in
    {
      kernel = name;
      size;
      work_units = points * points * ((2 * sets) + 1) / 2;
      run_ref = (fun () -> ignore (Tpacf.run_c ~bins (Lazy.force d)));
      run_eden = (fun () -> ignore (Tpacf.run_eden ~bins (Lazy.force d)));
      run_triolet = (fun ?ctx () -> ignore (run ?ctx ()));
      run_seq = (fun () -> ignore (seq ()));
      check_seq =
        (fun () -> Tpacf.agrees (Tpacf.run_c ~bins (Lazy.force d)) (seq ()));
      check = checker ~agree:Tpacf.agrees run;
      pipelines =
        (fun () ->
          [
            (name ^ "-dd", Pipe (Tpacf.dd_pipeline ~bins (Lazy.force d)));
            (name ^ "-rr", Pipe (Tpacf.rr_pipeline ~bins (Lazy.force d)));
          ]);
      model =
        (fun ?rates () -> Models.tpacf_model_sized ?rates ~points ~sets ~bins ());
    }
end

module Cutcp_k = struct
  let name = "cutcp"
  let size_classes = standard_sizes
  let default_size = "small"

  let dims = function
    | "tiny" -> (48, 10, 0.5, 1.5)
    | "small" -> (2048, 32, 0.5, 3.0)
    | "paper" -> (600_000, 192, 0.5, 6.0)
    | s -> unknown_size name s size_classes

  let instance ?(seed = 14) ~size () =
    let atoms, g, spacing, cutoff = dims size in
    let d =
      lazy (Dataset.cutcp ~seed ~atoms ~nx:g ~ny:g ~nz:g ~spacing ~cutoff)
    in
    let box = int_of_float ((2.0 *. cutoff /. spacing) +. 1.0) in
    let run ?ctx () = Cutcp.run_triolet ?ctx (Lazy.force d) in
    let seq () = Cutcp.run_triolet ~hint:Iter.sequential (Lazy.force d) in
    {
      kernel = name;
      size;
      work_units = atoms * box * box * box;
      run_ref = (fun () -> ignore (Cutcp.run_c (Lazy.force d)));
      run_eden = (fun () -> ignore (Cutcp.run_eden (Lazy.force d)));
      run_triolet = (fun ?ctx () -> ignore (run ?ctx ()));
      run_seq = (fun () -> ignore (seq ()));
      check_seq =
        (fun () ->
          Cutcp.agrees ~eps:1e-9 (Cutcp.run_c (Lazy.force d)) (seq ()));
      check = checker ~agree:(Cutcp.agrees ~eps:1e-9) run;
      pipelines =
        (fun () -> [ (name, Pipe (Cutcp.pipeline (Lazy.force d))) ]);
      model =
        (fun ?rates () ->
          Models.cutcp_model_sized ?rates ~atoms ~nx:g ~ny:g ~nz:g ~spacing
            ~cutoff ());
    }
end

(* ------------------------------------------------------------------ *)

let registry : (module S) list ref =
  ref
    [
      (module Mriq_k : S);
      (module Sgemm_k : S);
      (module Tpacf_k : S);
      (module Cutcp_k : S);
    ]

let name_of (module K : S) = K.name

let register (module K : S) =
  registry :=
    List.filter (fun k -> name_of k <> K.name) !registry @ [ (module K : S) ]

let all () = !registry
let find name = List.find_opt (fun k -> name_of k = name) !registry
let names () = List.map name_of !registry
