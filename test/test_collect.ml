(* Ordered collects on the adaptive scheduler.  [collect_floats] and
   [collect_float_pairs] run their pool loop on [Pool.parallel_fold],
   where a worker may run ranges from anywhere in the loop; their output
   must still equal the same pipeline through [Seq_iter_ref], element
   for element, in order.  Per-element costs are skewed (a Zipf-like
   head and a hot band) so that workers finish their seeded ranges at
   very different times and steal from each other.

   The default pool's width is fixed once per process, so each width
   1-4 runs in its own forked child.  The child checks the Process
   backend first, while it has spawned no domain and can still fork its
   nodes, then the Inprocess and Flat backends.  The test process
   itself never spawns a domain. *)

open Triolet
module R = Seq_iter_ref
module Pool = Triolet_runtime.Pool
module Cluster = Triolet_runtime.Cluster

(* [k] steps of dependent integer work the compiler cannot drop. *)
let spin k =
  let acc = ref 0 in
  for j = 1 to k do
    acc := ((!acc * 31) + j) land 0xffff
  done;
  !acc

type skew = Zipf | Spike

(* The scheduler bench's shapes: element [i] costs ~1/(i+1) of the
   head, or a band of [n/16] elements carries nearly all the work. *)
let cost skew n i =
  match skew with
  | Zipf -> 1 + (20_000 / (i + 1))
  | Spike -> if i >= n / 4 && i < (n / 4) + max 1 (n / 16) then 20_000 else 50

(* Element [i] survives the filter unless [i mod 5 = 4] and yields
   [i mod 3] values, so chunks pack variable-length output. *)
let keep i = i mod 5 <> 4
let value i j = float_of_int ((4 * i) + j)

let pipeline skew n =
  Iter.range 0 n
  |> Iter.filter (fun i -> spin (cost skew n i) >= 0 && keep i)
  |> Iter.concat_map (fun i ->
         Seq_iter.map (value i) (Seq_iter.range 0 (i mod 3)))

let reference n =
  R.range 0 n |> R.filter keep
  |> R.concat_map (fun i -> R.map (value i) (R.range 0 (i mod 3)))
  |> R.to_list

type hint = { name : string; hint : 'a. 'a Iter.t -> 'a Iter.t }

let sequential = { name = "sequential"; hint = Iter.sequential }
let localpar = { name = "localpar"; hint = Iter.localpar }
let par = { name = "par"; hint = Iter.par }

(* Both ordered consumers on one backend and hint at [2 x cores],
   against the reference; [Error] names the first that differs. *)
let check_on ?(cores = 1) backend h (skew, n) =
  let ctx = Exec.make ~nodes:2 ~cores_per_node:cores ~backend () in
  let expected = reference n in
  let it = h.hint (pipeline skew n) in
  let floats = Float.Array.to_list (Iter.collect_floats ~ctx it) in
  let re, im =
    Iter.collect_float_pairs ~ctx (Iter.map (fun x -> (x, -.x)) it)
  in
  let where what =
    Printf.sprintf "%s on %s/%s" what (Cluster.backend_to_string backend) h.name
  in
  if floats <> expected then Error (where "collect_floats")
  else if
    Float.Array.to_list re <> expected
    || Float.Array.to_list im <> List.map Float.neg expected
  then Error (where "collect_float_pairs")
  else Ok ()

let gen =
  QCheck2.Gen.(pair (oneofl [ Zipf; Spike ]) (int_range 0 400))

let print (skew, n) =
  Printf.sprintf "%s, n = %d"
    (match skew with Zipf -> "zipf" | Spike -> "spike")
    n

let seed () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> int_of_string s
  | None ->
      Random.self_init ();
      Random.bits ()

(* Every case of [gen] through each (backend, hint) in [runs]. *)
let property ?cores ~seed name runs =
  QCheck2.Test.check_exn
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count:25 ~name ~print gen (fun case ->
         List.iter
           (fun (backend, h) ->
             match check_on ?cores backend h case with
             | Ok () -> ()
             | Error msg -> QCheck2.Test.fail_report msg)
           runs;
         true))

let width_child w =
  Pool.set_default_width w;
  let seed = seed () in
  Printf.printf "width %d, QCHECK_SEED=%d\n%!" w seed;
  (* Process nodes get [w]-wide pools of their own.  [localpar] runs on
     this process's default pool, which spawns domains at width > 1; it
     is the same on every backend, so the Process pass leaves it to the
     in-process one. *)
  if not (Pool.domains_ever_spawned ()) then
    property ~cores:w ~seed (Printf.sprintf "process 2x%d" w)
      [ (Cluster.Process, sequential); (Cluster.Process, par) ];
  property ~seed "inprocess and flat 2x1"
    (List.concat_map
       (fun b -> [ (b, sequential); (b, localpar); (b, par) ])
       [ Cluster.Inprocess; Cluster.Flat ])

(* Run [width_child w] in a forked child; its exit status is the
   verdict and its output lands in this test's log. *)
let at_width w () =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try width_child w; 0
        with e ->
          prerr_endline (Printexc.to_string e);
          1
      in
      exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ ->
          Alcotest.failf "width %d: an ordered collect differs (see log)" w)

let () =
  Alcotest.run "collect"
    [
      ( "ordered",
        List.map
          (fun w ->
            Alcotest.test_case
              (Printf.sprintf "width %d = seq_iter_ref" w)
              `Quick (at_width w))
          [ 1; 2; 3; 4 ] );
    ]
