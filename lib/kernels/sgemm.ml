(** sgemm: scaled dense matrix product C = alpha * A * B (paper,
    section 4.3).

    All versions transpose B first so the inner loop runs over
    contiguous memory, then use a 2-D block decomposition that sends
    each worker only the input rows it needs.

    - [run_c]: imperative loop nest over unboxed arrays;
    - [run_triolet]: the paper's two-line rows/outerproduct version;
    - [run_eden]: boxed list-of-rows representation with list dots. *)

open Triolet

(* C = alpha * A * B over A and B already transposed: the one block
   product every imperative sgemm loop runs, [run_c]'s and the resident
   nodes'. *)
let product ~alpha (a : Matrix.t) (bt : Matrix.t) : Matrix.t =
  if Matrix.cols a <> Matrix.cols bt then invalid_arg "Sgemm.product";
  let m = Matrix.rows a and n = Matrix.rows bt and k = Matrix.cols a in
  let da = Matrix.data a and dbt = Matrix.data bt in
  let c = Matrix.create m n in
  let dc = Matrix.data c in
  for i = 0 to m - 1 do
    let ai = i * k in
    for j = 0 to n - 1 do
      let bj = j * k in
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc :=
          !acc
          +. Float.Array.unsafe_get da (ai + l)
             *. Float.Array.unsafe_get dbt (bj + l)
      done;
      Float.Array.unsafe_set dc ((i * n) + j) (alpha *. !acc)
    done
  done;
  c

let run_c ?(alpha = 1.0) (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  if Matrix.cols a <> Matrix.rows b then invalid_arg "Sgemm.run_c";
  product ~alpha a (Matrix.transpose b)

(* The paper's code (section 2):
     zipped_AB = outerproduct(rows(A), rows(BT))
     AB = [dot(u, v) for (u, v) in par(zipped_AB)]
   Transposition itself is parallelized over shared memory only
   (localpar), being too cheap to distribute (section 4.3). *)
type matrix_iter = (int * int, float) Iter.iter

(* The 2-D dot-product iterator the build consumes — including B's
   transposition — exposed as a plan-reification hook for
   [triolet analyze].  The transposition follows the hint: sequential
   under a sequential hint, on the shared-memory pool otherwise. *)
let pipeline ?(alpha = 1.0) ?(hint = Iter.par) (a : Matrix.t) (b : Matrix.t) =
  if Matrix.cols a <> Matrix.rows b then invalid_arg "Sgemm.run_triolet";
  let bt =
    match Iter.hint (hint (Iter.init (Shape.dim2 0 0) (fun _ -> 0.0))) with
    | Iter.Sequential -> Matrix.transpose b
    | Iter.Local | Iter.Distributed ->
        Matrix.transpose_par (Triolet_runtime.Pool.default ()) b
  in
  let zipped_ab = Iter.outer_product (Iter.rows a) (Iter.rows bt) in
  hint (Iter.map (fun (u, v) -> alpha *. Matrix.view_dot u v) zipped_ab)

(* Size taxonomy shared with the auto-mapper: one multiply-accumulate
   is the work unit. *)
let size_class (a : Matrix.t) (b : Matrix.t) =
  Mapping.size_class_of_work (Matrix.rows a * Matrix.cols a * Matrix.cols b)

let run_triolet ?ctx ?alpha ?hint (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  let ctx = Exec.for_kernel ?ctx ~kernel:"sgemm" ~size:(size_class a b) () in
  Triolet_obs.Obs.span ~name:"kernel.sgemm" (fun () ->
      Iter.to_matrix ~ctx (pipeline ?alpha ?hint a b))

(* Eden-style, following the paper's Eden code: arrays are kept "in
   chunked form" — boxed lists of unboxed row vectors — so tasks can be
   distributed while array traversal stays efficient (section 4.1), and
   the output assembly performs the random-access writes they had to
   drop to mutable arrays for (section 4.1).  Transposition is the
   boxed, sequential bottleneck of section 4.3. *)
let run_eden ?(alpha = 1.0) (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  let module E = Triolet_baselines.Eden_list in
  if Matrix.cols a <> Matrix.rows b then invalid_arg "Sgemm.run_eden";
  let to_rows m =
    List.init (Matrix.rows m) (fun i ->
        Float.Array.init (Matrix.cols m) (fun j -> Matrix.unsafe_get m i j))
  in
  (* transpose over the boxed row list: one fresh vector per output
     row, gathering element j of every input row *)
  let transpose rows cols =
    let arr = Array.of_list rows in
    List.init cols (fun j ->
        Float.Array.init (Array.length arr) (fun i ->
            Float.Array.get arr.(i) j))
  in
  let dot (u : floatarray) (v : floatarray) =
    let acc = ref 0.0 in
    for i = 0 to Float.Array.length u - 1 do
      acc := !acc +. (Float.Array.unsafe_get u i *. Float.Array.unsafe_get v i)
    done;
    !acc
  in
  let bt = transpose (to_rows b) (Matrix.cols b) in
  let c_rows =
    E.map
      (fun u ->
        Float.Array.of_list (E.map (fun v -> alpha *. dot u v) bt))
      (to_rows a)
  in
  let m = Matrix.rows a and n = Matrix.cols b in
  let c = Matrix.create m n in
  List.iteri
    (fun i row ->
      Float.Array.iteri (fun j v -> Matrix.unsafe_set c i j v) row)
    c_rows;
  c

let agrees ?(eps = 1e-9) c1 c2 = Matrix.equal_eps ~eps c1 c2

(* ------------------------------------------------------------------ *)
(* Resident iterative variant: A's row blocks stay on the nodes.       *)

(** Iterated products against a fixed left operand — the shape of
    power iteration or any [C_r = alpha * A * B_r] loop.  A's row
    blocks install once in the resident fabric; each {!Resident.multiply}
    ships only B (transposed) plus key-sized reuse envelopes, so when A
    is much larger than B the per-round scatter bytes collapse.
    {!Resident.update_a} re-ships exactly the row blocks that changed. *)
module Resident = struct
  type t = { res : Skeletons.Resident.t; m : int; k : int }

  (* Segments, the argument and replies are all {!Iter.matrix_payload}s,
     the payload {!Iter.rows} ships. *)
  let segment (a : Matrix.t) (off, n) =
    Iter.matrix_payload (Matrix.copy_rows a off n)

  (* Child-side compute: resident = this node's A row block, arg = all
     of B already transposed; reply = the C row block. *)
  let work ~alpha ~block:_ ~resident ~arg =
    Iter.matrix_payload
      (product ~alpha (Iter.matrix_of_payload resident) (Iter.matrix_of_payload arg))

  let create ?ctx ?(alpha = 1.0) (a : Matrix.t) =
    let res =
      Skeletons.Resident.create ?ctx ~len:(Matrix.rows a) ~segment:(segment a)
        ~work:(work ~alpha) ()
    in
    { res; m = Matrix.rows a; k = Matrix.cols a }

  let multiply t (b : Matrix.t) =
    if Matrix.rows b <> t.k then invalid_arg "Sgemm.Resident.multiply";
    let c = Matrix.create t.m (Matrix.cols b) in
    let (), report =
      Skeletons.Resident.round t.res
        ~arg:(Iter.matrix_payload (Matrix.transpose b))
        ~merge:(fun () (r0, _) reply ->
          Matrix.blit_block ~src:(Iter.matrix_of_payload reply) ~dst:c ~r0 ~c0:0)
        ~init:()
    in
    (c, report)

  (* Replace A; only row blocks whose bytes differ re-ship. *)
  let update_a t (a : Matrix.t) =
    if Matrix.rows a <> t.m || Matrix.cols a <> t.k then
      invalid_arg "Sgemm.Resident.update_a: geometry change";
    Skeletons.Resident.refresh t.res ~segment:(segment a)

  let close t = Skeletons.Resident.close t.res
end
