(* Distributed matrix multiplication in two lines (paper, section 2).

   Run with:  dune exec examples/matmul_block.exe

   The 2-D block decomposition — each node receives only the rows of A
   and B^T that its output block needs — is not written by hand: it
   falls out of [rows] + [outer_product], whose payloads are row
   slices.  The byte counters prove it. *)

open Triolet
module Cluster = Triolet_runtime.Cluster
module Stats = Triolet_runtime.Stats

let () =
  Exec.set_ambient (Exec.make ~nodes:(4) ~cores_per_node:(2) ());
  let n = 128 in
  let rng = Triolet_base.Rng.create 2024 in
  let a = Matrix.random rng n n (-1.0) 1.0 in
  let b = Matrix.random rng n n (-1.0) 1.0 in
  let bt = Matrix.transpose_par (Triolet_runtime.Pool.default ()) b in

  (* The paper's two lines:
       zipped_AB = outerproduct(rows(A), rows(BT))
       AB = [dot(u, v) for (u, v) in par(zipped_AB)]              *)
  Stats.reset ();
  let ab, delta =
    Stats.measure (fun () ->
        let zipped_ab = Iter.outer_product (Iter.rows a) (Iter.rows bt) in
        Iter.to_matrix
          (Iter.par (Iter.map (fun (u, v) -> Matrix.view_dot u v) zipped_ab)))
  in

  (* Verify against the straightforward triple loop. *)
  let reference = Matrix.mul_ref ~alpha:1.0 a bt in
  Printf.printf "result matches reference: %b\n"
    (Matrix.equal_eps ~eps:1e-9 reference ab);

  let matrix_bytes = 8 * n * n in
  Printf.printf "one matrix is %d bytes\n" matrix_bytes;
  Printf.printf "bytes shipped (sliced 2-D blocks): %d (%.1f matrices)\n"
    delta.Stats.bytes_sent
    (float_of_int delta.Stats.bytes_sent /. float_of_int matrix_bytes);
  Printf.printf
    "a naive whole-input distribution would ship %d (%.1f matrices)\n"
    (4 * 2 * matrix_bytes) 8.0;
  Printf.printf "messages: %d\n" delta.Stats.messages
