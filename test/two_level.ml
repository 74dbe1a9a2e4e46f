(** The two-level backend the environment selects ([TRIOLET_BACKEND]):
    in-process when it selects the flat one, so a test that pins
    two-level counts stays two-level under every backend. *)
let backend () =
  match (Triolet.Exec.default ()).Triolet.Exec.backend with
  | Triolet_runtime.Cluster.Flat -> Triolet_runtime.Cluster.Inprocess
  | b -> b
