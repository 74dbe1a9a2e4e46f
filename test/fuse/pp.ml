(* The [%fuse] rewriter as a standalone driver, for the golden test. *)
let () = Ppxlib.Driver.standalone ()
