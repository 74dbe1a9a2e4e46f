(** Wire-protocol conformance lint.

    Two checks tie the reified {!Triolet_runtime.Protocol.spec} to the
    code that speaks it:

    - {b spec audit}: [Protocol.check] on the live spec — every frame
      kind any peer can send must have a rule in every state of the
      receiving role, every [Goto] target must exist, no state may
      have two rules for one event.  A spec hole is an [Error]: it is
      exactly the class of bug where a new frame kind is added to the
      sender but one receiver state silently drops or crashes on it.
    - {b sent-kind scan}: parse [lib/runtime/] and [lib/core/] and
      collect every [~kind:K] argument whose value is one of the frame
      constructors.  Each kind actually sent by the code must be
      sendable by {e some} role in the spec; a kind the spec does not
      know about means code and spec have drifted — [Error]. *)

module Protocol = Triolet_runtime.Protocol

let kind_constructors =
  [
    ("Data", Protocol.Data);
    ("Err", Protocol.Err);
    ("Nack", Protocol.Nack);
    ("Ping", Protocol.Ping);
    ("Pong", Protocol.Pong);
    ("Seg_put", Protocol.Seg_put);
    ("Seg_reuse", Protocol.Seg_reuse);
    ("Seg_free", Protocol.Seg_free);
    ("Code", Protocol.Code);
  ]

(* Findings for an arbitrary spec — exposed so tests can seed a spec
   with a missing rule and watch it get caught. *)
let check_spec ?(name = "Protocol.spec") spec =
  List.map
    (fun issue ->
      {
        Passes.pass = "protocol";
        plan = name;
        severity = Passes.Error;
        message = Protocol.issue_to_string issue;
      })
    (Protocol.check spec)

(* Every [~kind:K] construct argument in one parsed file, with its
   line. *)
let sent_kinds_of ast =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_apply (_, args) ->
              List.iter
                (fun (lbl, (a : Parsetree.expression)) ->
                  match (lbl, a.pexp_desc) with
                  | ( Asttypes.Labelled "kind",
                      Pexp_construct ({ txt; _ }, None) ) -> (
                      let last = Longident.last txt in
                      match List.assoc_opt last kind_constructors with
                      | Some k ->
                          out := (last, k, a.pexp_loc.loc_start.pos_lnum) :: !out
                      | None -> ())
                  | _ -> ())
                args
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it ast;
  List.rev !out

let sendable_by_someone spec k =
  Protocol.sendable spec Protocol.Parent k
  || Protocol.sendable spec Protocol.Child k

let run ?(root = ".") () =
  let spec_findings = check_spec Protocol.spec in
  let scan_findings =
    List.concat_map
      (fun (rel, abs) ->
        match
          let ic = open_in_bin abs in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let lb =
                Lexing.from_string
                  (really_input_string ic (in_channel_length ic))
              in
              Lexing.set_filename lb abs;
              Parse.implementation lb)
        with
        | ast ->
            List.filter_map
              (fun (name, k, line) ->
                if sendable_by_someone Protocol.spec k then None
                else
                  Some
                    {
                      Passes.pass = "protocol";
                      plan = Printf.sprintf "%s:%d" rel line;
                      severity = Passes.Error;
                      message =
                        Printf.sprintf
                          "frame kind %s is sent here but no role may send \
                           it in Protocol.spec: code and spec have drifted"
                          name;
                    })
              (sent_kinds_of ast)
        | exception _ -> [])
      (List.concat_map
         (fun dir ->
           let abs = Filename.concat root dir in
           if Sys.file_exists abs && Sys.is_directory abs then
             Sys.readdir abs |> Array.to_list |> List.sort compare
             |> List.filter (fun f -> Filename.check_suffix f ".ml")
             |> List.map (fun f -> (dir ^ "/" ^ f, Filename.concat abs f))
           else [])
         Lockcheck.scan_roots)
  in
  spec_findings @ scan_findings
