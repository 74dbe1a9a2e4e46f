(** Concurrency lint over the runtime's Mutex discipline.

    The runtime's safety argument leans on hand-rolled locking — the
    pool's condition-variable protocol, the mailbox's poison-on-close,
    the process fabric's teardown serialization, the service
    dispatcher's client queue.  [Unsafe_scan] is grep-shaped and cannot
    see any of it.  This pass parses the runtime sources with
    [compiler-libs] (no new dependency: the parser ships with the
    compiler) and runs a small flow-sensitive walker over every
    top-level function:

    - {b lock-acquisition graph}: every [Mutex.lock] reached while
      another lock is held adds an edge [held → acquired] (including
      locks acquired inside callees, via per-function summaries closed
      transitively over the call graph).  A cycle in that graph is a
      lock-order inversion — two threads taking the same pair of locks
      in opposite orders can deadlock — and is an [Error].  The graph
      is exportable as DOT for the CI artifact.
    - {b blocking under a lock}: a call to a blocking primitive
      ([Unix.read]/[select]/[sleepf]…, [Mailbox.recv], [Thread.join],
      [Domain.join], the transport receive family) while any lock is
      held stalls every thread that wants that lock — [Error].
    - {b condition-wait shape}: [Condition.wait] must name a mutex the
      walker knows is held, must sit inside a loop (a [while]/[for]
      body or a recursive binding — the wait-loop idiom that absorbs
      spurious wakeups), and must not be nested under any {e other}
      lock (the wait releases only its own mutex) — each an [Error].
    - {b lock ratchet}: raw [Mutex.create]/[Atomic.make] introductions
      are counted per file against {!whitelist}, like the unsafe-access
      ratchet: over the audited allowance is an [Error], under it an
      [Info] asking for the allowance to be lowered.

    The walker threads a held-lock stack through sequencing, lets,
    branches (joining by intersection, ignoring diverging branches so
    the [lock; if bad then (unlock; raise …)] idiom keeps its facts),
    [Fun.protect] (body first, then [~finally]), and loops.  Local
    [let]-bound functions are inlined at their call sites with the
    caller's lock state — the dispatcher's idiom of a local helper
    that unlocks the caller's mutex before blocking is analyzed as
    written, not guessed at — with a guard that stops recursive
    inlining.  Cross-function effects travel only through summaries of
    {e lock acquisition}; blocking-ness deliberately does not
    propagate (a callee that blocks under its own discipline, like a
    bounded queue's wait loop, is not an error at every call site). *)

type edge = {
  from_lock : string;  (** held when… *)
  to_lock : string;  (** …this one was acquired *)
  file : string;
  line : int;
  via : string option;  (** callee whose summary supplied the edge *)
}

(** Audited (file, allowed [Mutex.create] + [Atomic.make] count)
    pairs, paths relative to the repo root.  Grow a file's allowance
    only with a comment in the reviewed change explaining the new
    primitive's discipline; shrink it when one is retired. *)
let whitelist =
  [
    ("lib/core/skeletons.ml", 1);
    ("lib/runtime/fault.ml", 1);
    ("lib/runtime/mailbox.ml", 1);
    ("lib/runtime/pool.ml", 7);
    ("lib/runtime/protocol.ml", 1);
    ("lib/runtime/service.ml", 1);
    (* stats.ml's 25th atomic is the standalone payload-encode counter:
       a monotone count bumped only inside scatter serialization spans,
       read only by tests and reports — no ordering discipline needed. *)
    ("lib/runtime/stats.ml", 25);
    ("lib/runtime/transport.ml", 1);
    ("lib/runtime/wsdeque.ml", 2);
  ]

let scan_roots = [ "lib/runtime"; "lib/core" ]

(* Calls that can park the calling thread for unbounded (or scheduled)
   time.  Matched on the dotted path as written at the call site. *)
let blocking_calls =
  [
    "Unix.read";
    "Unix.write";
    "Unix.select";
    "Unix.sleep";
    "Unix.sleepf";
    "Unix.recv";
    "Unix.send";
    "Unix.waitpid";
    "Unix.accept";
    "Unix.connect";
    "Thread.join";
    "Thread.delay";
    "Domain.join";
    "Mailbox.recv";
    "Mailbox.recv_timeout";
    "Transport.Socket.recv";
    "Transport.Socket.recv_timeout";
    "Transport.Proc.recv_any";
  ]

(* ------------------------------------------------------------------ *)
(* Parsetree helpers.                                                  *)

let rec flat = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flat p @ [ s ]
  | Longident.Lapply (a, b) -> flat a @ flat b

let path_str p = String.concat "." p

let fn_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flat txt)
  | _ -> None

let line_of (e : Parsetree.expression) = e.pexp_loc.loc_start.pos_lnum

(* The lock's identity: a bare name or record field collapses to
   <module path>.<name> (every [t.lock] of one module is the same lock
   for ordering purposes); an already-qualified name is used as
   written. *)
let lock_name modpath (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } -> path_str (modpath @ [ x ])
  | Pexp_ident { txt; _ } -> path_str (flat txt)
  | Pexp_field (_, { txt; _ }) ->
      path_str (modpath @ [ Longident.last txt ])
  | _ -> path_str (modpath @ [ "<expr>" ])

(* Does evaluation of [e] always end in an exception?  Branches that
   diverge are excluded from lock-state joins, so the
   [lock; if bad then (unlock; raise …); …] idiom does not poison the
   main path's held set. *)
let rec diverges (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match path_str (flat txt) with
      | "raise" | "raise_notrace" | "failwith" | "invalid_arg" -> true
      | _ -> false)
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      true
  | Pexp_sequence (_, e) | Pexp_let (_, _, e) -> diverges e
  | Pexp_ifthenelse (_, t, Some e) -> diverges t && diverges e
  | Pexp_match (_, cases) ->
      cases <> [] && List.for_all (fun c -> diverges c.Parsetree.pc_rhs) cases
  | _ -> false

let rec strip_fun (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_fun body
  | Pexp_newtype (_, body) -> strip_fun body
  | _ -> e

let is_fun (e : Parsetree.expression) =
  match (strip_fun e).pexp_desc with
  | Pexp_function _ -> true
  | _ -> ( match e.pexp_desc with Pexp_fun _ | Pexp_newtype _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Per-function summaries: which locks a top-level function (or
   anything it calls, transitively) may acquire.                       *)

module S = Set.Make (String)

type summary = { mutable acquires : S.t; calls : (string list * string list) list }
(* calls: (caller module path, callee dotted path) — the module path is
   needed to resolve bare or partially qualified callee names. *)

let summaries : (string, summary) Hashtbl.t = Hashtbl.create 64

(* Resolve a callee path against the summary table: try it qualified
   under every prefix of the caller's module path, longest first, then
   as written.  [Socket.recv] inside module Transport resolves to
   "Transport.Socket.recv"; [Dispatch.step] anywhere resolves to
   itself. *)
let resolve_call modpath callee =
  let rec prefixes = function
    | [] -> [ [] ]
    | _ :: _ as p -> p :: prefixes (List.rev (List.tl (List.rev p)))
  in
  List.find_map
    (fun pre ->
      let key = path_str (pre @ callee) in
      if Hashtbl.mem summaries key then Some key else None)
    (prefixes modpath)

let summary_acquires modpath callee =
  match resolve_call modpath callee with
  | Some key -> Some (key, (Hashtbl.find summaries key).acquires)
  | None -> None

(* ------------------------------------------------------------------ *)
(* The flow-sensitive walker.                                          *)

type ctx = {
  file : string;  (** repo-relative path, for findings *)
  modpath : string list;
  locals : (string * (Parsetree.expression * bool)) list;
      (** let-bound local functions in scope (body, is-recursive) *)
  findings : Passes.finding list ref;
  edges : edge list ref;
}

type env = {
  held : string list;  (** innermost-first lock stack *)
  in_loop : bool;
  inlining : string list;  (** local functions currently being inlined *)
}

let err ctx line message =
  ctx.findings :=
    {
      Passes.pass = "locks";
      plan = Printf.sprintf "%s:%d" ctx.file line;
      severity = Passes.Error;
      message;
    }
    :: !(ctx.findings)

let add_edge ctx line ?via from_lock to_lock =
  if
    not
      (List.exists
         (fun e -> e.from_lock = from_lock && e.to_lock = to_lock)
         !(ctx.edges))
  then
    ctx.edges :=
      { from_lock; to_lock; file = ctx.file; line; via } :: !(ctx.edges)

let join entry results =
  let live = List.filter (fun (_, d) -> not d) results in
  match live with
  | [] -> entry
  | (e0, _) :: rest ->
      {
        entry with
        held =
          List.filter
            (fun l -> List.for_all (fun (e, _) -> List.mem l e.held) rest)
            e0.held;
      }

let rec walk ctx env (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (fn, args) -> walk_apply ctx env e fn args
  | Pexp_sequence (a, b) ->
      let env = walk ctx env a in
      walk ctx env b
  | Pexp_let (rf, vbs, body) ->
      let is_rec = rf = Asttypes.Recursive in
      let locals =
        List.fold_left
          (fun acc (vb : Parsetree.value_binding) ->
            match (vb.pvb_pat.ppat_desc, is_fun vb.pvb_expr) with
            | Ppat_var { txt; _ }, true -> (txt, (vb.pvb_expr, is_rec)) :: acc
            | _ -> acc)
          ctx.locals vbs
      in
      (* Non-function bindings execute now; function bodies are
         analyzed when (and if) the local is called. *)
      let env =
        List.fold_left
          (fun env (vb : Parsetree.value_binding) ->
            if is_fun vb.pvb_expr then env else walk ctx env vb.pvb_expr)
          env vbs
      in
      walk { ctx with locals } env body
  | Pexp_ifthenelse (c, t, eo) ->
      let env = walk ctx env c in
      let rt = walk ctx env t in
      let results =
        (rt, diverges t)
        ::
        (match eo with
        | Some el -> [ (walk ctx env el, diverges el) ]
        | None -> [ (env, false) ])
      in
      join env results
  | Pexp_match (scr, cases) ->
      let env = walk ctx env scr in
      walk_cases ctx env cases
  | Pexp_try (body, cases) ->
      let envb = walk ctx env body in
      let envc = walk_cases ctx env cases in
      join env [ (envb, diverges body); (envc, false) ]
  | Pexp_while (c, b) ->
      let env' = walk ctx env c in
      ignore (walk ctx { env' with in_loop = true } b);
      env'
  | Pexp_for (_, lo, hi, _, b) ->
      let env' = walk ctx (walk ctx env lo) hi in
      ignore (walk ctx { env' with in_loop = true } b);
      env'
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
      (* A lambda literal: its body runs with the lock state at the
         point it appears (the callback / thunk idiom); defining it
         changes nothing for the definer. *)
      ignore (walk ctx env body);
      env
  | Pexp_function cases ->
      ignore (walk_cases ctx env cases);
      env
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> walk ctx env e
  | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> walk ctx env e
  | Pexp_tuple es | Pexp_array es -> List.fold_left (walk ctx) env es
  | Pexp_record (fields, base) ->
      let env =
        match base with Some b -> walk ctx env b | None -> env
      in
      List.fold_left (fun env (_, e) -> walk ctx env e) env fields
  | Pexp_field (e, _) -> walk ctx env e
  | Pexp_setfield (a, _, b) -> walk ctx (walk ctx env a) b
  | Pexp_assert e | Pexp_lazy e ->
      ignore (walk ctx env e);
      env
  | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) ->
      walk ctx env e
  | _ -> env

and walk_cases ctx env cases =
  let results =
    List.map
      (fun (c : Parsetree.case) ->
        (match c.pc_guard with Some g -> ignore (walk ctx env g) | None -> ());
        (walk ctx env c.pc_rhs, diverges c.pc_rhs))
      cases
  in
  join env results

and walk_apply ctx env e fn args =
  let line = line_of e in
  match fn_path fn with
  | Some [ "Mutex"; "lock" ] -> (
      match args with
      | (_, arg) :: _ ->
          let l = lock_name ctx.modpath arg in
          (match env.held with
          | outer :: _ when outer = l ->
              err ctx line
                (Printf.sprintf "relock of %s while already held" l)
          | outer :: _ -> add_edge ctx line outer l
          | [] -> ());
          { env with held = l :: env.held }
      | [] -> env)
  | Some [ "Mutex"; "unlock" ] -> (
      match args with
      | (_, arg) :: _ ->
          let l = lock_name ctx.modpath arg in
          { env with held = List.filter (fun h -> h <> l) env.held }
      | [] -> env)
  | Some [ "Condition"; "wait" ] ->
      (match args with
      | [ (_, _cond); (_, m) ] ->
          let l = lock_name ctx.modpath m in
          if not (List.mem l env.held) then
            err ctx line
              (Printf.sprintf
                 "Condition.wait on %s without that mutex held" l)
          else if List.exists (fun h -> h <> l) env.held then
            err ctx line
              (Printf.sprintf
                 "Condition.wait on %s while also holding %s: the wait \
                  releases only its own mutex"
                 l
                 (String.concat ", "
                    (List.filter (fun h -> h <> l) env.held)));
          if not env.in_loop then
            err ctx line
              (Printf.sprintf
                 "Condition.wait on %s outside a wait-loop: spurious \
                  wakeups require re-checking the predicate in a loop"
                 l)
      | _ -> ());
      env
  | Some [ "Fun"; "protect" ] ->
      (* Body thunk first, then ~finally, threading the lock state —
         the runtime's lock/protect/unlock idiom. *)
      let body =
        List.find_map
          (function Asttypes.Nolabel, a -> Some a | _ -> None)
          args
      in
      let fin =
        List.find_map
          (function Asttypes.Labelled "finally", a -> Some a | _ -> None)
          args
      in
      let env =
        match body with
        | Some b -> walk ctx env (strip_fun b)
        | None -> env
      in
      let env =
        match fin with
        | Some f -> walk ctx env (strip_fun f)
        | None -> env
      in
      env
  | Some path -> (
      (* Arguments evaluate (and lambda arguments are read) with the
         current lock state. *)
      let env = List.fold_left (fun env (_, a) -> walk ctx env a) env args in
      match path with
      | [ name ] when List.mem_assoc name ctx.locals ->
          if List.mem name env.inlining then env
          else
            let body, is_rec = List.assoc name ctx.locals in
            let env' =
              walk ctx
                {
                  env with
                  inlining = name :: env.inlining;
                  in_loop = env.in_loop || is_rec;
                }
                (strip_fun body)
            in
            { env' with inlining = env.inlining; in_loop = env.in_loop }
      | _ ->
          let dotted = path_str path in
          if env.held <> [] && List.mem dotted blocking_calls then
            err ctx line
              (Printf.sprintf "blocking call %s while holding %s" dotted
                 (String.concat ", " env.held))
          else if env.held <> [] then begin
            match summary_acquires ctx.modpath path with
            | Some (key, acq) ->
                S.iter
                  (fun l ->
                    if not (List.mem l env.held) then
                      add_edge ctx line ~via:key (List.hd env.held) l)
                  acq
            | None -> ()
          end;
          env)
  | None ->
      let env = walk ctx env fn in
      List.fold_left (fun env (_, a) -> walk ctx env a) env args

(* ------------------------------------------------------------------ *)
(* Summary collection (pass A).                                        *)

let collect_summaries ~file:_ modpath (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ } ->
      let acquires = ref S.empty and calls = ref [] in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_apply (fn, args) -> (
                  match fn_path fn with
                  | Some [ "Mutex"; "lock" ] -> (
                      match args with
                      | (_, a) :: _ ->
                          acquires :=
                            S.add (lock_name modpath a) !acquires
                      | [] -> ())
                  | Some p -> calls := (modpath, p) :: !calls
                  | None -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.expr it vb.pvb_expr;
      Hashtbl.replace summaries
        (path_str (modpath @ [ name ]))
        { acquires = !acquires; calls = !calls }
  | _ -> ()

(* Close acquisition sets over the call graph: a function that calls
   (however deeply) something that locks L "may acquire L". *)
let close_summaries () =
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ s ->
        List.iter
          (fun (modpath, callee) ->
            match summary_acquires modpath callee with
            | Some (_, acq) ->
                let merged = S.union s.acquires acq in
                if not (S.equal merged s.acquires) then begin
                  s.acquires <- merged;
                  changed := true
                end
            | None -> ())
          s.calls)
      summaries
  done

(* ------------------------------------------------------------------ *)
(* Structure traversal shared by both passes.                          *)

let rec iter_structure f modpath (items : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (rf, vbs) -> List.iter (f modpath rf) vbs
      | Pstr_module mb -> iter_module_binding f modpath mb
      | Pstr_recmodule mbs -> List.iter (iter_module_binding f modpath) mbs
      | _ -> ())
    items

and iter_module_binding f modpath (mb : Parsetree.module_binding) =
  let name = match mb.pmb_name.txt with Some n -> [ n ] | None -> [] in
  iter_module_expr f (modpath @ name) mb.pmb_expr

and iter_module_expr f modpath (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure items -> iter_structure f modpath items
  | Pmod_constraint (me, _) -> iter_module_expr f modpath me
  | Pmod_functor (_, me) -> iter_module_expr f modpath me
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* File plumbing.                                                      *)

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  let lb = Lexing.from_string (read_file path) in
  Lexing.set_filename lb path;
  Parse.implementation lb

let source_files root =
  List.concat_map
    (fun dir ->
      let abs = Filename.concat root dir in
      if Sys.file_exists abs && Sys.is_directory abs then
        Sys.readdir abs |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".ml")
        |> List.map (fun f -> (dir ^ "/" ^ f, Filename.concat abs f))
      else [])
    scan_roots

(* ------------------------------------------------------------------ *)
(* Ratchet: raw lock/atomic introductions per file.                    *)

let count_creations ast =
  let n = ref 0 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match path_str (flat txt) with
              | "Mutex.create" | "Atomic.make" -> incr n
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it ast;
  !n

let ratchet_findings parsed =
  List.filter_map
    (fun (rel, _abs, ast) ->
      let n = count_creations ast in
      let allowed =
        match List.assoc_opt rel whitelist with Some a -> a | None -> 0
      in
      if n > allowed then
        Some
          {
            Passes.pass = "lock-ratchet";
            plan = rel;
            severity = Passes.Error;
            message =
              Printf.sprintf
                "%d Mutex.create/Atomic.make site(s), %d audited: review \
                 the new primitive's discipline and raise the allowance in \
                 Lockcheck.whitelist"
                n allowed;
          }
      else if n < allowed then
        Some
          {
            Passes.pass = "lock-ratchet";
            plan = rel;
            severity = Passes.Info;
            message =
              Printf.sprintf
                "%d site(s) under the audited %d: lower the allowance" n
                allowed;
          }
      else None)
    parsed

(* ------------------------------------------------------------------ *)
(* Cycle detection over the lock graph.                                *)

let find_cycles edges =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace adj e.from_lock
        (e :: (Option.value ~default:[] (Hashtbl.find_opt adj e.from_lock))))
    edges;
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun e -> [ e.from_lock; e.to_lock ]) edges)
  in
  let cycles = ref [] in
  let color = Hashtbl.create 16 in
  (* 0 = white, 1 = on stack, 2 = done *)
  let rec dfs path n =
    match Hashtbl.find_opt color n with
    | Some 1 ->
        (* back edge: the suffix of [path] from [n] is a cycle *)
        let rec suffix = function
          | [] -> []
          | e :: rest ->
              if e.from_lock = n then [ e ] else e :: suffix rest
        in
        cycles := List.rev (suffix path) :: !cycles
    | Some 2 -> ()
    | _ ->
        Hashtbl.replace color n 1;
        List.iter
          (fun e -> dfs (e :: path) e.to_lock)
          (Option.value ~default:[] (Hashtbl.find_opt adj n));
        Hashtbl.replace color n 2
  in
  List.iter (fun n -> if not (Hashtbl.mem color n) then dfs [] n) nodes;
  !cycles

let cycle_findings edges =
  List.map
    (fun cycle ->
      let path =
        String.concat " -> "
          (List.map (fun e -> e.from_lock) cycle
          @ [ (List.hd cycle).from_lock ])
      in
      let sites =
        String.concat ", "
          (List.map
             (fun (e : edge) -> Printf.sprintf "%s:%d" e.file e.line)
             cycle)
      in
      {
        Passes.pass = "locks";
        plan = (List.hd cycle).file;
        severity = Passes.Error;
        message =
          Printf.sprintf "lock-order inversion: %s (acquisitions at %s)" path
            sites;
      })
    (find_cycles edges)

(* ------------------------------------------------------------------ *)
(* DOT export for the CI artifact.                                     *)

let dot_of_edges edges =
  let b = Buffer.create 256 in
  Buffer.add_string b "digraph lock_order {\n";
  Buffer.add_string b "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun e -> [ e.from_lock; e.to_lock ]) edges)
  in
  List.iter (fun n -> Buffer.add_string b (Printf.sprintf "  %S;\n" n)) nodes;
  List.iter
    (fun e ->
      let label =
        match e.via with
        | Some v -> Printf.sprintf "%s:%d (via %s)" e.file e.line v
        | None -> Printf.sprintf "%s:%d" e.file e.line
      in
      Buffer.add_string b
        (Printf.sprintf "  %S -> %S [label=%S];\n" e.from_lock e.to_lock label))
    (List.rev edges);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let run ?(root = ".") () =
  Hashtbl.reset summaries;
  let findings = ref [] and edges = ref [] in
  let parsed =
    List.filter_map
      (fun (rel, abs) ->
        match parse_file abs with
        | ast -> Some (rel, abs, ast)
        | exception e ->
            findings :=
              {
                Passes.pass = "locks";
                plan = rel;
                severity = Passes.Warning;
                message = "parse failed: " ^ Printexc.to_string e;
              }
              :: !findings;
            None)
      (source_files root)
  in
  (* Pass A: summaries for every top-level binding, then transitive
     closure of acquisition sets over the call graph. *)
  List.iter
    (fun (rel, _abs, ast) ->
      iter_structure
        (fun modpath _rf vb -> collect_summaries ~file:rel modpath vb)
        [ module_of_file rel ] ast)
    parsed;
  close_summaries ();
  (* Pass B: the flow walk. *)
  List.iter
    (fun (rel, _abs, ast) ->
      iter_structure
        (fun modpath rf (vb : Parsetree.value_binding) ->
          let ctx = { file = rel; modpath; locals = []; findings; edges } in
          let env =
            {
              held = [];
              in_loop = rf = Asttypes.Recursive;
              inlining = [];
            }
          in
          ignore (walk ctx env (strip_fun vb.pvb_expr)))
        [ module_of_file rel ] ast)
    parsed;
  let findings =
    List.rev !findings @ cycle_findings !edges @ ratchet_findings parsed
  in
  (findings, List.rev !edges)
