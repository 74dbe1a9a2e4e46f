(* [%fuse e]: compile-time closure elimination for one closed shape of
   iterator pipeline (see DESIGN.md, "Stream fusion").

   Grammar, after [x |> f a] is read as [f a x]:

     fuse     ::= let p = e [and ...] in fuse
                | consumer producer
     consumer ::= Iter.histogram [~ctx|?ctx] ~bins:e
                | Iter.scatter_add [~ctx|?ctx] ~size:e
                | Iter.sum [~ctx|?ctx]
                | Iter.to_matrix [~ctx|?ctx]     (over a tile only)
     producer ::= let p = e [and ...] in producer
                | Iter.map ifn producer
                | Iter.concat_map ibody producer
                | hint producer
                | x                          (a [let] above bound it to a producer)
                | outer                      (any other expression)
     hint     ::= Iter.par | Iter.localpar | Iter.sequential | Iter.with_hint e
     tile     ::= Iter.map tfn outer    (outer: hint* (Iter.outer_product
                                          (Iter.rows e) (Iter.rows e)))
     tfn      ::= let p = e [and ...] in tfn
                | fun (u, v) -> e       (u and v used only as
                                          Matrix.view_dot u v or v u)
     ifn      ::= let p = e [and ...] in ifn | fn
     ibody    ::= let p = e [and ...] in ibody | fun p -> body
     body     ::= let p = e [and ...] in body | nest
     nest     ::= Seq_iter.range lo hi
                | Seq_iter.map fn nest
                | Seq_iter.filter fn nest
                | Seq_iter.filter_map fn nest
                | Seq_iter.concat_map (fun p -> body) nest
     fn       ::= fun p -> e | function cases | identifier

   with at least one [Iter.map] or [Iter.concat_map].  At a [fuse],
   [producer], [ifn] or [ibody] position, [f args] may name a top-level
   [let[@fuse] f params = e] of the same file, written before the site:
   it reads as [let params = args in e] (the parameters still to come
   left as a [fun]).  So one definition is both the library value other
   code calls and the text a site compiles.

   The consumer becomes one call to [Iter.run_reduce] over [outer],
   with the hint wrappers moved onto it ([map] and [concat_map] keep
   their input's shape and hint), so partitioning, distribution and
   merge order are the library's.  [to_matrix] over a tile becomes one
   call to [Iter.fill_matrix] over [outer] instead: each band is a
   [for i] / [for j] nest over the two row blocks the band's payload
   names, the function's body written in place with each dot a call to
   [Matrix.dot_range], [Matrix.view_dot]'s loop by offset.  The [let]s outside the nest are
   evaluated once, before the call, in the order met; one bound to a
   producer is read where it is used instead.  The per-band fold walks
   the band's outer elements with [Seq_iter.iter] and runs each through
   a plain [for] nest: every lambda is beta-reduced in place, and the
   consumer's update is inlined with [Collector]'s out-of-range drop.

   Any other expression, or a recognised one whose inlining would let a
   binder capture a free variable, expands to itself unchanged. *)

open Ppxlib
module B = Ast_builder.Default
module S = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)

let pat_vars p =
  (object
     inherit [S.t] Ast_traverse.fold as super

     method! pattern p acc =
       let acc = super#pattern p acc in
       match p.ppat_desc with
       | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> S.add txt acc
       | _ -> acc
  end)
    #pattern p S.empty

let vbs_vars vbs =
  List.fold_left (fun s vb -> S.union s (pat_vars vb.pvb_pat)) S.empty vbs

(* Free variables, over-approximated: a binding form not handled here
   counts its bound names as free, which can only refuse a rewrite. *)
let rec fv e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } -> S.singleton x
  | Pexp_let (Nonrecursive, vbs, body) ->
      List.fold_left
        (fun s vb -> S.union s (fv vb.pvb_expr))
        (S.diff (fv body) (vbs_vars vbs))
        vbs
  | Pexp_let (Recursive, vbs, body) ->
      S.diff
        (List.fold_left (fun s vb -> S.union s (fv vb.pvb_expr)) (fv body) vbs)
        (vbs_vars vbs)
  | Pexp_function (params, _, body) ->
      let rec go bound = function
        | [] -> (
            match body with
            | Pfunction_body e -> S.diff (fv e) bound
            | Pfunction_cases (cases, _, _) -> S.diff (fv_cases cases) bound)
        | { pparam_desc = Pparam_val (_, default, p); _ } :: rest ->
            let d =
              match default with
              | Some d -> S.diff (fv d) bound
              | None -> S.empty
            in
            S.union d (go (S.union bound (pat_vars p)) rest)
        | { pparam_desc = Pparam_newtype _; _ } :: rest -> go bound rest
      in
      go S.empty params
  | Pexp_match (e, cases) | Pexp_try (e, cases) ->
      S.union (fv e) (fv_cases cases)
  | Pexp_for (p, a, b, _, body) ->
      S.union (S.union (fv a) (fv b)) (S.diff (fv body) (pat_vars p))
  | _ ->
      (object
         inherit [S.t] Ast_traverse.fold
         method! expression e acc = S.union (fv e) acc
      end)
        #expression_desc e.pexp_desc S.empty

and fv_cases cases =
  List.fold_left
    (fun s c ->
      let guard = match c.pc_guard with Some g -> fv g | None -> S.empty in
      S.union s (S.diff (S.union guard (fv c.pc_rhs)) (pat_vars c.pc_lhs)))
    S.empty cases

(* Generated names carry a prefix; an input that mentions it anywhere is
   left alone. *)
let prefix = "fuse__"

let mentions_prefix e =
  (object
     inherit [bool] Ast_traverse.fold as super

     method! expression e acc =
       match e.pexp_desc with
       | Pexp_ident { txt = Lident x; _ } when String.starts_with ~prefix x ->
           true
       | _ -> super#expression e acc

     method! pattern p acc =
       S.exists (String.starts_with ~prefix) (pat_vars p) || super#pattern p acc
  end)
    #expression e false

(* ------------------------------------------------------------------ *)
(* The recognised shape                                                *)

exception Refuse

(* A scope maps each name to the binder that binds it; 0 is a binder
   outside the site (a local of the enclosing code, or the top level).
   A source binder has one id in the source and in the emitted code; a
   binder that only the emitted code has gets an id of its own. *)
type scope = (string * int) list

let resolve (scope : scope) x = Option.value ~default:0 (List.assoc_opt x scope)
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let bind scope names id = S.fold (fun x sc -> (x, id) :: sc) names scope

(* Source code moved to a new place, with the scope it was written in
   and its free variables. *)
type 'a src = { it : 'a; senv : scope; free : S.t }

let src senv it free = { it; senv; free }

type fn =
  | Lam of pattern * expression * int  (* [fun p -> e]; [p]'s binder *)
  | Cases of cases
  | Named of expression

type stage =
  | Map of fn src
  | Filter of fn src
  | Filter_map of fn src
  | Concat of body

(* [fun param -> let ... in nest] *)
and body = {
  param : pattern;
  param_id : int;
  lets : (value_binding list * int) src list;
  nest : nest;
}

(* [Seq_iter.range lo hi], then [stages] in execution order. *)
and nest = { lo : expression src; hi : expression src; stages : stage list }

type consumer =
  | Histogram of expression src
  | Scatter_add of expression src
  | Sum
  | To_matrix

(* A [let[@fuse]] definition.  [producer]: its body is a producer. *)
type def = {
  params : function_param list;
  def_body : expression;
  def_free : S.t;
  producer : bool;
}

(* What is evaluated before the fold, in order: a [let] group, with its
   binders' id, or a consumer argument or the outer iterator, which is
   used in place unless its free variables mean something else there. *)
type pre = Group of (value_binding list * int) src | Arg of expression src

type st = {
  defs : (string * def) list;  (* the definitions the site may inline *)
  mutable pre : pre list;  (* latest first *)
  mutable producers : (int * expression src * bool ref) list;
      (* a [let]-bound producer by its binder's id; read yet? *)
}

(* Read [x |> f a] as [f a x], and [(f a) b] as [f a b]. *)
let rec view e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ },
        [ (Nolabel, x); (Nolabel, f) ] ) ->
      let app =
        match (view f).pexp_desc with
        | Pexp_apply (g, args) -> Pexp_apply (g, args @ [ (Nolabel, x) ])
        | _ -> Pexp_apply (f, [ (Nolabel, x) ])
      in
      view { e with pexp_desc = app }
  | Pexp_apply ({ pexp_desc = Pexp_apply (g, a0); _ }, a1) ->
      view { e with pexp_desc = Pexp_apply (g, a0 @ a1) }
  | _ -> e

(* [M.f args] for a module path [M] ending in [modname]. *)
let call modname e =
  match (view e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Ldot (path, f); _ }; _ }, args)
    when Longident.last_exn path = modname ->
      Some (path, f, args)
  | _ -> None

let one_param = function
  | Pexp_function
      ([ { pparam_desc = Pparam_val (Nolabel, None, p); _ } ], None, Pfunction_body b)
    ->
      Some (p, b)
  | _ -> None

let counter = ref 0

let fresh () =
  incr counter;
  Printf.sprintf "%s%d" prefix !counter

(* [f args] with [f] one of [defs]: [f] and its arguments. *)
let def_call defs e =
  match (view e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident f; _ }; _ }, args) ->
      Option.map (fun d -> (d, args)) (List.assoc_opt f defs)
  | _ -> None

(* Whether [e] is written as a producer, seen through [let]s and
   definitions. *)
let rec producer_shape defs e =
  match e.pexp_desc with
  | Pexp_let (_, _, body) -> producer_shape defs body
  | _ -> (
      match (def_call defs e, call "Iter" e) with
      | Some (d, _), _ -> d.producer
      | None, Some (_, ("map" | "concat_map" | "par" | "localpar" | "sequential" | "with_hint"), _)
        ->
          true
      | None, _ -> false)

(* The definitions whose name nothing in the site rebinds at [senv]. *)
let site_defs st senv =
  List.filter (fun (f, _) -> resolve senv f = 0) st.defs

(* [e] names a producer a [let] of the site bound. *)
let bound_producer st senv e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } ->
      List.find_opt (fun (id, _, _) -> id = resolve senv x) st.producers
  | _ -> None

(* A [let] group whose right-hand sides are written in [senv]: a
   producer is recorded, to be read where its name is used; [let x = x]
   binds [x] to the binder it names; the rest is evaluated before the
   fold.  Returns [base] with the group's names bound. *)
let bind_group st ~senv ~base vbs =
  let rest, base =
    List.fold_left
      (fun (rest, base) vb ->
        match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
        | Ppat_var { txt = x; _ }, Pexp_ident { txt = Lident y; _ }
          when x = y && vb.pvb_constraint = None ->
            (rest, (x, resolve senv y) :: base)
        | Ppat_var { txt = x; _ }, _
          when bound_producer st senv vb.pvb_expr <> None
               || producer_shape (site_defs st senv) vb.pvb_expr ->
            let id = fresh_id () in
            st.producers <-
              (id, src senv vb.pvb_expr (fv vb.pvb_expr), ref false) :: st.producers;
            (rest, (x, id) :: base)
        | _ -> (vb :: rest, base))
      ([], base) vbs
  in
  match List.rev rest with
  | [] -> base
  | vbs ->
      let id = fresh_id () in
      let free =
        List.fold_left (fun s vb -> S.union s (fv vb.pvb_expr)) S.empty vbs
      in
      st.pre <- Group (src senv (vbs, id) free) :: st.pre;
      bind base (vbs_vars vbs) id

(* The first element of [l] satisfying [p], and the rest. *)
let rec take p = function
  | [] -> None
  | x :: l when p x -> Some (x, l)
  | x :: l -> Option.map (fun (y, l) -> (y, x :: l)) (take p l)

(* [f args], [f] a definition the site may inline: its parameters bound
   to [args] by a [let] group written in [senv], then its body (a [fun]
   of the parameters not applied), in the body's scope. *)
let unfold st senv e =
  match def_call (site_defs st senv) e with
  | None -> None
  | Some (d, args) ->
      let loc = e.pexp_loc in
      let name = function Nolabel -> None | Labelled l | Optional l -> Some l in
      let positional = List.exists (fun (l, _) -> l = Nolabel) in
      let rec go params args acc =
        match params with
        | [] -> if args = [] then (List.rev acc, []) else raise Refuse
        | { pparam_desc = Pparam_val (Nolabel, _, p); _ } :: rest -> (
            match take (fun (l, _) -> l = Nolabel) args with
            | Some ((_, a), args) -> go rest args ((p, a) :: acc)
            | None when args = [] ->
                let positional_only = function
                  | { pparam_desc = Pparam_val (Nolabel, _, _); _ } -> true
                  | _ -> false
                in
                if List.for_all positional_only params then (List.rev acc, params)
                else raise Refuse
            | None -> raise Refuse)
        | { pparam_desc = Pparam_val (label, default, p); _ } :: rest ->
            let a = take (fun (l, _) -> name l = name label) args in
            let rhs, args =
              match (label, default, a) with
              | Labelled _, _, Some ((Labelled _, a), args)
              | Optional _, None, Some ((Optional _, a), args)
              | Optional _, Some _, Some ((Labelled _, a), args) ->
                  (a, args)
              | Optional _, None, Some ((Labelled _, a), args) ->
                  ([%expr Some [%e a]], args)
              | Optional _, Some dflt, Some ((Optional _, a), args) ->
                  let v = fresh () in
                  ( [%expr
                      match [%e a] with
                      | Some [%p B.pvar ~loc v] -> [%e B.evar ~loc v]
                      | None -> [%e dflt]],
                    args )
              | Optional _, None, None when positional args -> ([%expr None], args)
              | Optional _, Some dflt, None when positional args -> (dflt, args)
              | _ -> raise Refuse
            in
            go rest args ((p, rhs) :: acc)
        | { pparam_desc = Pparam_newtype _; _ } :: _ -> raise Refuse
      in
      let bindings, left = go d.params args [] in
      let vbs =
        List.map (fun (p, e) -> B.value_binding ~loc ~pat:p ~expr:e) bindings
      in
      let body =
        match left with
        | [] -> d.def_body
        | ps -> B.pexp_function ~loc ps None (Pfunction_body d.def_body)
      in
      Some (bind_group st ~senv ~base:[] vbs, body)

let fn_of senv e =
  let it =
    match (one_param e.pexp_desc, e.pexp_desc) with
    | Some (p, b), _ -> Lam (p, b, fresh_id ())
    | None, Pexp_function ([], None, Pfunction_cases (cases, _, _)) -> Cases cases
    | None, Pexp_ident _ -> Named e
    | None, _ -> raise Refuse
  in
  src senv it (fv e)

let rec body_of senv e =
  match one_param e.pexp_desc with
  | Some (param, b) ->
      let param_id = fresh_id () in
      let rec lets senv acc e =
        match e.pexp_desc with
        | Pexp_let (Nonrecursive, vbs, rest) ->
            let free =
              List.fold_left (fun s vb -> S.union s (fv vb.pvb_expr)) S.empty vbs
            in
            let id = fresh_id () in
            lets
              (bind senv (vbs_vars vbs) id)
              (src senv (vbs, id) free :: acc)
              rest
        | _ -> (List.rev acc, nest_of senv e)
      in
      let lets, nest = lets (bind senv (pat_vars param) param_id) [] b in
      { param; param_id; lets; nest }
  | None -> raise Refuse

and nest_of senv e =
  match call "Seq_iter" e with
  | Some (_, "range", [ (Nolabel, lo); (Nolabel, hi) ]) ->
      { lo = src senv lo (fv lo); hi = src senv hi (fv hi); stages = [] }
  | Some
      ( _,
        (("map" | "filter" | "filter_map" | "concat_map") as op),
        [ (Nolabel, f); (Nolabel, inner) ] ) ->
      let n = nest_of senv inner in
      let st =
        match op with
        | "map" -> Map (fn_of senv f)
        | "filter" -> Filter (fn_of senv f)
        | "filter_map" -> Filter_map (fn_of senv f)
        | _ -> Concat (body_of senv f)
      in
      { n with stages = n.stages @ [ st ] }
  | _ -> raise Refuse

(* An [Iter.map] or [Iter.concat_map] function, its [let]s evaluated
   before the fold (the library evaluates them once, too). *)
let rec iter_fn st senv f =
  match f.pexp_desc with
  | Pexp_let (Nonrecursive, vbs, body) ->
      iter_fn st (bind_group st ~senv ~base:senv vbs) body
  | _ -> (
      match unfold st senv f with
      | Some (senv, body) -> iter_fn st senv body
      | None -> (senv, f))

let arg st senv e =
  let a = src senv e (fv e) in
  st.pre <- Arg a :: st.pre;
  a

(* The producer: its stages in execution order, the hint wrappers met
   (innermost first, with [with_hint]'s argument) and the outer
   iterator. *)
let rec producer_of st senv stages hints e =
  let e = view e in
  match (e.pexp_desc, bound_producer st senv e) with
  | Pexp_let (Nonrecursive, vbs, body), _ ->
      producer_of st (bind_group st ~senv ~base:senv vbs) stages hints body
  | _, Some (_, p, read) ->
      if !read then raise Refuse;
      read := true;
      producer_of st p.senv stages hints p.it
  | _ -> (
      match unfold st senv e with
      | Some (senv, body) -> producer_of st senv stages hints body
      | None -> (
          match call "Iter" e with
          | Some (_, "map", [ (Nolabel, f); (Nolabel, x) ]) ->
              let fenv, f = iter_fn st senv f in
              producer_of st senv (Map (fn_of fenv f) :: stages) hints x
          | Some (_, "concat_map", [ (Nolabel, g); (Nolabel, x) ]) ->
              let genv, g = iter_fn st senv g in
              producer_of st senv (Concat (body_of genv g) :: stages) hints x
          | Some (path, (("par" | "localpar" | "sequential") as h), [ (Nolabel, x) ])
            ->
              producer_of st senv stages ((path, h, None) :: hints) x
          | Some (path, "with_hint", [ (Nolabel, h); (Nolabel, x) ]) ->
              let h = arg st senv h in
              producer_of st senv stages ((path, "with_hint", Some h) :: hints) x
          | _ -> (stages, hints, arg st senv e)))

(* (Iter's path, consumer, the [ctx] argument if any, the producer and
   its scope) *)
let rec consumer_of st senv e =
  let e = view e in
  match e.pexp_desc with
  | Pexp_let (Nonrecursive, vbs, body) ->
      consumer_of st (bind_group st ~senv ~base:senv vbs) body
  | _ -> (
      match (unfold st senv e, call "Iter" e) with
      | Some (senv, body), _ -> consumer_of st senv body
      | None, None -> raise Refuse
      | None, Some (path, f, args) ->
          let ctx, rest =
            List.partition
              (function (Labelled "ctx" | Optional "ctx"), _ -> true | _ -> false)
              args
          in
          let ctx = List.map (fun (l, e) -> (l, arg st senv e)) ctx in
          let cons, rest =
            let size l make =
              match List.partition (fun (l', _) -> l' = Labelled l) rest with
              | [ (_, e) ], rest -> (make (arg st senv e), rest)
              | _ -> raise Refuse
            in
            match f with
            | "histogram" -> size "bins" (fun e -> Histogram e)
            | "scatter_add" -> size "size" (fun e -> Scatter_add e)
            | "sum" -> (Sum, rest)
            | "to_matrix" -> (To_matrix, rest)
            | _ -> raise Refuse
          in
          (match (ctx, rest) with
           | ([] | [ _ ]), [ (Nolabel, producer) ] -> (path, cons, ctx, senv, producer)
           | _ -> raise Refuse))

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

(* Moved code must see each free variable bound by the binder it saw
   where it was written. *)
let placeable s (scope : scope) =
  S.for_all (fun x -> resolve scope x = resolve s.senv x) s.free

let place s scope = if not (placeable s scope) then raise Refuse

let is_trivial e =
  match e.pexp_desc with Pexp_ident _ | Pexp_constant _ -> true | _ -> false

(* [let p = rhs in body], minus what beta-reduction leaves behind:
   [let p = (let q = a in b) in c] floats [q] out when [c] does not
   mention its names; a tuple pattern bound to a tuple binds component
   by component, so no tuple is built; [let x = x] disappears. *)
let rec mk_let ~loc p rhs body =
  match (p.ppat_desc, rhs.pexp_desc) with
  | _, Pexp_let (Nonrecursive, vbs, inner)
    when S.disjoint (vbs_vars vbs) (fv body) ->
      B.pexp_let ~loc Nonrecursive vbs (mk_let ~loc p inner body)
  | Ppat_tuple ps, Pexp_tuple es when List.length ps = List.length es ->
      let rec split p e =
        match (p.ppat_desc, e.pexp_desc) with
        | Ppat_tuple ps, Pexp_tuple es when List.length ps = List.length es ->
            List.concat (List.map2 split ps es)
        | Ppat_var { txt; _ }, Pexp_ident { txt = Lident y; _ } when txt = y ->
            []
        | _ -> [ B.value_binding ~loc ~pat:p ~expr:e ]
      in
      (match split p rhs with
       | [] -> body
       | vbs -> B.pexp_let ~loc Nonrecursive vbs body)
  | Ppat_var { txt; _ }, Pexp_ident { txt = Lident y; _ } when txt = y -> body
  | _ ->
      B.pexp_let ~loc Nonrecursive [ B.value_binding ~loc ~pat:p ~expr:rhs ] body

(* [f x] beta-reduced, as an element: an expression evaluated once,
   where the next stage binds it. *)
let apply ~loc f x =
  match f.it with
  | Lam (p, body, _) -> mk_let ~loc p x body
  | Cases cases -> B.pexp_match ~loc x cases
  | Named g -> B.pexp_apply ~loc g [ (Nolabel, x) ]

(* Element [x] made duplicable (a variable or constant, or a tuple of
   them) for [k]. *)
let rec share ~loc scope x k =
  match x.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ -> k scope x
  | Pexp_tuple es ->
      let vs = List.map (fun _ -> fresh ()) es in
      B.pexp_let ~loc Nonrecursive
        (List.map2
           (fun v e -> B.value_binding ~loc ~pat:(B.pvar ~loc v) ~expr:e)
           vs es)
        (k scope (B.pexp_tuple ~loc (List.map (B.evar ~loc) vs)))
  | Pexp_let (Nonrecursive, vbs, inner) ->
      B.pexp_let ~loc Nonrecursive vbs
        (share ~loc (bind scope (vbs_vars vbs) (fresh_id ())) inner k)
  | _ ->
      let v = fresh () in
      B.pexp_let ~loc Nonrecursive
        [ B.value_binding ~loc ~pat:(B.pvar ~loc v) ~expr:x ]
        (k scope (B.evar ~loc v))

(* Run element [x] through [stages], then [k]. *)
let rec run_stages ~loc scope x stages k =
  match stages with
  | [] -> k scope x
  | Map f :: rest ->
      place f scope;
      run_stages ~loc scope (apply ~loc f x) rest k
  | Filter p :: rest ->
      (* [share] can bind names of [x]'s own: place [p] under them *)
      share ~loc scope x (fun scope x ->
          place p scope;
          B.pexp_ifthenelse ~loc (apply ~loc p x)
            (run_stages ~loc scope x rest k)
            None)
  | Filter_map f :: rest -> (
      place f scope;
      let some scope y = run_stages ~loc scope y rest k in
      match f.it with
      | Lam (p, body, id) ->
          mk_let ~loc p x (options ~loc (bind scope (pat_vars p) id) body some)
      | Cases _ | Named _ -> options ~loc scope (apply ~loc f x) some)
  | Concat b :: rest ->
      let rec lets scope = function
        | [] -> nest ~loc scope b.nest (fun scope y -> run_stages ~loc scope y rest k)
        | l :: more ->
            place l scope;
            let vbs, id = l.it in
            B.pexp_let ~loc Nonrecursive vbs
              (lets (bind scope (vbs_vars vbs) id) more)
      in
      mk_let ~loc b.param x (lets (bind scope (pat_vars b.param) b.param_id) b.lets)

(* Continue with [some y] for each [Some y] the option-valued [r]
   yields.  When [r]'s [match]/[if]/[let] arms end in literal [Some]s
   and [None]s, with at most one [Some], the continuation goes into
   that arm and no option is built. *)
and options ~loc scope r some =
  let rec somes e =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Lident "Some"; _ }, Some _) -> Some 1
    | Pexp_construct ({ txt = Lident "None"; _ }, None) -> Some 0
    | Pexp_match (_, cases) ->
        List.fold_left
          (fun acc c -> Option.bind acc (fun a -> Option.map (( + ) a) (somes c.pc_rhs)))
          (Some 0) cases
    | Pexp_ifthenelse (_, a, Some b) ->
        Option.bind (somes a) (fun x -> Option.map (( + ) x) (somes b))
    | Pexp_let (Nonrecursive, _, e) -> somes e
    | _ -> None
  in
  let rec go scope e =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Lident "Some"; _ }, Some y) -> some scope y
    | Pexp_match (scrut, cases) ->
        B.pexp_match ~loc scrut
          (List.map
             (fun c ->
               let scope = bind scope (pat_vars c.pc_lhs) (fresh_id ()) in
               { c with pc_rhs = go scope c.pc_rhs })
             cases)
    | Pexp_ifthenelse (c, a, Some b) ->
        B.pexp_ifthenelse ~loc c (go scope a) (Some (go scope b))
    | Pexp_let (Nonrecursive, vbs, inner) ->
        B.pexp_let ~loc Nonrecursive vbs
          (go (bind scope (vbs_vars vbs) (fresh_id ())) inner)
    | _ -> [%expr ()]
  in
  match somes r with
  | Some n when n <= 1 -> go scope r
  | _ ->
      let y = fresh () in
      [%expr
        match [%e r] with
        | Some [%p B.pvar ~loc y] -> [%e some scope (B.evar ~loc y)]
        | None -> ()]

(* A nest's range as a [for] loop, keeping [Seq_iter.range]'s check of
   its bounds. *)
and nest ~loc scope n k =
  place n.lo scope;
  place n.hi scope;
  let j = fresh () in
  let loop lo hi =
    let for_ =
      [%expr
        for [%p B.pvar ~loc j] = [%e lo] to [%e hi] - 1 do
          [%e run_stages ~loc scope (B.evar ~loc j) n.stages k]
        done]
    in
    match (lo.pexp_desc, hi.pexp_desc) with
    | ( Pexp_constant (Pconst_integer (l, None)),
        Pexp_constant (Pconst_integer (h, None)) )
      when int_of_string l <= int_of_string h ->
        for_
    | _ ->
        [%expr
          if [%e hi] < [%e lo] then Stdlib.invalid_arg "Indexer.range";
          [%e for_]]
  in
  (* a bound that is not trivial is evaluated once, before the check *)
  let bound e k =
    if is_trivial e then k e
    else
      let v = fresh () in
      B.pexp_let ~loc Nonrecursive
        [ B.value_binding ~loc ~pat:(B.pvar ~loc v) ~expr:e ]
        (k (B.evar ~loc v))
  in
  bound n.lo.it (fun lo -> bound n.hi.it (fun hi -> loop lo hi))

(* ------------------------------------------------------------------ *)
(* The tile                                                            *)

(* [Iter.outer_product (Iter.rows _) (Iter.rows _)] *)
let rows_product e =
  match call "Iter" e with
  | Some (_, "outer_product", [ (Nolabel, a); (Nolabel, b) ]) -> (
      match (call "Iter" a, call "Iter" b) with
      | Some (_, "rows", [ (Nolabel, _) ]), Some (_, "rows", [ (Nolabel, _) ]) -> true
      | _ -> false)
  | _ -> false

(* Whether [e] binds any of [names] anywhere. *)
let binds names e =
  (object
     inherit [bool] Ast_traverse.fold as super
     method! pattern p acc = acc || (not (S.disjoint names (pat_vars p))) || super#pattern p acc
  end)
    #expression e false

(* [to_matrix] over [Iter.map (fun (u, v) -> body) outer], [outer] a
   hinted product of two [rows]: [Iter.fill_matrix] over [outer], whose
   band fill runs rows [off, off+n) of the first row block against every
   row of the second.  [body] is written in place, each
   [Matrix.view_dot u v] (or [v u]) a [Matrix.dot_range] over the two
   rows by offset: [view_dot]'s own loop, so the tile equals the library
   bit for bit. *)
let tile ~loc ~path ~scope ~stages ~tile_outer ~outer ~ctx =
  let u, v, body, f =
    match stages with
    | [ Map ({ it = Lam ({ ppat_desc = Ppat_tuple [ pu; pv ]; _ }, body, _); _ } as f) ] -> (
        match (pu.ppat_desc, pv.ppat_desc) with
        | Ppat_var { txt = u; _ }, Ppat_var { txt = v; _ } when u <> v -> (u, v, body, f)
        | _ -> raise Refuse)
    | _ -> raise Refuse
  in
  if not (rows_product tile_outer) then raise Refuse;
  let uv = S.of_list [ u; v ] in
  if binds uv body then raise Refuse;
  place f scope;
  let matrix =
    match path with
    | Lident _ -> Lident "Matrix"
    | Ldot (p, _) -> Ldot (p, "Matrix")
    | Lapply _ -> raise Refuse
  in
  let m name = B.pexp_ident ~loc { loc; txt = Ldot (matrix, name) } in
  let iter name = B.pexp_ident ~loc { loc; txt = Ldot (path, name) } in
  let p = fresh () and a = fresh () and b = fresh () and k = fresh ()
  and nc = fresh () and da = fresh () and db = fresh () and out = fresh ()
  and off = fresh () and n = fresh () and i = fresh () and j = fresh ()
  and ai = fresh () and bj = fresh () in
  let e = B.evar ~loc and pv = B.pvar ~loc in
  (* [Matrix.dot_range] checks its two ranges once and reads them
     unchecked, so the expansion makes no unchecked access of its own:
     a [for l] over checked reads here ran no faster than the library. *)
  let dot first =
    let ra = (e da, e ai) and rb = (e db, e bj) in
    let (x, xo), (y, yo) = if first = u then (ra, rb) else (rb, ra) in
    B.pexp_apply ~loc (m "dot_range")
      [ (Nolabel, x); (Nolabel, xo); (Nolabel, y); (Nolabel, yo); (Nolabel, e k) ]
  in
  let ident x = match x.pexp_desc with Pexp_ident { txt = Lident y; _ } -> Some y | _ -> None in
  let body =
    (object
       inherit Ast_traverse.map as super

       method! expression x =
         match call "Matrix" x with
         | Some (_, "view_dot", [ (Nolabel, x1); (Nolabel, x2) ]) -> (
             match (ident x1, ident x2) with
             | Some a1, Some a2 when S.equal (S.of_list [ a1; a2 ]) uv -> dot a1
             | _ -> super#expression x)
         | _ -> super#expression x
    end)
      #expression body
  in
  if not (S.disjoint uv (fv body)) then raise Refuse;
  let fill =
    [%expr
      fun [%p pv p] ->
        let [%p pv a], [%p pv b] = [%e iter "row_blocks"] [%e e p] in
        let [%p pv k] = [%e m "cols"] [%e e a]
        and [%p pv nc] = [%e m "rows"] [%e e b]
        and [%p pv da] = [%e m "data"] [%e e a]
        and [%p pv db] = [%e m "data"] [%e e b] in
        if [%e m "rows"] [%e e a] > 0 && [%e e nc] > 0 && [%e m "cols"] [%e e b] <> [%e e k]
        then Stdlib.invalid_arg "Matrix.view_dot";
        fun [%p pv out] [%p pv off] [%p pv n] ->
          for [%p pv i] = [%e e off] to [%e e off] + [%e e n] - 1 do
            let [%p pv ai] = [%e e i] * [%e e k] in
            for [%p pv j] = 0 to [%e e nc] - 1 do
              let [%p pv bj] = [%e e j] * [%e e k] in
              Stdlib.Float.Array.set [%e e out] (([%e e i] * [%e e nc]) + [%e e j]) [%e body]
            done
          done]
  in
  B.pexp_apply ~loc (iter "fill_matrix") (ctx @ [ (Labelled "fill", fill); (Nolabel, outer) ])

(* ------------------------------------------------------------------ *)
(* The band fold                                                       *)

let fuse ~loc ~defs e =
  if mentions_prefix e then raise Refuse;
  counter := 0;
  let st = { defs; pre = []; producers = [] } in
  let path, cons, ctx, senv, producer = consumer_of st [] e in
  let stages, hints, outer = producer_of st senv [] [] producer in
  if stages = [] then raise Refuse;
  if List.exists (fun (_, _, read) -> not !read) st.producers then raise Refuse;
  let pre = List.rev st.pre in
  (* the scope the fold is emitted in *)
  let scope =
    List.fold_left
      (fun sc -> function
        | Group g -> bind sc (vbs_vars (fst g.it)) (snd g.it)
        | Arg _ -> sc)
      [] pre
  in
  let named =
    List.filter_map
      (function
        | Arg a when not (placeable a scope) -> Some (a, fresh ())
        | Arg _ | Group _ -> None)
      pre
  in
  let use a =
    match List.assq_opt a named with Some v -> B.evar ~loc v | None -> a.it
  in
  let id p name = B.pexp_ident ~loc { loc; txt = Ldot (p, name) } in
  let tile_outer = outer.it in
  let outer =
    List.fold_left
      (fun acc (p, h, a) ->
        let a = Option.to_list (Option.map (fun a -> (Nolabel, use a)) a) in
        B.pexp_apply ~loc (id p h) (a @ [ (Nolabel, acc) ]))
      (use outer) hints
  in
  let seq_iter =
    match path with
    | Lident _ -> Lident "Seq_iter"
    | Ldot (p, _) -> Ldot (p, "Seq_iter")
    | Lapply _ -> raise Refuse
  in
  let acc = fresh () and band = fresh () and n = fresh () and x = fresh () in
  let acc_e = B.evar ~loc acc and n_e = B.evar ~loc n in
  let walk k =
    [%expr
      [%e id seq_iter "iter"]
        (fun [%p B.pvar ~loc x] -> [%e run_stages ~loc scope (B.evar ~loc x) stages k])
        [%e B.evar ~loc band]]
  in
  (* A consumer's size argument, bound once if it is not trivial. *)
  let sized size k =
    let size = use size in
    if is_trivial size then k size
    else
      let s = fresh () in
      [%expr let [%p B.pvar ~loc s] = [%e size] in [%e k (B.evar ~loc s)]]
  in
  let run_reduce ~codec ~create ~merge ~fold =
    B.pexp_apply ~loc (id path "run_reduce")
      (List.map (fun (l, a) -> (l, use a)) ctx
      @ [
          (Labelled "result_codec", codec);
          (Labelled "create", create);
          (Labelled "fold", fold);
          (Labelled "merge", merge);
          (Nolabel, outer);
        ])
  in
  (* The band fold: [n] is set up once per band, then every element of
     the band's nest goes through [update]. *)
  let fold ~setup ~finish update =
    [%expr
      fun [%p B.pvar ~loc acc] [%p B.pvar ~loc band] ->
        let [%p B.pvar ~loc n] = [%e setup] in
        [%e walk update];
        [%e finish]]
  in
  let e =
    match cons with
    | Histogram bins ->
        sized bins (fun bins ->
            run_reduce ~codec:[%expr Triolet_base.Codec.int_array]
              ~create:[%expr fun () -> Stdlib.Array.make [%e bins] 0]
              ~merge:(id path "array_add")
              ~fold:
                (fold ~setup:[%expr Stdlib.Array.length [%e acc_e]] ~finish:acc_e
                   (fun _ elt ->
                     let b = fresh () in
                     let b_e = B.evar ~loc b in
                     mk_let ~loc (B.pvar ~loc b) elt
                       [%expr
                         if [%e b_e] >= 0 && [%e b_e] < [%e n_e] then
                           Stdlib.Array.set [%e acc_e] [%e b_e]
                             (Stdlib.Array.get [%e acc_e] [%e b_e] + 1)])))
    | Scatter_add size ->
        sized size (fun size ->
            run_reduce ~codec:[%expr Triolet_base.Codec.floatarray]
              ~create:[%expr fun () -> Stdlib.Float.Array.make [%e size] 0.0]
              ~merge:(id path "floatarray_add")
              ~fold:
                (fold ~setup:[%expr Stdlib.Float.Array.length [%e acc_e]]
                   ~finish:acc_e
                   (fun _ elt ->
                     let i = fresh () and w = fresh () in
                     let i_e = B.evar ~loc i in
                     mk_let ~loc
                       (B.ppat_tuple ~loc [ B.pvar ~loc i; B.pvar ~loc w ])
                       elt
                       [%expr
                         if [%e i_e] >= 0 && [%e i_e] < [%e n_e] then
                           Stdlib.Float.Array.set [%e acc_e] [%e i_e]
                             (Stdlib.Float.Array.get [%e acc_e] [%e i_e]
                             +. [%e B.evar ~loc w])])))
    | To_matrix -> tile ~loc ~path ~scope ~stages ~tile_outer ~outer ~ctx:(List.map (fun (l, a) -> (l, use a)) ctx)
    | Sum ->
        (* [n] is the band's running sum, one unboxed float cell *)
        run_reduce ~codec:[%expr Triolet_base.Codec.float]
          ~create:[%expr fun () -> 0.0]
          ~merge:[%expr ( +. )]
          ~fold:
            (fold ~setup:[%expr Stdlib.Float.Array.make 1 0.0]
               ~finish:[%expr [%e acc_e] +. Stdlib.Float.Array.get [%e n_e] 0]
               (fun _ elt ->
                 let v = fresh () in
                 mk_let ~loc (B.pvar ~loc v) elt
                   [%expr
                     Stdlib.Float.Array.set [%e n_e] 0
                       (Stdlib.Float.Array.get [%e n_e] 0 +. [%e B.evar ~loc v])]))
  in
  (* The [let]s and arguments evaluated before the fold, outermost
     first, each placed where its free variables mean what they did. *)
  let rec wrap scope = function
    | [] -> e
    | Group g :: rest ->
        place g scope;
        let vbs, id = g.it in
        B.pexp_let ~loc Nonrecursive vbs (wrap (bind scope (vbs_vars vbs) id) rest)
    | Arg a :: rest -> (
        match List.assq_opt a named with
        | None -> wrap scope rest
        | Some v ->
            place a scope;
            B.pexp_let ~loc Nonrecursive
              [ B.value_binding ~loc ~pat:(B.pvar ~loc v) ~expr:a.it ]
              (wrap scope rest))
  in
  (* beta-reduction can leave a pattern variable unused *)
  [%expr ([%e wrap [] pre] [@ocaml.warning "-26-27"])]


(* ------------------------------------------------------------------ *)
(* Definitions and sites                                               *)

(* A [let[@fuse] f params = e] the rewriter can inline: named, with
   parameters whose defaults do not mention them. *)
let def_of defs vb =
  (* [fun a -> fun b -> e] as [fun a b -> e] *)
  let rec params e =
    match e.pexp_desc with
    | Pexp_function ((_ :: _ as ps), None, Pfunction_body body) ->
        let more, body = params body in
        (ps @ more, body)
    | _ -> ([], e)
  in
  match (vb.pvb_pat.ppat_desc, params vb.pvb_expr) with
  | Ppat_var { txt = f; _ }, ((_ :: _ as params), body)
    when List.exists (fun a -> a.attr_name.txt = "fuse") vb.pvb_attributes
         && not (mentions_prefix vb.pvb_expr) ->
      let names, defaults =
        List.fold_left
          (fun (names, defaults) p ->
            match p.pparam_desc with
            | Pparam_val (_, d, p) ->
                ( S.union names (pat_vars p),
                  match d with Some d -> S.union defaults (fv d) | None -> defaults )
            | Pparam_newtype _ -> (names, defaults))
          (S.empty, S.empty) params
      in
      if S.disjoint names defaults then
        Some
          ( f,
            {
              params;
              def_body = body;
              def_free = fv vb.pvb_expr;
              producer = producer_shape defs body;
            } )
      else None
  | _ -> None

(* The names an item binds anywhere, and whether it opens or binds a
   module.  An inlined body's free names must mean at the site what
   they mean at the top level. *)
let binders item =
  (object
     inherit [S.t * bool] Ast_traverse.fold as super

     method! pattern p acc =
       let names, modules = super#pattern p acc in
       match p.ppat_desc with
       | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> (S.add txt names, modules)
       | Ppat_unpack _ | Ppat_open _ -> (names, true)
       | _ -> (names, modules)

     method! expression e acc =
       let names, modules = super#expression e acc in
       match e.pexp_desc with
       | Pexp_open _ | Pexp_letmodule _ | Pexp_letexception _ | Pexp_object _ ->
           (names, true)
       | _ -> (names, modules)
  end)
    #structure_item item (S.empty, false)

let unshadowed names defs =
  List.filter (fun (f, d) -> (not (S.mem f names)) && S.disjoint d.def_free names) defs

let expander defs =
  object (self)
    inherit Ast_traverse.map as super

    method! expression e =
      match e.pexp_desc with
      | Pexp_extension ({ txt = "fuse"; _ }, payload) -> (
          let loc = e.pexp_loc in
          match payload with
          | PStr [ { pstr_desc = Pstr_eval (site, []); _ } ] -> (
              let site = self#expression site in
              try fuse ~loc ~defs site with Refuse -> site)
          | _ -> Location.raise_errorf ~loc "[%%fuse] takes one expression")
      | _ -> super#expression e
  end

(* The top-level items in order.  Each is expanded with the definitions
   before it that it does not shadow; a value item then drops those its
   names shadow and adds its own, and any other item (a module, an
   [open], a type) forgets them all. *)
let impl items =
  snd
    (List.fold_left_map
       (fun defs item ->
         let names, modules = binders item in
         let visible = if modules then [] else unshadowed names defs in
         let item = (expander visible)#structure_item item in
         let defs =
           match item.pstr_desc with
           | Pstr_value (rf, vbs) ->
               let bound =
                 List.fold_left (fun s vb -> S.union s (pat_vars vb.pvb_pat)) S.empty vbs
               in
               let defs = unshadowed bound defs in
               let own =
                 if rf = Recursive then []
                 else
                   List.filter_map (def_of defs) vbs
                   |> List.filter (fun (_, d) -> S.disjoint d.def_free bound)
               in
               own @ defs
           | Pstr_eval _ | Pstr_attribute _ -> defs
           | _ -> []
         in
         (defs, item))
       [] items)

let () = Driver.register_transformation "triolet_fuse" ~impl
