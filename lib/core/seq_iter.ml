(** Hybrid iterators: the paper's core representation (section 3.2).

    An iterator is a loop nest with an indexer or stepper at each
    nesting level:

    - [Idx_flat]  — flat random-access loop (parallelizable);
    - [Idx_opt]   — flat random-access loop whose lookup may yield
                    nothing (parallelizable, filtered);
    - [Step_flat] — flat sequential stream;
    - [Idx_nest]  — random-access outer loop of inner iterators
                    (parallelizable outer, irregular inner);
    - [Step_nest] — sequential outer loop of inner iterators.

    [filter] and [concat_map] on a random-access level never reassign
    indices: each input index yields a short (possibly empty) inner
    stream, so irregularity is isolated in inner loops while the outer
    loop stays partitionable — exactly the sum-of-filter strategy of
    section 3.2.  [concat_map] builds that [Idx_nest] literally.  For
    [filter] and [filter_map] every inner stream has 0 or 1 elements,
    so the paper's [IdxNest (mapIdx (filterStep p . unitStep))] is
    stored fused, as an [Idx_opt] whose lookup returns the element or
    [None]: consumers run it as one counted loop with a branch instead
    of building an inner stream per element.  Every function below is
    one of the equations in Figure 2 of the paper (plus [map], [fold]
    and friends in the same style). *)

module Fcell = Triolet_base.Fcell

type 'a t =
  | Idx_flat of (int, 'a) Indexer.t
  | Idx_opt of (int, 'a option) Indexer.t
  | Step_flat of 'a Stepper.t
  | Idx_nest of (int, 'a t) Indexer.t
  | Step_nest of 'a t Stepper.t

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let empty = Step_flat Stepper.empty

let singleton x = Step_flat (Stepper.singleton x)

let of_indexer ix = Idx_flat ix

let of_stepper st = Step_flat st

let of_array a = Idx_flat (Indexer.of_array a)

let of_floatarray a = Idx_flat (Indexer.of_floatarray a)

let of_list l = Step_flat (Stepper.of_list l)

let range lo hi = Idx_flat (Indexer.range lo hi)

(* ------------------------------------------------------------------ *)
(* Figure 2 equations                                                  *)

(** [toStep]: demote any iterator to a flat sequential stream. *)
let rec to_stepper : 'a. 'a t -> 'a Stepper.t = function
  | Idx_flat xs -> Indexer.to_stepper xs
  | Idx_opt xs -> Stepper.filter_map Fun.id (Indexer.to_stepper xs)
  | Step_flat xs -> xs
  | Idx_nest xss ->
      Stepper.concat_map to_stepper (Indexer.to_stepper xss)
  | Step_nest xss -> Stepper.concat_map to_stepper xss

(** [zip]: two flat indexers zip by index, preserving parallelism; any
    other combination involves variable-length output and must be
    zipped sequentially through steppers. *)
let zip a b =
  match (a, b) with
  | Idx_flat xs, Idx_flat ys -> Idx_flat (Indexer.zip xs ys)
  | _ -> Step_flat (Stepper.zip (to_stepper a) (to_stepper b))

let zip_with f a b =
  match (a, b) with
  | Idx_flat xs, Idx_flat ys -> Idx_flat (Indexer.zip_with f xs ys)
  | _ -> Step_flat (Stepper.zip_with f (to_stepper a) (to_stepper b))

let rec map : 'a 'b. ('a -> 'b) -> 'a t -> 'b t =
 fun f -> function
  | Idx_flat xs -> Idx_flat (Indexer.map f xs)
  | Idx_opt xs -> Idx_opt (Indexer.map (Option.map f) xs)
  | Step_flat xs -> Step_flat (Stepper.map f xs)
  | Idx_nest xss -> Idx_nest (Indexer.map (map f) xss)
  | Step_nest xss -> Step_nest (Stepper.map (map f) xss)

(** [filter]: on a flat indexer, each element becomes a 0-or-1-element
    result under an unchanged outer index — variable-length output
    without index reassignment, held as the fused [Idx_opt] level. *)
let rec filter : 'a. ('a -> bool) -> 'a t -> 'a t =
 fun p -> function
  | Idx_flat xs ->
      Idx_opt (Indexer.map (fun x -> if p x then Some x else None) xs)
  | Idx_opt xs ->
      Idx_opt
        (Indexer.map
           (fun o -> match o with Some x when p x -> o | _ -> None)
           xs)
  | Step_flat xs -> Step_flat (Stepper.filter p xs)
  | Idx_nest xss -> Idx_nest (Indexer.map (filter p) xss)
  | Step_nest xss -> Step_nest (Stepper.map (filter p) xss)

(** [concatMap]: adds one level of nesting, keeping the outer loop's
    encoding (and hence its parallelizability). *)
let rec concat_map : 'a 'b. ('a -> 'b t) -> 'a t -> 'b t =
 fun f -> function
  | Idx_flat xs -> Idx_nest (Indexer.map f xs)
  | Idx_opt xs ->
      Idx_nest
        (Indexer.map (function Some x -> f x | None -> empty) xs)
  | Step_flat xs -> Step_nest (Stepper.map f xs)
  | Idx_nest xss -> Idx_nest (Indexer.map (concat_map f) xss)
  | Step_nest xss -> Step_nest (Stepper.map (concat_map f) xss)

(** [fold] in the style of Figure 2's [sum]: each level of nesting turns
    into one loop. *)
let rec fold : 'a 'acc. ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc =
 fun f init -> function
  | Idx_flat xs -> Indexer.fold f init xs
  | Idx_opt xs ->
      Indexer.fold
        (fun acc o -> match o with Some x -> f acc x | None -> acc)
        init xs
  | Step_flat xs -> Stepper.fold f init xs
  | Idx_nest xss -> Indexer.fold (fun acc it -> fold f acc it) init xss
  | Step_nest xss -> Stepper.fold (fun acc it -> fold f acc it) init xss

let sum_int it = fold ( + ) 0 it

(** Side-effecting traversal gets its own recursion rather than a
    unit-accumulator [fold]: it is the consumer under every
    [collect]-routed kernel.  The unit-fold wrappers are allocated once
    per traversal and reused at every level, and a filtered flat level
    runs as a counted loop with a branch, so nothing is allocated per
    element of the original loop. *)
let iter : 'a. ('a -> unit) -> 'a t -> unit =
 fun f t ->
  let pf () x = f x in
  let rec go = function
    | Idx_flat xs -> Indexer.iter f xs
    | Idx_opt xs -> (
        match xs.Indexer.shape with
        | Shape.Seq n ->
            let get = xs.Indexer.get in
            for i = 0 to n - 1 do
              match get i with Some x -> f x | None -> ()
            done)
    | Step_flat xs -> Stepper.fold pf () xs
    | Idx_nest xss -> Indexer.iter go xss
    | Step_nest xss -> Stepper.fold go_u () xss
  and go_u () it = go it in
  go t

(* Float reductions accumulate through an {!Fcell} (unboxed float
   field) so the running value never touches the heap, no matter how
   deep the nest; the flat random-access leaf — the hot inner loop of
   every dot-product-shaped reduction — runs as a direct counted loop
   over the lookup function. *)
let sum_float it =
  let acc = Fcell.make 0.0 in
  let add () x = acc.Fcell.v <- acc.Fcell.v +. x in
  let rec go : float t -> unit = function
    | Idx_flat ix -> (
        match ix.Indexer.shape with
        | Shape.Seq n ->
            let get = ix.Indexer.get in
            for i = 0 to n - 1 do
              acc.Fcell.v <- acc.Fcell.v +. get i
            done)
    | Idx_opt ix -> (
        match ix.Indexer.shape with
        | Shape.Seq n ->
            let get = ix.Indexer.get in
            for i = 0 to n - 1 do
              match get i with
              | Some x -> acc.Fcell.v <- acc.Fcell.v +. x
              | None -> ()
            done)
    | Step_flat xs -> Stepper.fold add () xs
    | Idx_nest xss -> Indexer.iter go xss
    | Step_nest xss -> Stepper.fold go_u () xss
  and go_u () it = go it in
  go it;
  acc.Fcell.v

(** [collect]: one side-effecting loop nest driven entirely by the push
    faces — a single collector object regardless of nesting depth. *)
let collect it = { Collector.run = (fun k -> iter k it) }

let length it = fold (fun n _ -> n + 1) 0 it

let to_list it = List.rev (fold (fun acc x -> x :: acc) [] it)

let to_vec dummy it =
  let v = Triolet_base.Vec.create dummy in
  iter (Triolet_base.Vec.push v) it;
  v

let to_array dummy it = Triolet_base.Vec.to_array (to_vec dummy it)

let to_floatarray (it : float t) =
  let v = to_vec 0.0 it in
  Float.Array.init (Triolet_base.Vec.length v) (Triolet_base.Vec.get v)

(** Left reduction: [Some (f (... (f x1 x2) ...) xn)] over the elements
    in order, [None] when there are none. *)
let reduce f it =
  fold
    (fun acc x -> match acc with None -> Some x | Some a -> Some (f a x))
    None it

(* ------------------------------------------------------------------ *)
(* Outer-loop structure: what the parallel layer needs to know          *)

(** Number of outer tasks when the outermost level is random-access. *)
let outer_length = function
  | Idx_flat ix -> Some (Indexer.size ix)
  | Idx_opt ix -> Some (Indexer.size ix)
  | Idx_nest ix -> Some (Indexer.size ix)
  | Step_flat _ | Step_nest _ -> None

(** Sub-range of the outer loop; only defined for random-access outer
    levels.  This is the work-distribution half of partitioning. *)
let slice_outer it off len =
  match it with
  | Idx_flat ix -> Idx_flat (Indexer.slice ix off len)
  | Idx_opt ix -> Idx_opt (Indexer.slice ix off len)
  | Idx_nest ix -> Idx_nest (Indexer.slice ix off len)
  | Step_flat _ | Step_nest _ ->
      invalid_arg "Seq_iter.slice_outer: outer loop is not random-access"

let rec filter_map : 'a 'b. ('a -> 'b option) -> 'a t -> 'b t =
 fun f -> function
  | Idx_flat xs -> Idx_opt (Indexer.map f xs)
  | Idx_opt xs -> Idx_opt (Indexer.map (fun o -> Option.bind o f) xs)
  | Step_flat xs -> Step_flat (Stepper.filter_map f xs)
  | Idx_nest xss -> Idx_nest (Indexer.map (filter_map f) xss)
  | Step_nest xss -> Step_nest (Stepper.map (filter_map f) xss)

(** Concatenation: sequential (stepper-headed), since the combined
    outer loop no longer has a single random-access domain. *)
let append a b =
  Step_nest (Stepper.of_list [ a; b ])

let exists p it = fold (fun found x -> found || p x) false it

let for_all p it = fold (fun ok x -> ok && p x) true it

let find p it = Stepper.find p (to_stepper it)

let min_float it =
  let m = Fcell.make Float.infinity in
  iter (fun x -> if x < m.Fcell.v then m.Fcell.v <- x) it;
  m.Fcell.v

let max_float it =
  let m = Fcell.make Float.neg_infinity in
  iter (fun x -> if x > m.Fcell.v then m.Fcell.v <- x) it;
  m.Fcell.v

(** Monadic syntax: [let*] is [concat_map], so nested comprehensions
    read like the paper's Python/Haskell examples:

    {[
      let open Seq_iter.Let_syntax in
      let* a = Seq_iter.of_array atoms in
      let* r = grid_points a in
      return (f a r)
    ]} *)
module Let_syntax = struct
  let return = singleton
  let ( let* ) it f = concat_map f it
  let ( and* ) a b = zip a b
  let ( let+ ) it f = map f it
  let ( and+ ) a b = zip a b
end

(** Reified loop-nest structure: the plan-level image of an iterator,
    with the element type erased.  The inner structure of a nest is
    sampled from its first outer element (nests may be heterogeneous;
    the first element is representative for library-built iterators).
    This is the reification hook the static plan analyzer builds on:
    it tells the analyzer which levels of a fused pipeline kept
    random access (partitionable) and which degraded to sequential
    streams. *)
type shape =
  | Shape_idx_flat of int
  | Shape_step_flat
  | Shape_idx_nest of int * shape option
  | Shape_step_nest of shape option

let rec shape_of : 'a. 'a t -> shape = function
  | Idx_flat ix -> Shape_idx_flat (Indexer.size ix)
  | Idx_opt ix ->
      (* the fused IdxNest of 0-or-1-element inner streams *)
      let n = Indexer.size ix in
      Shape_idx_nest (n, if n > 0 then Some Shape_step_flat else None)
  | Step_flat _ -> Shape_step_flat
  | Idx_nest ix ->
      let inner =
        if Indexer.size ix > 0 then Some (shape_of (Indexer.get ix 0))
        else None
      in
      Shape_idx_nest (Indexer.size ix, inner)
  | Step_nest xss -> (
      match Stepper.find (fun _ -> true) xss with
      | Some first -> Shape_step_nest (Some (shape_of first))
      | None -> Shape_step_nest None)

let rec shape_to_string = function
  | Shape_idx_flat n -> Printf.sprintf "IdxFlat[%d]" n
  | Shape_step_flat -> "StepFlat"
  | Shape_idx_nest (n, inner) ->
      Printf.sprintf "IdxNest[%d](%s)" n
        (match inner with Some s -> shape_to_string s | None -> "empty")
  | Shape_step_nest inner ->
      Printf.sprintf "StepNest(%s)"
        (match inner with Some s -> shape_to_string s | None -> "empty")

(** Human-readable description of the loop-nest structure, e.g.
    ["IdxNest[6](StepFlat)"] for a filtered flat indexer. *)
let describe it = shape_to_string (shape_of it)

let of_seq seq = Step_flat (Stepper.of_seq seq)

let to_seq it = Stepper.to_seq (to_stepper it)
