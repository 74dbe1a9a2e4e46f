(** The stepper encoding: a fusible stream with two faces (paper,
    section 3.1, "Steppers"; push face after the indexed-stream-fusion
    rewrite).

    The {e pull} face is classic Coutts/Leshchinskiy/Stewart stream
    fusion: a suspended loop state plus a step function returning
    [Yield]/[Skip]/[Done].  It is the only face that can interleave two
    streams, so [zip], [take], [find], [equal] and the [Seq] interop
    live on it.  Its cost is one [Yield] block (and often a rebuilt
    state tuple) allocated per element per combinator.

    The {e push} face is the state-machine encoding: a polymorphic fold
    that {e runs} the whole loop, composed once per combinator.  [map]
    becomes a call in the worker, [filter] a branch, [concat_map] a
    nested loop — no step constructors, no per-element state, which is
    what lets the compiler turn a fused pipeline into the loop nest a
    hand-written baseline would contain.  All one-pass consumers
    ([fold], [iter], [to_list], the sums) run on the push face.

    Every combinator maintains both faces, so either consumer style
    works on any stream; combinators that inherently need early exit
    ([zip], [take], [take_while], [of_seq]) derive their push face from
    their own pull face and keep the pull costs. *)

module Fcell = Triolet_base.Fcell

type ('a, 's) step = Yield of 'a * 's | Skip of 's | Done

type 'a push = { push : 'acc. ('acc -> 'a -> 'acc) -> 'acc -> 'acc }
[@@unboxed]

type 'a t = Stepper : 's * ('s -> ('a, 's) step) * 'a push -> 'a t

(* Derive a push face by driving a pull face to exhaustion: the
   fallback for streams whose producer is inherently demand-driven. *)
let push_of_pull s0 next =
  {
    push =
      (fun f init ->
        let rec go acc s =
          match next s with
          | Yield (x, s') -> go (f acc x) s'
          | Skip s' -> go acc s'
          | Done -> acc
        in
        go init s0);
  }

let make s0 next push = Stepper (s0, next, push)

let unfold seed next = Stepper (seed, next, push_of_pull seed next)

let empty =
  Stepper ((), (fun () -> Done), { push = (fun _ init -> init) })

(** One-element stepper: [unitStep] in the paper's filter equation. *)
let singleton x =
  Stepper
    ( false,
      (function false -> Yield (x, true) | true -> Done),
      { push = (fun f init -> f init x) } )

let range lo hi =
  Stepper
    ( lo,
      (fun i -> if i >= hi then Done else Yield (i, i + 1)),
      {
        push =
          (fun f init ->
            let rec go acc i = if i >= hi then acc else go (f acc i) (i + 1) in
            go init lo);
      } )

let of_array a =
  let n = Array.length a in
  Stepper
    ( 0,
      (fun i -> if i >= n then Done else Yield (Array.unsafe_get a i, i + 1)),
      {
        push =
          (fun f init ->
            let rec go acc i =
              if i >= n then acc else go (f acc (Array.unsafe_get a i)) (i + 1)
            in
            go init 0);
      } )

let of_floatarray (a : floatarray) =
  let n = Float.Array.length a in
  Stepper
    ( 0,
      (fun i ->
        if i >= n then Done else Yield (Float.Array.unsafe_get a i, i + 1)),
      {
        push =
          (fun f init ->
            let rec go acc i =
              if i >= n then acc
              else go (f acc (Float.Array.unsafe_get a i)) (i + 1)
            in
            go init 0);
      } )

let of_list l =
  Stepper
    ( l,
      (function [] -> Done | x :: rest -> Yield (x, rest)),
      { push = (fun f init -> List.fold_left f init l) } )

let map g (Stepper (s0, next, p)) =
  let step s =
    match next s with
    | Yield (x, s') -> Yield (g x, s')
    | Skip s' -> Skip s'
    | Done -> Done
  in
  Stepper
    (s0, step, { push = (fun f init -> p.push (fun acc x -> f acc (g x)) init) })

(** [filterStep] of the paper: on the pull face dropped elements become
    [Skip]s; on the push face they are a branch in the worker. *)
let filter p (Stepper (s0, next, pu)) =
  let step s =
    match next s with
    | Yield (x, s') -> if p x then Yield (x, s') else Skip s'
    | Skip s' -> Skip s'
    | Done -> Done
  in
  Stepper
    ( s0,
      step,
      {
        push =
          (fun f init ->
            pu.push (fun acc x -> if p x then f acc x else acc) init);
      } )

let filter_map g (Stepper (s0, next, pu)) =
  let step s =
    match next s with
    | Yield (x, s') -> (
        match g x with Some y -> Yield (y, s') | None -> Skip s')
    | Skip s' -> Skip s'
    | Done -> Done
  in
  Stepper
    ( s0,
      step,
      {
        push =
          (fun f init ->
            pu.push
              (fun acc x ->
                match g x with Some y -> f acc y | None -> acc)
              init);
      } )

(** Zip is inherently pull: it proceeds by holding at most one pending
    element from the left stream while the right stream catches up.
    [zip_with] applies [f] directly to the pair of pending elements, so
    no intermediate tuple is built. *)
let zip_with f (Stepper (sa0, na, _)) (Stepper (sb0, nb, _)) =
  let step (sa, sb, pending) =
    match pending with
    | None -> (
        match na sa with
        | Yield (a, sa') -> Skip (sa', sb, Some a)
        | Skip sa' -> Skip (sa', sb, None)
        | Done -> Done)
    | Some a -> (
        match nb sb with
        | Yield (b, sb') -> Yield (f a b, (sa, sb', None))
        | Skip sb' -> Skip (sa, sb', Some a)
        | Done -> Done)
  in
  let s0 = (sa0, sb0, None) in
  Stepper (s0, step, push_of_pull s0 step)

let zip a b = zip_with (fun x y -> (x, y)) a b

let enumerate (Stepper (s0, next, pu)) =
  let step (i, s) =
    match next s with
    | Yield (x, s') -> Yield ((i, x), (i + 1, s'))
    | Skip s' -> Skip (i, s')
    | Done -> Done
  in
  Stepper
    ( (0, s0),
      step,
      {
        push =
          (fun f init ->
            let i = ref (-1) in
            pu.push
              (fun acc x ->
                incr i;
                f acc (!i, x))
              init);
      } )

let append (Stepper (sa0, na, pa)) (Stepper (sb0, nb, pb)) =
  let step = function
    | `Left (sa, sb) -> (
        match na sa with
        | Yield (x, sa') -> Yield (x, `Left (sa', sb))
        | Skip sa' -> Skip (`Left (sa', sb))
        | Done -> Skip (`Right sb))
    | `Right sb -> (
        match nb sb with
        | Yield (x, sb') -> Yield (x, `Right sb')
        | Skip sb' -> Skip (`Right sb')
        | Done -> Done)
  in
  Stepper
    ( `Left (sa0, sb0),
      step,
      { push = (fun f init -> pb.push f (pa.push f init)) } )

(** Nested traversal.  Pull face: the state carries the suspended inner
    stepper.  Push face: the inner stream's own push loop runs inside
    the outer worker — a clean nested loop, the encoding's whole
    point. *)
let concat_map g (Stepper (s0, next, pu)) =
  let step (s, inner) =
    match inner with
    | Some (Stepper (is, inext, ipush)) -> (
        match inext is with
        | Yield (x, is') -> Yield (x, (s, Some (Stepper (is', inext, ipush))))
        | Skip is' -> Skip (s, Some (Stepper (is', inext, ipush)))
        | Done -> Skip (s, None))
    | None -> (
        match next s with
        | Yield (x, s') -> Skip (s', Some (g x))
        | Skip s' -> Skip (s', None)
        | Done -> Done)
  in
  Stepper
    ( (s0, None),
      step,
      {
        push =
          (fun f init ->
            pu.push
              (fun acc x ->
                let (Stepper (_, _, ip)) = g x in
                ip.push f acc)
              init);
      } )

let concat ss = concat_map (fun s -> s) ss

let take n (Stepper (s0, next, _)) =
  let step (k, s) =
    if k >= n then Done
    else
      match next s with
      | Yield (x, s') -> Yield (x, (k + 1, s'))
      | Skip s' -> Skip (k, s')
      | Done -> Done
  in
  let t0 = (0, s0) in
  Stepper (t0, step, push_of_pull t0 step)

let drop n (Stepper (s0, next, pu)) =
  let step (k, s) =
    match next s with
    | Yield (x, s') -> if k < n then Skip (k + 1, s') else Yield (x, (k, s'))
    | Skip s' -> Skip (k, s')
    | Done -> Done
  in
  Stepper
    ( (0, s0),
      step,
      {
        push =
          (fun f init ->
            let k = ref 0 in
            pu.push
              (fun acc x ->
                if !k < n then begin
                  incr k;
                  acc
                end
                else f acc x)
              init);
      } )

let fold f init (Stepper (_, _, p)) = p.push f init

let iter f (Stepper (_, _, p)) = p.push (fun () x -> f x) ()

let length st = fold (fun n _ -> n + 1) 0 st

let to_list st = List.rev (fold (fun acc x -> x :: acc) [] st)

let to_vec dummy st =
  let v = Triolet_base.Vec.create dummy in
  iter (Triolet_base.Vec.push v) st;
  v

(* Reductions whose accumulator is a float use an {!Fcell}: its field
   is unboxed storage, so the running value never round trips through
   the heap the way a polymorphic fold accumulator does. *)
let sum_float st =
  let acc = Fcell.make 0.0 in
  iter (fun x -> acc.Fcell.v <- acc.Fcell.v +. x) st;
  acc.Fcell.v

let sum_int st = fold (fun acc x -> acc + x) 0 st

let take_while p (Stepper (s0, next, _)) =
  let step s =
    match next s with
    | Yield (x, s') -> if p x then Yield (x, s') else Done
    | Skip s' -> Skip s'
    | Done -> Done
  in
  Stepper (s0, step, push_of_pull s0 step)

let drop_while p (Stepper (s0, next, pu)) =
  let step (dropping, s) =
    match next s with
    | Yield (x, s') ->
        if dropping && p x then Skip (true, s') else Yield (x, (false, s'))
    | Skip s' -> Skip (dropping, s')
    | Done -> Done
  in
  Stepper
    ( (true, s0),
      step,
      {
        push =
          (fun f init ->
            let dropping = ref true in
            pu.push
              (fun acc x ->
                if !dropping && p x then acc
                else begin
                  dropping := false;
                  f acc x
                end)
              init);
      } )

(** Prefix sums: yields the running accumulator after each element. *)
let scan f init (Stepper (s0, next, pu)) =
  let step (acc, s) =
    match next s with
    | Yield (x, s') ->
        let acc' = f acc x in
        Yield (acc', (acc', s'))
    | Skip s' -> Skip (acc, s')
    | Done -> Done
  in
  Stepper
    ( (init, s0),
      step,
      {
        push =
          (fun f2 init2 ->
            let cur = ref init in
            pu.push
              (fun acc x ->
                cur := f !cur x;
                f2 acc !cur)
              init2);
      } )

let exists p st = fold (fun found x -> found || p x) false st

let for_all p st = fold (fun ok x -> ok && p x) true st

let find p (Stepper (s0, next, _)) =
  let rec loop s =
    match next s with
    | Yield (x, s') -> if p x then Some x else loop s'
    | Skip s' -> loop s'
    | Done -> None
  in
  loop s0

let min_float st =
  let m = Fcell.make Float.infinity in
  iter (fun x -> if x < m.Fcell.v then m.Fcell.v <- x) st;
  m.Fcell.v

let max_float st =
  let m = Fcell.make Float.neg_infinity in
  iter (fun x -> if x > m.Fcell.v then m.Fcell.v <- x) st;
  m.Fcell.v

let equal eq a b =
  let rec loop (Stepper (sa, na, pa)) (Stepper (sb, nb, pb)) =
    let rec advance s next =
      match next s with
      | Yield (x, s') -> Some (x, s')
      | Skip s' -> advance s' next
      | Done -> None
    in
    match (advance sa na, advance sb nb) with
    | None, None -> true
    | Some (x, sa'), Some (y, sb') ->
        eq x y && loop (Stepper (sa', na, pa)) (Stepper (sb', nb, pb))
    | None, Some _ | Some _, None -> false
  in
  loop a b

(** Interop with the standard library's [Seq]: a stepper steps an
    on-demand [Seq.t] node by node. *)
let of_seq (seq : 'a Seq.t) =
  let step s =
    match s () with Seq.Nil -> Done | Seq.Cons (x, rest) -> Yield (x, rest)
  in
  Stepper (seq, step, push_of_pull seq step)

let to_seq (Stepper (s0, next, _)) =
  let rec walk s () =
    match next s with
    | Yield (x, s') -> Seq.Cons (x, walk s')
    | Skip s' -> walk s' ()
    | Done -> Seq.Nil
  in
  walk s0
