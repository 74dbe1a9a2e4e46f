(** tpacf: two-point angular correlation function (paper, section 4.4).

    Three histogram computations over angular separations of sky-point
    pairs: DD (observed set against itself), DR (observed against each
    random set), and RR (each random set against itself).  The
    separation of a pair is binned by angle; we bin uniformly in
    cos(angle), which preserves the computation's shape (dot product,
    compare, histogram update) with a simpler bin function than
    Parboil's logarithmic bins.

    [run_triolet] mirrors the code of the paper's Figure 6: a shared
    [correlation] maps a score function over a pair iterator into a
    histogram; [random_sets_correlation] runs a parallel reduction over
    random sets; self-correlation builds the triangular pair loop with
    a nested comprehension.  Each correlation runs in a [%fuse] site,
    which compiles the pair loop into a flat histogram loop, as the
    paper's compiler does, from the same definitions the
    plan-reification hooks return. *)

open Triolet
module D = Dataset
module Vec = Triolet_base.Vec

type result = { dd : int array; dr : int array; rr : int array }

(* Bin of one pair: uniform in dot = cos(angle), mapped to [0, bins). *)
let bin_of_dot ~bins dot =
  let d = Float.max (-1.0) (Float.min 1.0 dot) in
  let b = int_of_float ((d +. 1.0) /. 2.0 *. float_of_int bins) in
  if b >= bins then bins - 1 else b

let point (c : D.catalog) i =
  (Vec.fget c.D.cx i, Vec.fget c.D.cy i, Vec.fget c.D.cz i)

let score ~bins (x1, y1, z1) (x2, y2, z2) =
  bin_of_dot ~bins ((x1 *. x2) +. (y1 *. y2) +. (z1 *. z2))

(* ------------------------------------------------------------------ *)

(* Histogram of every pair across two catalogs: the one imperative
   cross loop, run by [run_c]'s DR and by the resident nodes. *)
let cross_hist ~bins (c1 : D.catalog) (c2 : D.catalog) =
  let n1 = D.catalog_size c1 and n2 = D.catalog_size c2 in
  let h = Array.make bins 0 in
  for i = 0 to n1 - 1 do
    let pi = point c1 i in
    for j = 0 to n2 - 1 do
      let b = score ~bins pi (point c2 j) in
      h.(b) <- h.(b) + 1
    done
  done;
  h

let run_c ~bins (d : D.tpacf) : result =
  let self_hist (c : D.catalog) =
    let n = D.catalog_size c in
    let h = Array.make bins 0 in
    for i = 0 to n - 1 do
      let pi = point c i in
      for j = i + 1 to n - 1 do
        let b = score ~bins pi (point c j) in
        h.(b) <- h.(b) + 1
      done
    done;
    h
  in
  let add a b = Array.mapi (fun i x -> x + b.(i)) a in
  let dd = self_hist d.D.observed in
  let dr =
    Array.fold_left
      (fun acc r -> add acc (cross_hist ~bins d.D.observed r))
      (Array.make bins 0) d.D.randoms
  in
  let rr =
    Array.fold_left
      (fun acc r -> add acc (self_hist r))
      (Array.make bins 0) d.D.randoms
  in
  { dd; dr; rr }

(* ------------------------------------------------------------------ *)
(* Triolet version, following Figure 6 of the paper.                   *)

(* correlation(size, pairs) = histogram(size, (score(u,v) for (u,v) in
   pairs)) — the common code of all three loops (Figure 6, lines 1-4).
   [pairs] is an iterator with a localpar hint set by the caller.
   [score_pipeline] is the fused iterator the histogram consumes,
   split out as a plan-reification hook.  The [@fuse] definitions are
   library values, and [%fuse] sites below inline them. *)
let[@fuse] score_pipeline ~bins pairs =
  Iter.map (fun (u, v) -> score ~bins u v) pairs

let[@fuse] correlation ?ctx ~bins pairs =
  Iter.histogram ?ctx ~bins (score_pipeline ~bins pairs)

(* [hint], when given, replaces an iterator's own hint; otherwise
   [default] sets it. *)
let with_hint ?hint default t =
  match hint with None -> default t | Some h -> { t with Iter.hint = h }

let points (c : D.catalog) =
  Iter.zip3
    (Iter.of_floatarray c.D.cx)
    (Iter.of_floatarray c.D.cy)
    (Iter.of_floatarray c.D.cz)

(* The outer loops of the pair loops, which carry their hint:
     indexed = zip(indices(domain(rand)), rand)
   (Figure 6, line 14). *)
let self_outer ?hint c = with_hint ?hint Iter.localpar (Iter.enumerate (points c))
let cross_outer ?hint c = with_hint ?hint Iter.localpar (points c)

(* Triangular pair loop over one catalog:
     pairs = localpar((u,v) for (i,u) in indexed for v in rand[i+1:])
   (Figure 6, lines 15-18). *)
let[@fuse] self_pairs ?hint (c : D.catalog) =
  let n = D.catalog_size c in
  Iter.concat_map
    (fun (i, u) ->
      Seq_iter.map (fun j -> (u, point c j)) (Seq_iter.range (i + 1) n))
    (self_outer ?hint c)

let[@fuse] cross_pairs ?hint (c1 : D.catalog) (c2 : D.catalog) =
  let n2 = D.catalog_size c2 in
  Iter.concat_map
    (fun u -> Seq_iter.map (fun j -> (u, point c2 j)) (Seq_iter.range 0 n2))
    (cross_outer ?hint c1)

(* The correlations run_triolet runs: [correlation] over each pair loop
   in a [%fuse] site, which compiles the pair nest into a flat histogram
   loop over each band of the outer iterator.  Same elements in the
   same order as the library form. *)
let self_correlation ?ctx ?hint ~bins (c : D.catalog) =
  [%fuse correlation ?ctx ~bins (self_pairs ?hint c)]

let cross_correlation ?ctx ?hint ~bins (c1 : D.catalog) (c2 : D.catalog) =
  [%fuse correlation ?ctx ~bins (cross_pairs ?hint c1 c2)]

let catalog_codec =
  Triolet_base.Codec.map
    ~inj:(fun (cx, cy, cz) -> { D.cx; cy; cz })
    ~proj:(fun c -> (c.D.cx, c.D.cy, c.D.cz))
    (Triolet_base.Codec.triple Triolet_base.Codec.floatarray
       Triolet_base.Codec.floatarray Triolet_base.Codec.floatarray)

(* The distributed pipeline of randomSetsCorrelation, pre-reduction:
   one histogram per random set, computed where the set is shipped.
   Exposed as a plan-reification hook. *)
let random_sets_pipeline ?hint corr1 (rands : D.catalog array) =
  Iter.map corr1
    (with_hint ?hint Iter.par (Iter.of_array ~codec:catalog_codec rands))

(* randomSetsCorrelation: a parallel reduction over the random sets that
   sums their histograms (Figure 6, lines 6-11). *)
let random_sets_correlation ?ctx ?hint ~bins corr1 (rands : D.catalog array) =
  let add h1 h2 = Array.mapi (fun i x -> x + h2.(i)) h1 in
  Iter.reduce ?ctx ~codec:Triolet_base.Codec.int_array ~merge:add
    ~init:(Array.make bins 0)
    (random_sets_pipeline ?hint corr1 rands)

(* Plan-reification hooks for [triolet analyze]: each stage
   run_triolet runs, in its library form — DD's shared-memory
   triangular pair loop, and DR's and RR's distributed reductions over
   random sets. *)
let dd_pipeline ?hint ~bins (d : D.tpacf) =
  score_pipeline ~bins (self_pairs ?hint d.D.observed)

let dr_pipeline ?hint ~bins (d : D.tpacf) =
  random_sets_pipeline ?hint
    (fun r -> correlation ~bins (cross_pairs ?hint d.D.observed r))
    d.D.randoms

let rr_pipeline ?hint ~bins (d : D.tpacf) =
  random_sets_pipeline ?hint
    (fun r -> correlation ~bins (self_pairs ?hint r))
    d.D.randoms

(* Size taxonomy shared with the auto-mapper: one point-pair score is
   the work unit (DD does n^2/2 pairs, each of the [sets] DR and RR
   passes n^2 and n^2/2). *)
let size_class (d : D.tpacf) =
  let n = D.catalog_size d.D.observed and sets = Array.length d.D.randoms in
  Mapping.size_class_of_work (n * n * ((2 * sets) + 1) / 2)

let run_triolet ?ctx ?hint ~bins (d : D.tpacf) : result =
  let ctx = Exec.for_kernel ?ctx ~kernel:"tpacf" ~size:(size_class d) () in
  let module Obs = Triolet_obs.Obs in
  (* One span per pipeline stage: DD is the shared-memory triangular
     loop; DR and RR are distributed reductions over random sets.  The
     per-set correlations inside the distributed reductions run on the
     node's own pool and must not re-enter the distributed context, so
     they take no [?ctx].  [hint], when given, replaces the hint of
     every pair loop and of the random-set iterator. *)
  let dd =
    Obs.span ~name:"kernel.tpacf.dd" (fun () ->
        self_correlation ~ctx ?hint ~bins d.D.observed)
  in
  let dr =
    Obs.span ~name:"kernel.tpacf.dr" (fun () ->
        random_sets_correlation ~ctx ?hint ~bins
          (fun r -> cross_correlation ?hint ~bins d.D.observed r)
          d.D.randoms)
  in
  let rr =
    Obs.span ~name:"kernel.tpacf.rr" (fun () ->
        random_sets_correlation ~ctx ?hint ~bins
          (fun r -> self_correlation ?hint ~bins r)
          d.D.randoms)
  in
  { dd; dr; rr }

(* ------------------------------------------------------------------ *)

let run_eden ~bins (d : D.tpacf) : result =
  let module E = Triolet_baselines.Eden_list in
  let to_points (c : D.catalog) =
    List.init (D.catalog_size c) (point c)
  in
  let self_hist c =
    let pts = to_points c in
    let rec pairs = function
      | [] -> []
      | p :: rest -> E.map (fun q -> (p, q)) rest :: pairs rest
    in
    E.histogram ~bins
      (E.map (fun (u, v) -> score ~bins u v) (List.concat (pairs pts)))
  in
  let cross_hist c1 c2 =
    let p2 = to_points c2 in
    E.histogram ~bins
      (E.concat_map
         (fun u -> E.map (fun v -> score ~bins u v) p2)
         (to_points c1))
  in
  let add a b = Array.mapi (fun i x -> x + b.(i)) a in
  {
    dd = self_hist d.D.observed;
    dr =
      Array.fold_left
        (fun acc r -> add acc (cross_hist d.D.observed r))
        (Array.make bins 0) d.D.randoms;
    rr =
      Array.fold_left
        (fun acc r -> add acc (self_hist r))
        (Array.make bins 0) d.D.randoms;
  }

let agrees r1 r2 = r1.dd = r2.dd && r1.dr = r2.dr && r1.rr = r2.rr

(* ------------------------------------------------------------------ *)
(* Resident multi-round variant: observed points stay on the nodes.    *)

module Payload = Triolet_base.Payload

(** The DR loop re-visits the observed catalog once per random set; the
    resident variant installs the observed points' blocks in the warm
    fabric once, then each round ships only one random set.  Histograms
    are integer counts and every observed point lands in exactly one
    block, so {!Resident.dr} equals {!run_c}'s DR exactly. *)
module Resident = struct
  type t = { res : Skeletons.Resident.t; bins : int }

  let catalog_payload (c : D.catalog) (off, n) =
    [
      Payload.Floats (Float.Array.sub c.D.cx off n);
      Payload.Floats (Float.Array.sub c.D.cy off n);
      Payload.Floats (Float.Array.sub c.D.cz off n);
    ]

  let catalog_of_payload = function
    | [ x; y; z ] ->
        {
          D.cx = Payload.floats_exn x;
          cy = Payload.floats_exn y;
          cz = Payload.floats_exn z;
        }
    | _ -> invalid_arg "Tpacf.Resident: bad catalog payload"

  (* Child-side compute: cross-histogram of this node's observed block
     against the round's random set. *)
  let work ~bins ~block:_ ~resident ~arg =
    [ Payload.Ints (cross_hist ~bins (catalog_of_payload resident) (catalog_of_payload arg)) ]

  let create ?ctx ~bins (observed : D.catalog) =
    let res =
      Skeletons.Resident.create ?ctx ~len:(D.catalog_size observed)
        ~segment:(catalog_payload observed) ~work:(work ~bins) ()
    in
    { res; bins }

  (* One round: observed (resident) against one random set. *)
  let cross t (rand : D.catalog) =
    Skeletons.Resident.round t.res
      ~arg:(catalog_payload rand (0, D.catalog_size rand))
      ~merge:(fun acc _ reply ->
        match reply with
        | [ h ] ->
            Array.iteri (fun i c -> acc.(i) <- acc.(i) + c)
              (Payload.ints_exn h);
            acc
        | _ -> invalid_arg "Tpacf.Resident: bad reply")
      ~init:(Array.make t.bins 0)

  (* The full DR histogram: one warm round per random set; reports are
     returned per round so callers can see the byte collapse. *)
  let dr t (randoms : D.catalog array) =
    let hist = Array.make t.bins 0 in
    let reports =
      Array.map
        (fun r ->
          let h, report = cross t r in
          Array.iteri (fun i c -> hist.(i) <- hist.(i) + c) h;
          report)
        randoms
    in
    (hist, reports)

  let close t = Skeletons.Resident.close t.res
end
