(** The collector encoding: an imperative fold whose worker updates its
    output by side effect (paper, section 3.1, "Collectors").

    Collectors support mutation — histogramming, packing variable-length
    output into arrays — at the price of parallelism: a collector runs
    its whole traversal sequentially.  Hybrid iterators therefore use
    collectors only for the per-task sequential leaves of a parallel
    loop, giving each task private mutable state that is merged
    afterwards. *)

type 'a t = { run : ('a -> unit) -> unit }

let empty = { run = (fun _ -> ()) }

let singleton x = { run = (fun k -> k x) }

let of_list l = { run = (fun k -> List.iter k l) }

let of_array a = { run = (fun k -> Array.iter k a) }

let of_floatarray (a : floatarray) = { run = (fun k -> Float.Array.iter k a) }

let of_stepper st = { run = (fun k -> Stepper.iter k st) }

let of_folder fl = { run = (fun k -> Folder.iter k fl) }

let range lo hi =
  {
    run =
      (fun k ->
        for i = lo to hi - 1 do
          k i
        done);
  }

let map f t = { run = (fun k -> t.run (fun x -> k (f x))) }

let filter p t = { run = (fun k -> t.run (fun x -> if p x then k x)) }

let filter_map f t =
  {
    run =
      (fun k ->
        t.run (fun x -> match f x with Some y -> k y | None -> ()));
  }

let concat_map f t = { run = (fun k -> t.run (fun x -> (f x).run k)) }

let append a b =
  {
    run =
      (fun k ->
        a.run k;
        b.run k);
  }

let iter f t = t.run f

let length t =
  let n = ref 0 in
  t.run (fun _ -> incr n);
  !n

(** Pack a variable-length output stream into a contiguous array — the
    paper's use of collectors for variable-length-output skeletons. *)
let to_vec dummy t =
  let v = Triolet_base.Vec.create dummy in
  t.run (Triolet_base.Vec.push v);
  v

let to_floatarray (t : float t) =
  let v = to_vec 0.0 t in
  Float.Array.init (Triolet_base.Vec.length v) (Triolet_base.Vec.get v)

let to_list t =
  let acc = ref [] in
  t.run (fun x -> acc := x :: !acc);
  List.rev !acc

(** Integer histogram: counts occurrences of each bin index in [0, bins).
    Out-of-range indices are ignored, matching a guarded scatter. *)
let histogram_into h (t : int t) =
  let bins = Array.length h in
  t.run (fun i -> if i >= 0 && i < bins then h.(i) <- h.(i) + 1)

let histogram ~bins t =
  let h = Array.make bins 0 in
  histogram_into h t;
  h

(** Weighted histogram over (bin, weight) pairs. *)
let weighted_histogram_into h (t : (int * float) t) =
  let bins = Float.Array.length h in
  t.run (fun (i, w) ->
      if i >= 0 && i < bins then
        Float.Array.set h i (Float.Array.get h i +. w))

let weighted_histogram ~bins t =
  let h = Float.Array.make bins 0.0 in
  weighted_histogram_into h t;
  h

let sum_float (t : float t) =
  let acc = ref 0.0 in
  t.run (fun x -> acc := !acc +. x);
  !acc

let take n t =
  {
    run =
      (fun k ->
        let seen = ref 0 in
        t.run (fun x ->
            if !seen < n then begin
              incr seen;
              k x
            end));
  }

(** Keyed reduction into a dense table: the generalization of histogram
    to arbitrary per-key accumulation. *)
let reduce_by_key ~size ~merge ~init (t : (int * 'a) t) =
  let table = Array.make size init in
  t.run (fun (key, v) ->
      if key >= 0 && key < size then table.(key) <- merge table.(key) v);
  table

let min_float (t : float t) =
  let m = ref Float.infinity in
  t.run (fun x -> if x < !m then m := x);
  !m

let max_float (t : float t) =
  let m = ref Float.neg_infinity in
  t.run (fun x -> if x > !m then m := x);
  !m
