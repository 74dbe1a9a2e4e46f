(** User-facing Triolet iterators over any index domain.

    An [('i, 'a) iter] represents a lazily evaluated parallel loop over a
    {!Shape.t} domain: a way to build the loop nest for any block of the
    domain *in place* (zero copy, used for sequential and shared-memory
    execution), and a way to *extract and rebuild* the data slice any
    block needs (used for distributed execution — paper, section 3.5).
    Transformations compose both paths, so arbitrary pipelines of
    [map]/[filter]/[concat_map]/[zip] stay fused and partitionable.

    Consumers ([sum], [reduce], [histogram], [collect_floats],
    [to_matrix], ...) are instances of one driver, which inspects the
    iterator's parallelism hint, set by [par] and [localpar], and
    dispatches to a sequential loop, the work-stealing pool over
    outer-axis bands ({!Shape.band}), or one cluster node per block of
    the one block rule, [node_blocks] ({!Shape.blocks}). *)

module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec
module Pool = Triolet_runtime.Pool

type hint = Sequential | Local | Distributed

type ('i, 'a) iter = {
  hint : hint;
  shape : 'i Shape.t;  (** the index domain *)
  local : 'i Shape.block -> 'a Seq_iter.t;
      (** [local blk] : in-place row-major loop nest over a block *)
  width : int;  (** number of payload buffers this iterator contributes *)
  payload_of : 'i Shape.block -> Payload.t;
      (** [payload_of blk] : extracted data slice for that block *)
  rebuild : Payload.t -> ('i, 'a) iter;
      (** rebuild an iterator over a shipped block, whose domain is the
          block's extent (always [Local]) *)
}

type 'a t = (int, 'a) iter

let hint t = t.hint
let shape t = t.shape
let length t = Shape.size t.shape

let no_payload name _ =
  invalid_arg
    (Printf.sprintf
       "Iter: %s has no serializable source; distributed execution needs one"
       name)

let join a b =
  match (a, b) with
  | Distributed, _ | _, Distributed -> Distributed
  | Local, _ | _, Local -> Local
  | Sequential, Sequential -> Sequential

(* One random-access loop level of [n] iterations, flat or nested. *)
let flat n g = Seq_iter.of_indexer (Indexer.init (Shape.Seq n) g)
let nested n g = Seq_iter.Idx_nest (Indexer.init (Shape.Seq n) g)

(* The row-major loop nest over a block, one random-access level per
   axis, for an element function of absolute indices. *)
let nest : type i. i Shape.block -> (i -> 'a) -> 'a Seq_iter.t =
 fun (o, ext) f ->
  match (ext, o) with
  | Shape.Seq n, o -> flat n (fun i -> f (o + i))
  | Shape.Dim2 (h, w), (y, x) ->
      nested h (fun i -> flat w (fun j -> f (y + i, x + j)))
  | Shape.Dim3 (d, h, w), (z, y, x) ->
      nested d (fun k ->
          nested h (fun i -> flat w (fun j -> f (z + k, y + i, x + j))))

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)

let rec of_floatarray (a : floatarray) =
  {
    hint = Sequential;
    shape = Shape.Seq (Float.Array.length a);
    local =
      (fun (off, Shape.Seq n) ->
        Seq_iter.of_indexer (Indexer.slice (Indexer.of_floatarray a) off n));
    width = 1;
    payload_of = (fun (off, Shape.Seq n) -> [ Payload.Slice (a, off, n) ]);
    rebuild =
      (fun p ->
        match p with
        | [ b ] -> { (of_floatarray (Payload.floats_exn b)) with hint = Local }
        | _ -> invalid_arg "Iter.of_floatarray: bad payload");
  }

let rec of_int_array (a : int array) =
  {
    hint = Sequential;
    shape = Shape.Seq (Array.length a);
    local =
      (fun (off, Shape.Seq n) ->
        Seq_iter.of_indexer (Indexer.slice (Indexer.of_array a) off n));
    width = 1;
    payload_of =
      (fun (off, Shape.Seq n) -> [ Payload.Ints (Array.sub a off n) ]);
    rebuild =
      (fun p ->
        match p with
        | [ b ] -> { (of_int_array (Payload.ints_exn b)) with hint = Local }
        | _ -> invalid_arg "Iter.of_int_array: bad payload");
  }

(** Generic boxed array.  A [codec] is required only if the iterator is
    consumed with distributed parallelism. *)
let of_array ?codec (a : 'a array) =
  let rec build (a : 'a array) =
    {
      hint = Sequential;
      shape = Shape.Seq (Array.length a);
      local =
        (fun (off, Shape.Seq n) ->
          Seq_iter.of_indexer (Indexer.slice (Indexer.of_array a) off n));
      width = 1;
      payload_of =
        (fun ((off, Shape.Seq n) as blk) ->
          match codec with
          | None -> no_payload "of_array (no codec)" blk
          | Some c ->
              [
                Payload.Raw
                  (Bytes.unsafe_to_string
                     (Codec.to_bytes (Codec.array c) (Array.sub a off n)));
              ]);
      rebuild =
        (fun p ->
          match (p, codec) with
          | [ b ], Some c ->
              let sub =
                Codec.of_bytes (Codec.array c)
                  (Bytes.unsafe_of_string (Payload.raw_exn b))
              in
              { (build sub) with hint = Local }
          | _ -> invalid_arg "Iter.of_array: bad payload");
    }
  in
  build a

(** Boxed list source: materialized to an array once (lists have no
    random access), then behaves like {!of_array}. *)
let of_list ?codec l = of_array ?codec (Array.of_list l)

(** From an element function over a domain (the paper's [arrayRange]
    comprehension).  A block's payload carries only its bounds; the
    function itself travels as a closure, as all task code does. *)
let init shape f =
  let rec build base shape =
    {
      hint = Sequential;
      shape;
      local = (fun (o, ext) -> nest (Shape.add shape base o, ext) f);
      width = 1;
      payload_of =
        (fun (o, ext) ->
          [ Payload.Ints (Shape.block_to_ints (Shape.add shape base o, ext)) ]);
      rebuild =
        (fun p ->
          match p with
          | [ b ] ->
              let base, ext = Shape.block_of_ints shape (Payload.ints_exn b) in
              { (build base ext) with hint = Local }
          | _ -> invalid_arg "Iter.init: bad payload");
    }
  in
  build (Shape.origin shape) shape

(** Iterator over the integers [lo, hi). *)
let range lo hi =
  if hi < lo then invalid_arg "Iter.range";
  init (Shape.Seq (hi - lo)) (fun i -> lo + i)

(** [indices it] are the outer indices of [it]: the paper's
    [indices(domain(rand))]. *)
let indices t = range 0 (length t)

let of_matrix m =
  init (Shape.dim2 (Matrix.rows m) (Matrix.cols m)) (fun (i, j) ->
      Matrix.unsafe_get m i j)

(** Transposition as an iterator:
    [[A[x,y] for (y,x) in arrayRange((0,0),(h,w))]] from the paper. *)
let transpose m =
  init (Shape.dim2 (Matrix.cols m) (Matrix.rows m)) (fun (y, x) ->
      Matrix.unsafe_get m x y)

(** A grid's elements over [Dim3 (nz, ny, nx)].  Node blocks of a [Dim3]
    are z-slabs, contiguous in the x-fastest layout, so a slab's payload
    names one run of the grid's data, copied once, into the frame. *)
let rec of_grid (g : Grid3.t) =
  let nx, ny, nz = Grid3.dims g in
  {
    hint = Sequential;
    shape = Shape.Dim3 (nz, ny, nx);
    local = (fun blk -> nest blk (fun (z, y, x) -> Grid3.unsafe_get g x y z));
    width = 2;
    payload_of =
      (fun ((z0, _, _), Shape.Dim3 (n, _, _)) ->
        [
          Payload.Ints [| nx; ny; n |];
          Payload.Slice (Grid3.data g, z0 * ny * nx, n * ny * nx);
        ]);
    rebuild =
      (fun p ->
        match p with
        | [ hdr; fl ] ->
            let hdr = Payload.ints_exn hdr in
            let sub =
              Grid3.of_floatarray ~nx:hdr.(0) ~ny:hdr.(1) ~nz:hdr.(2)
                (Payload.floats_exn fl)
            in
            { (of_grid sub) with hint = Local }
        | _ -> invalid_arg "Iter.of_grid: bad payload");
  }

(** The one row-block payload: a [rows; cols] header, then the data. *)
let matrix_payload m =
  [
    Payload.Ints [| Matrix.rows m; Matrix.cols m |];
    Payload.Floats (Matrix.data m);
  ]

let matrix_of_payload (p : Payload.t) =
  match p with
  | [ hdr; fl ] ->
      let hdr = Payload.ints_exn hdr in
      Matrix.of_floatarray ~rows:hdr.(0) ~cols:hdr.(1) (Payload.floats_exn fl)
  | _ -> invalid_arg "Iter.matrix_of_payload: bad payload"

(** The paper's [rows]: a matrix as a 1-D iterator over its rows.  Rows
    of a row-major matrix are contiguous, so a slice of rows names one
    run of the matrix's data: {!matrix_payload}'s layout, copied once,
    into the frame. *)
let rec rows (m : Matrix.t) : Matrix.view t =
  {
    hint = Sequential;
    shape = Shape.Seq (Matrix.rows m);
    local = (fun blk -> nest blk (Matrix.row m));
    width = 2;
    payload_of =
      (fun (off, Shape.Seq n) ->
        let k = Matrix.cols m in
        [ Payload.Ints [| n; k |]; Payload.Slice (Matrix.data m, off * k, n * k) ]);
    rebuild = (fun p -> { (rows (matrix_of_payload p)) with hint = Local });
  }

let split_payload w p =
  let rec take k l =
    if k = 0 then ([], l)
    else
      match l with
      | [] -> invalid_arg "Iter: payload too short"
      | x :: rest ->
          let a, b = take (k - 1) rest in
          (x :: a, b)
  in
  take w p

(* The rebuild of a two-input iterator.  It closes over the inputs'
   rebuilds only, never over their records, whose [local] and
   [payload_of] hold the source data: a node's task code ships that
   closure, and the data belongs in the payload. *)
let rebuild2 combine a b =
  let wa = a.width and ra = a.rebuild and rb = b.rebuild in
  fun p ->
    let pa, pb = split_payload wa p in
    combine (ra pa) (rb pb)

(** The paper's [outerproduct]: pair every element of [a] with every
    element of [b].  Block (r0, nr, c0, nc) needs elements [r0, r0+nr)
    of [a] and [c0, c0+nc) of [b] — exactly the slices its payload
    carries. *)
let rec outer_product (a : 'a t) (b : 'b t) =
  {
    hint = join a.hint b.hint;
    shape = Shape.Dim2 (length a, length b);
    local =
      (fun ((r0, c0), Shape.Dim2 (nr, nc)) ->
        (* Outer elements are cheap views; materializing the block's
           row and column headers once avoids re-running the outer
           loops per element. *)
        let header t blk = Array.of_list (Seq_iter.to_list (t.local blk)) in
        let av = header a (r0, Shape.Seq nr) in
        let bv = header b (c0, Shape.Seq nc) in
        nested nr (fun i ->
            let u = av.(i) in
            flat nc (fun j -> (u, bv.(j)))));
    width = a.width + b.width;
    payload_of =
      (fun ((r0, c0), Shape.Dim2 (nr, nc)) ->
        a.payload_of (r0, Shape.Seq nr) @ b.payload_of (c0, Shape.Seq nc));
    rebuild = rebuild2 outer_product a b;
  }

(* ------------------------------------------------------------------ *)
(* Transformations (fused: nothing is materialized)                    *)

(* Apply a loop-nest rewrite to both the in-place and rebuilt paths. *)
let rec lift g t =
  let rebuild = t.rebuild in
  { t with local = (fun blk -> g (t.local blk)); rebuild = (fun p -> lift g (rebuild p)) }

let map f t = lift (Seq_iter.map f) t
let filter p t = lift (Seq_iter.filter p) t

(** Nested traversal: [f] produces the inner loop for each element as a
    {!Seq_iter.t}; the result is irregular but the outer loop stays
    partitionable. *)
let concat_map f t = lift (Seq_iter.concat_map f) t

let filter_map f t = lift (Seq_iter.filter_map f) t

(** Pointwise combination over the intersection of the domains; no
    intermediate tuple is allocated per element on the hot path. *)
let rec zip_with f a b =
  {
    hint = join a.hint b.hint;
    shape = Shape.intersect a.shape b.shape;
    local = (fun blk -> Seq_iter.zip_with f (a.local blk) (b.local blk));
    width = a.width + b.width;
    payload_of = (fun blk -> a.payload_of blk @ b.payload_of blk);
    rebuild = rebuild2 (zip_with f) a b;
  }

let zip a b = zip_with (fun x y -> (x, y)) a b
let zip3 a b c = zip_with (fun x (y, z) -> (x, y, z)) a (zip b c)
let enumerate t = zip (indices t) t

(** [sub ~off ~len t]: the outer sub-range [off, off+len) of [t] as an
    iterator in its own right — data slicing composes, so a sub-range
    of a sliceable iterator is still sliceable. *)
let sub ~off ~len t =
  if off < 0 || len < 0 || off + len > length t then invalid_arg "Iter.sub";
  {
    t with
    shape = Shape.Seq len;
    local = (fun (o, s) -> t.local (off + o, s));
    payload_of = (fun (o, s) -> t.payload_of (off + o, s));
  }

(* ------------------------------------------------------------------ *)
(* Parallelism hints                                                   *)

(** Use all available parallelism: distribute across nodes, then across
    cores within each node. *)
let par t = { t with hint = Distributed }

(** Shared-memory parallelism on a single node only. *)
let localpar t = { t with hint = Local }

let sequential t = { t with hint = Sequential }

let with_hint hint t = { t with hint }

(* ------------------------------------------------------------------ *)
(* Consumers                                                           *)

(* The one block rule of distributed execution: one node block per
   cluster worker of the context. *)
let node_blocks ?ctx shape =
  Shape.blocks ~parts:(Exec.worker_count (Exec.resolve ctx)) shape

(* The one consumer driver (paper, section 3.4), dispatching on the
   hint: [whole] runs the whole domain in place; [on_pool ctx pool t]
   runs [pool] over [t]'s outer-axis bands; [Distributed] runs
   [on_pool] on one node per block of {!node_blocks}, over the block
   rebuilt from its payload, and [combine] takes the node replies in
   block order.  The context is resolved once here and handed to
   [on_pool]; the node task captures it by value, so under the process
   backend it reaches the warm children intact inside the job's closure
   bytes.  The node task captures [t]'s rebuild, not [t]: the record's
   [local] holds the source data, which travels as the payload. *)
let drive ?ctx ~result_codec ~whole ~on_pool ~combine t =
  let ctx = Exec.resolve ctx in
  match t.hint with
  | Sequential -> whole t
  | Local -> on_pool ctx (Pool.default ()) t
  | Distributed ->
      let blocks = node_blocks ~ctx t.shape and rebuild = t.rebuild in
      combine blocks
        (Skeletons.distributed ~ctx ~blocks ~payload_of:t.payload_of
           ~node_work:(fun ~pool payload -> on_pool ctx pool (rebuild payload))
           ~result_codec ())

(* The band fold every reduction runs on: one accumulator per pool
   worker from [create], and the node replies merged into a fresh
   [create ()].  [fold] and [merge] may update their first argument in
   place: every accumulator they see is private to one worker, node or
   call. *)
let run_reduce ?ctx ~result_codec ~create ~fold ~merge t =
  drive ?ctx ~result_codec t
    ~whole:(fun t ->
      if length t = 0 then create ()
      else fold (create ()) (t.local (Shape.whole t.shape)))
    ~on_pool:(fun ctx pool t ->
      Skeletons.local_reduce_with ~ctx pool ~len:(Shape.outer t.shape) ~create
        ~fold:(fun acc off n -> fold acc (t.local (Shape.band t.shape off n)))
        ~merge)
    ~combine:(fun _ replies -> Array.fold_left merge (create ()) replies)

(* A reduction over immutable values: each chunk's [of_chunk] result is
   merged into the running value, [init] being [merge]'s identity. *)
let reduce_values ?ctx ~result_codec ~of_chunk ~merge ~init t =
  run_reduce ?ctx ~result_codec
    ~create:(fun () -> init)
    ~fold:(fun acc si -> merge acc (of_chunk si))
    ~merge t

let sum ?ctx t =
  reduce_values ?ctx ~result_codec:Codec.float ~of_chunk:Seq_iter.sum_float
    ~merge:( +. ) ~init:0.0 t

let sum_int ?ctx t =
  reduce_values ?ctx ~result_codec:Codec.int ~of_chunk:Seq_iter.sum_int
    ~merge:( + ) ~init:0 t

let count ?ctx t =
  reduce_values ?ctx ~result_codec:Codec.int ~of_chunk:Seq_iter.length
    ~merge:( + ) ~init:0 t

(** General reduction.  [codec] is only exercised under distributed
    execution (results cross a node boundary). *)
let reduce ?ctx ~codec ~merge ~init t =
  reduce_values ?ctx ~result_codec:codec
    ~of_chunk:(fun si -> Seq_iter.fold merge init si)
    ~merge ~init t

(* In-place merges of private accumulators: add [b] into [a], return
   [a]. *)
let array_add a b =
  if Array.length a <> Array.length b then invalid_arg "Iter: histogram merge";
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) + b.(i)
  done;
  a

let floatarray_add a b =
  if Float.Array.length a <> Float.Array.length b then
    invalid_arg "Iter: scatter merge";
  for i = 0 to Float.Array.length a - 1 do
    Float.Array.set a i (Float.Array.get a i +. Float.Array.get b i)
  done;
  a

(** Counting histogram of bin indices: each pool worker counts into one
    private histogram across all its ranges; histograms are added in
    place within each node and once more across nodes — the paper's
    distributed histogram strategy. *)
let histogram ?ctx ~bins t =
  run_reduce ?ctx ~result_codec:Codec.int_array
    ~create:(fun () -> Array.make bins 0)
    ~fold:(fun h si ->
      Collector.histogram_into h (Seq_iter.collect si);
      h)
    ~merge:array_add t

(** Floating-point scatter-add over (index, weight) pairs: cutcp's
    "floating-point histogram", accumulated like {!histogram}. *)
let scatter_add ?ctx ~size t =
  run_reduce ?ctx ~result_codec:Codec.floatarray
    ~create:(fun () -> Float.Array.make size 0.0)
    ~fold:(fun g si ->
      Collector.weighted_histogram_into g (Seq_iter.collect si);
      g)
    ~merge:floatarray_add t

let floatarray_concat parts =
  let total = Array.fold_left (fun n a -> n + Float.Array.length a) 0 parts in
  let out = Float.Array.make total 0.0 in
  let pos = ref 0 in
  Array.iter
    (fun a ->
      Float.Array.blit a 0 out !pos (Float.Array.length a);
      pos := !pos + Float.Array.length a)
    parts;
  out

(* Order-preserving packing: per-range results concatenated in range
   order.  A pool worker may run ranges from anywhere in the loop, so
   each worker keeps its results tagged with their offsets, and the
   merged list is sorted by offset before concatenation; node replies
   come back in block order already. *)
let collect ?ctx ~result_codec ~of_chunk ~concat (t : 'a t) =
  drive ?ctx ~result_codec t
    ~whole:(fun t -> of_chunk (t.local (Shape.whole t.shape)))
    ~on_pool:(fun ctx pool t ->
      Skeletons.local_reduce_with ~ctx pool ~len:(length t)
        ~create:(fun () -> [])
        ~fold:(fun acc off n ->
          (off, of_chunk (t.local (off, Shape.Seq n))) :: acc)
        ~merge:List.rev_append
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd |> Array.of_list |> concat)
    ~combine:(fun _ replies -> concat replies)

(** Pack the (possibly variable-length) float results into a contiguous
    array, preserving iteration order. *)
let collect_floats ?ctx t =
  collect ?ctx ~result_codec:Codec.floatarray ~of_chunk:Seq_iter.to_floatarray
    ~concat:floatarray_concat t

(** Like {!collect_floats} for (float, float) element pairs, packing the
    two components into separate arrays (e.g. the real and imaginary
    sums of mri-q). *)
let collect_float_pairs ?ctx t =
  let chunk_to_pair si =
    let a = Triolet_base.Vec.create 0.0 and b = Triolet_base.Vec.create 0.0 in
    Seq_iter.iter
      (fun (x, y) ->
        Triolet_base.Vec.push a x;
        Triolet_base.Vec.push b y)
      si;
    let pack v =
      Float.Array.init (Triolet_base.Vec.length v) (Triolet_base.Vec.get v)
    in
    (pack a, pack b)
  in
  collect ?ctx
    ~result_codec:(Codec.pair Codec.floatarray Codec.floatarray)
    ~of_chunk:chunk_to_pair
    ~concat:(fun parts ->
      ( floatarray_concat (Array.map fst parts),
        floatarray_concat (Array.map snd parts) ))
    t

(* Write a block's elements, in row-major order, into [out] laid out
   as [shape], one innermost-axis run at a time. *)
let fill shape blk out si =
  let run = Shape.inner (snd blk) and starts = Shape.runs shape blk in
  let r = ref 0 and c = ref 0 in
  Seq_iter.iter
    (fun v ->
      Float.Array.set out (starts.(!r) + !c) v;
      if !c + 1 = run then begin
        c := 0;
        incr r
      end
      else incr c)
    si;
  if !r <> Array.length starts || !c <> 0 then
    invalid_arg "Iter: to_matrix/to_grid need exactly one element per index"

(* Materialize an iterator row-major over its domain through a band
   fill: [band src] writes outer rows [off, off+n) of [src]'s domain
   into an array laid out as that domain.  One band, outer-axis bands on
   the pool, or node blocks each shipped only its input slice, rebuilt,
   filled with band parallelism, and copied back into place run by run.
   The node's task code captures [band] and [t]'s rebuild, never [t]. *)
let materialize_by ?ctx ~band t =
  let fresh src = Float.Array.make (length src) 0.0 in
  drive ?ctx ~result_codec:Codec.floatarray t
    ~whole:(fun t ->
      let out = fresh t in
      band t out 0 (Shape.outer t.shape);
      out)
    ~on_pool:(fun ctx pool src ->
      let out = fresh src and fill_band = band src in
      Skeletons.local_reduce_with ~ctx pool ~len:(Shape.outer src.shape)
        ~create:ignore
        ~fold:(fun () off n -> fill_band out off n)
        ~merge:(fun () () -> ());
      out)
    ~combine:(fun blocks parts ->
      let out = fresh t in
      Array.iteri
        (fun k part ->
          let run = Shape.inner (snd blocks.(k)) in
          Array.iteri
            (fun r start -> Float.Array.blit part (r * run) out start run)
            (Shape.runs t.shape blocks.(k)))
        parts;
      out)

(* The library's band: the element loop of each band. *)
let element_band src out off n =
  let blk = Shape.band src.shape off n in
  fill src.shape blk out (src.local blk)

let to_matrix ?ctx t =
  match t.shape with
  | Shape.Dim2 (rows, cols) ->
      Matrix.of_floatarray ~rows ~cols (materialize_by ?ctx ~band:element_band t)

let fill_matrix ?ctx ~fill t =
  match t.shape with
  | Shape.Dim2 (rows, cols) ->
      let band src = fill (src.payload_of (Shape.whole src.shape)) in
      Matrix.of_floatarray ~rows ~cols (materialize_by ?ctx ~band t)

let row_blocks p =
  match p with
  | [ ha; fa; hb; fb ] -> (matrix_of_payload [ ha; fa ], matrix_of_payload [ hb; fb ])
  | _ -> invalid_arg "Iter.row_blocks: bad payload"

let to_grid ?ctx t =
  match t.shape with
  | Shape.Dim3 (nz, ny, nx) ->
      Grid3.of_floatarray ~nx ~ny ~nz (materialize_by ?ctx ~band:element_band t)

(* Sequential-only conveniences. *)

let to_seq_iter t = t.local (Shape.whole t.shape)

let to_list t = Seq_iter.to_list (to_seq_iter t)

let iter f t = Seq_iter.iter f (to_seq_iter t)

let fold f init t = Seq_iter.fold f init (to_seq_iter t)

(* ------------------------------------------------------------------ *)
(* Extended consumers                                                  *)

let min_float ?ctx t =
  reduce_values ?ctx ~result_codec:Codec.float ~of_chunk:Seq_iter.min_float
    ~merge:Float.min ~init:Float.infinity t

let max_float ?ctx t =
  reduce_values ?ctx ~result_codec:Codec.float ~of_chunk:Seq_iter.max_float
    ~merge:Float.max ~init:Float.neg_infinity t

(** Arithmetic mean; [nan] on empty input. *)
let mean ?ctx t =
  let sum, n =
    reduce_values ?ctx
      ~result_codec:(Codec.pair Codec.float Codec.int)
      ~of_chunk:(fun si ->
        Seq_iter.fold (fun (s, n) x -> (s +. x, n + 1)) (0.0, 0) si)
      ~merge:(fun (s1, n1) (s2, n2) -> (s1 +. s2, n1 + n2))
      ~init:(0.0, 0) t
  in
  if n = 0 then Float.nan else sum /. float_of_int n

let exists ?ctx p t =
  reduce_values ?ctx ~result_codec:Codec.bool
    ~of_chunk:(fun si -> Seq_iter.exists p si)
    ~merge:( || ) ~init:false t

let for_all ?ctx p t =
  reduce_values ?ctx ~result_codec:Codec.bool
    ~of_chunk:(fun si -> Seq_iter.for_all p si)
    ~merge:( && ) ~init:true t
