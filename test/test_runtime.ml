(* Tests for the runtime substrate: partitioning, the Chase–Lev deque,
   the work-stealing pool, mailboxes, and the two-level cluster runtime. *)

open Triolet_runtime

let check_int = Alcotest.(check int)

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

(* Small pools keep the 1-core CI box honest while still exercising
   cross-domain paths. *)
let with_pool w f =
  let p = Pool.create ~workers:w () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)

let test_blocks_cover () =
  let parts = Partition.blocks ~parts:4 10 in
  Alcotest.(check (array (pair int int)))
    "blocks" [| (0, 3); (3, 3); (6, 2); (8, 2) |] parts

let test_blocks_more_parts_than_items () =
  let parts = Partition.blocks ~parts:10 3 in
  check_int "no empty blocks" 3 (Array.length parts);
  Alcotest.(check (array (pair int int))) "unit blocks"
    [| (0, 1); (1, 1); (2, 1) |] parts

let test_blocks_empty_range () =
  check_int "empty" 0 (Array.length (Partition.blocks ~parts:4 0))

let test_blocks_invalid () =
  Alcotest.check_raises "zero parts"
    (Invalid_argument "Partition.blocks: parts must be positive") (fun () ->
      ignore (Partition.blocks ~parts:0 5))

let test_owner_consistent () =
  for n = 1 to 30 do
    for parts = 1 to 6 do
      let blocks = Partition.blocks ~parts n in
      Array.iteri
        (fun b (off, len) ->
          for i = off to off + len - 1 do
            check_int "owner" b (Partition.owner ~parts n i)
          done)
        blocks
    done
  done

let test_grid () =
  let g = Partition.grid ~row_parts:2 ~col_parts:2 ~rows:4 ~cols:6 in
  check_int "4 blocks" 4 (Array.length g);
  let covered = Array.make (4 * 6) 0 in
  Array.iter
    (fun (r0, nr, c0, nc) ->
      for i = r0 to r0 + nr - 1 do
        for j = c0 to c0 + nc - 1 do
          covered.((i * 6) + j) <- covered.((i * 6) + j) + 1
        done
      done)
    g;
  Array.iter (fun c -> check_int "covered exactly once" 1 c) covered

let test_square_factors () =
  Alcotest.(check (pair int int)) "8" (2, 4) (Partition.square_factors 8);
  Alcotest.(check (pair int int)) "9" (3, 3) (Partition.square_factors 9);
  Alcotest.(check (pair int int)) "1" (1, 1) (Partition.square_factors 1);
  Alcotest.(check (pair int int)) "7 (prime)" (1, 7) (Partition.square_factors 7)

let test_chunk_count () =
  check_int "bounded by n" 3 (Partition.chunk_count ~workers:8 3);
  check_int "multiplied" 16 (Partition.chunk_count ~workers:4 1000);
  check_int "at least 1" 1 (Partition.chunk_count ~workers:4 0)

let prop_blocks_cover_exactly =
  qtest "blocks partition [0,n)"
    QCheck2.Gen.(pair (int_range 0 200) (int_range 1 17))
    (fun (n, parts) ->
      let blocks = Partition.blocks ~parts n in
      let seen = Array.make n false in
      Array.iter
        (fun (off, len) ->
          for i = off to off + len - 1 do
            seen.(i) <- true
          done)
        blocks;
      Array.for_all Fun.id seen
      && Array.fold_left (fun a (_, l) -> a + l) 0 blocks = n
      && Array.for_all (fun (_, l) -> l > 0) blocks)

let prop_blocks_balanced =
  qtest "block sizes differ by at most 1"
    QCheck2.Gen.(pair (int_range 1 500) (int_range 1 17))
    (fun (n, parts) ->
      let blocks = Partition.blocks ~parts n in
      let sizes = Array.map snd blocks in
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      mx - mn <= 1)

(* ------------------------------------------------------------------ *)
(* Wsdeque                                                             *)

let test_deque_lifo_owner () =
  let q = Wsdeque.create () in
  Wsdeque.push q 1;
  Wsdeque.push q 2;
  Wsdeque.push q 3;
  Alcotest.(check (option int)) "pop newest" (Some 3) (Wsdeque.pop q);
  Alcotest.(check (option int)) "pop next" (Some 2) (Wsdeque.pop q);
  Alcotest.(check (option int)) "pop last" (Some 1) (Wsdeque.pop q);
  Alcotest.(check (option int)) "empty" None (Wsdeque.pop q)

let test_deque_steal_fifo () =
  let q = Wsdeque.create () in
  Wsdeque.push q 1;
  Wsdeque.push q 2;
  (match Wsdeque.steal q with
  | Wsdeque.Stolen v -> check_int "steal oldest" 1 v
  | _ -> Alcotest.fail "expected steal");
  Alcotest.(check (option int)) "owner gets newest" (Some 2) (Wsdeque.pop q);
  match Wsdeque.steal q with
  | Wsdeque.Empty -> ()
  | _ -> Alcotest.fail "expected empty"

let test_deque_growth () =
  let q = Wsdeque.create ~capacity:2 () in
  for i = 0 to 99 do
    Wsdeque.push q i
  done;
  check_int "size" 100 (Wsdeque.size q);
  for i = 99 downto 0 do
    Alcotest.(check (option int)) "pop" (Some i) (Wsdeque.pop q)
  done

let test_deque_interleaved () =
  let q = Wsdeque.create () in
  Wsdeque.push q 1;
  ignore (Wsdeque.pop q);
  Wsdeque.push q 2;
  Wsdeque.push q 3;
  (match Wsdeque.steal q with
  | Wsdeque.Stolen v -> check_int "steals 2" 2 v
  | _ -> Alcotest.fail "steal");
  Alcotest.(check (option int)) "pops 3" (Some 3) (Wsdeque.pop q);
  Alcotest.(check (option int)) "drained" None (Wsdeque.pop q)

let test_deque_concurrent_consistency () =
  (* One owner popping, one thief stealing: every element is delivered
     exactly once. *)
  let n = 10_000 in
  let q = Wsdeque.create () in
  for i = 0 to n - 1 do
    Wsdeque.push q i
  done;
  let stolen = ref [] in
  let thief =
    Domain.spawn (fun () ->
        let rec loop () =
          match Wsdeque.steal q with
          | Wsdeque.Stolen v ->
              stolen := v :: !stolen;
              loop ()
          | Wsdeque.Retry -> loop ()
          | Wsdeque.Empty -> if Wsdeque.size q > 0 then loop ()
        in
        loop ())
  in
  let popped = ref [] in
  let rec drain () =
    match Wsdeque.pop q with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Domain.join thief;
  let all = List.sort compare (!stolen @ !popped) in
  check_int "all delivered exactly once" n (List.length all);
  Alcotest.(check bool) "no duplicates/losses" true
    (all = List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_parallel_for_covers () =
  with_pool 3 (fun p ->
      let hits = Array.make 1000 0 in
      Pool.parallel_for p ~lo:0 ~hi:1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iter (fun h -> check_int "each index once" 1 h) hits)

let test_pool_parallel_reduce () =
  with_pool 3 (fun p ->
      let s =
        Pool.parallel_reduce p ~lo:0 ~hi:10_001 ~f:(fun i -> i) ~merge:( + )
          ~init:0 ()
      in
      check_int "gauss" 50_005_000 s)

let test_pool_parallel_chunks_merge () =
  with_pool 2 (fun p ->
      let chunks = Partition.blocks ~parts:8 100 in
      let total =
        Pool.parallel_chunks p ~chunks
          ~f:(fun off len ->
            let s = ref 0 in
            for i = off to off + len - 1 do
              s := !s + i
            done;
            !s)
          ~merge:( + ) ~init:0
      in
      check_int "sum 0..99" 4950 total)

let test_pool_empty_range () =
  with_pool 2 (fun p ->
      Pool.parallel_for p ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "no work");
      check_int "reduce empty" 42
        (Pool.parallel_reduce p ~lo:0 ~hi:0 ~f:(fun _ -> 0) ~merge:( + )
           ~init:42 ()))

let test_pool_single_worker () =
  with_pool 1 (fun p ->
      let s =
        Pool.parallel_reduce p ~lo:0 ~hi:100 ~f:Fun.id ~merge:( + ) ~init:0 ()
      in
      check_int "sequential pool" 4950 s)

let test_pool_irregular_work () =
  (* Irregular chunk costs with stealing: correctness is unaffected. *)
  with_pool 4 (fun p ->
      let n = 200 in
      let result =
        Pool.parallel_reduce p ~grain:4 ~lo:0 ~hi:n
          ~f:(fun i ->
            (* skewed work: later indices spin longer *)
            let acc = ref 0 in
            for _ = 0 to i * 50 do
              incr acc
            done;
            ignore !acc;
            i)
          ~merge:( + ) ~init:0 ()
      in
      check_int "sum" (n * (n - 1) / 2) result)

(* ---- Adaptive lazy-splitting scheduler ---- *)

(* Adversarially skewed per-element costs; each returns the spin count
   for index [i] so the workload is deterministic. *)
let skew_shapes =
  [
    ("hot-head", fun i -> if i < 8 then 4000 else 1);
    ("hot-tail", fun i -> if i >= 992 then 4000 else 1);
    ("single-spike", fun i -> if i = 313 then 200_000 else 1);
    ("zipf-ish", fun i -> 20_000 / (i + 1));
    ("sawtooth", fun i -> if i mod 97 = 0 then 3000 else 2);
  ]

let spin k =
  let acc = ref 0 in
  for _ = 1 to k do
    incr acc
  done;
  !acc

let test_pool_skewed_matches_sequential () =
  (* The scheduler must compute exactly the sequential fold no matter
     how skewed the per-element cost is, at every pool width. *)
  let n = 1000 in
  List.iter
    (fun (name, cost) ->
      let f i =
        ignore (spin (cost i));
        (2 * i) + 1
      in
      let expected = ref 0 in
      for i = 0 to n - 1 do
        expected := !expected + f i
      done;
      List.iter
        (fun width ->
          with_pool width (fun p ->
              let got =
                Pool.parallel_reduce p ~grain:1 ~lo:0 ~hi:n ~f ~merge:( + )
                  ~init:0 ()
              in
              check_int (Printf.sprintf "%s @ width %d" name width) !expected
                got))
        [ 1; 2; 4 ])
    skew_shapes

let test_pool_parallel_range_covers () =
  (* Every index of the range reaches [f] exactly once, via grains that
     tile the range. *)
  with_pool 4 (fun p ->
      let n = 4097 in
      let hits = Array.make n (-1) in
      let lock = Mutex.create () in
      let spans =
        Pool.parallel_range p ~grain:16 ~lo:100 ~hi:(100 + n)
          ~f:(fun off len ->
            Mutex.lock lock;
            for i = off to off + len - 1 do
              hits.(i - 100) <- hits.(i - 100) + 1
            done;
            Mutex.unlock lock;
            [ (off, len) ])
          ~merge:( @ ) ~init:[] ()
      in
      Array.iteri (fun i h -> check_int (string_of_int i) 0 h) hits;
      check_int "span lengths tile the range" n
        (List.fold_left (fun a (_, l) -> a + l) 0 spans);
      List.iter
        (fun (off, len) ->
          Alcotest.(check bool) "span inside range" true
            (off >= 100 && len > 0 && off + len <= 100 + n))
        spans)

let test_pool_range_exception () =
  (* A user exception mid-range is re-raised on the caller and leaves
     the pool reusable. *)
  with_pool 4 (fun p ->
      Alcotest.check_raises "re-raised" (Failure "boom") (fun () ->
          ignore
            (Pool.parallel_reduce p ~grain:1 ~lo:0 ~hi:1000
               ~f:(fun i -> if i = 500 then failwith "boom" else i)
               ~merge:( + ) ~init:0 ()));
      check_int "pool still works" 4950
        (Pool.parallel_reduce p ~lo:0 ~hi:100 ~f:Fun.id ~merge:( + ) ~init:0 ()))

let test_pool_per_worker_stats () =
  (* Per-worker counters reconcile with the global aggregates, and an
     adversarial workload at width 4 shows adaptive activity: ranges
     were split, and every chunk is accounted to some worker. *)
  with_pool 4 (fun p ->
      let n = 2000 in
      let (), delta =
        Stats.measure (fun () ->
            ignore
              (Pool.parallel_reduce p ~grain:1 ~lo:0 ~hi:n
                 ~f:(fun i -> spin (if i < 16 then 50_000 else 1))
                 ~merge:( + ) ~init:0 ()))
      in
      Alcotest.(check bool) "at least 4 worker slots" true
        (Array.length delta.Stats.per_worker >= 4);
      let sum field =
        Array.fold_left (fun a w -> a + field w) 0 delta.Stats.per_worker
      in
      check_int "worker chunks sum to global"
        delta.Stats.chunks_run
        (sum (fun w -> w.Stats.w_chunks));
      check_int "worker steals sum to global" delta.Stats.steals
        (sum (fun w -> w.Stats.w_steals));
      check_int "worker splits sum to global" delta.Stats.splits
        (sum (fun w -> w.Stats.w_splits));
      Alcotest.(check bool) "ranges were split" true (delta.Stats.splits > 0);
      Alcotest.(check bool) "all iterations ran" true
        (delta.Stats.chunks_run >= 1))

let test_pool_grain_policy () =
  check_int "floors at 1" 1 (Partition.grain ~workers:8 10);
  check_int "scales with n" 10 (Partition.grain ~workers:4 1280);
  check_int "caps at max_grain" 8192 (Partition.grain ~workers:1 10_000_000);
  check_int "custom cap" 64 (Partition.grain ~max_grain:64 ~workers:1 1_000_000);
  check_int "empty range" 1 (Partition.grain ~workers:4 0);
  Alcotest.check_raises "bad workers" (Invalid_argument "Partition.grain")
    (fun () -> ignore (Partition.grain ~workers:0 10))

let test_deque_range_task_stress () =
  (* Concurrent owner + thieves moving range tasks: no range is lost or
     duplicated, and the delivered ranges tile [0, n) exactly.  The
     owner splits ranges like the scheduler does; thieves steal whole
     ranges. *)
  let n = 1 lsl 16 in
  let q = Wsdeque.create () in
  Wsdeque.push q (0, n);
  let nthieves = 3 in
  let stolen = Array.make nthieves [] in
  let stop = Atomic.make false in
  let thieves =
    Array.init nthieves (fun k ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Wsdeque.steal q with
              | Wsdeque.Stolen r ->
                  stolen.(k) <- r :: stolen.(k);
                  loop ()
              | Wsdeque.Retry -> loop ()
              | Wsdeque.Empty -> if not (Atomic.get stop) then loop ()
            in
            loop ()))
  in
  let kept = ref [] in
  let rec drain () =
    match Wsdeque.pop q with
    | Some (lo, hi) ->
        let len = hi - lo in
        if len > 4 then begin
          (* split like the scheduler: keep the smaller half, publish
             the larger half for thieves *)
          let mid = lo + (len / 2) in
          Wsdeque.push q (mid, hi);
          kept := (lo, mid) :: !kept
        end
        else kept := (lo, hi) :: !kept;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  let all =
    Array.fold_left (fun acc l -> l @ acc) !kept stolen
    |> List.sort compare
  in
  (* Thieves keep whole stolen ranges (no re-splitting), so delivered
     ranges must be disjoint and tile [0, n). *)
  let covered = List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 all in
  check_int "total length tiles [0,n)" n covered;
  let rec contiguous pos = function
    | [] -> pos = n
    | (lo, hi) :: rest -> lo = pos && hi > lo && contiguous hi rest
  in
  Alcotest.(check bool) "disjoint and gap-free" true (contiguous 0 all)

let test_pool_reuse_across_jobs () =
  with_pool 3 (fun p ->
      for round = 1 to 20 do
        let s =
          Pool.parallel_reduce p ~lo:0 ~hi:(round * 10) ~f:Fun.id
            ~merge:( + ) ~init:0 ()
        in
        check_int "round" (round * 10 * ((round * 10) - 1) / 2) s
      done)

let test_pool_nonuniform_merge_type () =
  with_pool 2 (fun p ->
      let l =
        Pool.parallel_chunks p
          ~chunks:(Partition.blocks ~parts:5 50)
          ~f:(fun off len -> [ (off, len) ])
          ~merge:( @ ) ~init:[]
      in
      check_int "all chunks reported" 5 (List.length l);
      check_int "total" 50 (List.fold_left (fun a (_, l) -> a + l) 0 l))

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)

let test_mailbox_fifo () =
  let mb = Mailbox.create () in
  Mailbox.send mb (Bytes.of_string "one");
  Mailbox.send mb (Bytes.of_string "two");
  Alcotest.(check string) "fifo 1" "one" (Bytes.to_string (Mailbox.recv mb));
  Alcotest.(check string) "fifo 2" "two" (Bytes.to_string (Mailbox.recv mb))

let test_mailbox_counters () =
  let mb = Mailbox.create () in
  Mailbox.send mb (Bytes.create 10);
  Mailbox.send mb (Bytes.create 20);
  let msgs, bytes = Mailbox.totals mb in
  check_int "messages" 2 msgs;
  check_int "bytes" 30 bytes;
  check_int "pending" 2 (Mailbox.pending mb)

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  Alcotest.(check bool) "empty" true (Mailbox.try_recv mb = None);
  Mailbox.send mb (Bytes.of_string "x");
  Alcotest.(check bool) "nonempty" true (Mailbox.try_recv mb <> None)

let test_mailbox_cross_domain () =
  let mb = Mailbox.create () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to 99 do
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int i);
          Mailbox.send mb b
        done)
  in
  let received = ref [] in
  for _ = 0 to 99 do
    let b = Mailbox.recv mb in
    received := Int64.to_int (Bytes.get_int64_le b 0) :: !received
  done;
  Domain.join producer;
  Alcotest.(check (list int)) "ordered delivery" (List.init 100 Fun.id)
    (List.rev !received)

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)

module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec

let test_cluster_scatter_gather () =
  with_pool 2 (fun pool ->
      let cfg = { Cluster.nodes = 4; cores_per_node = 2; backend = Cluster.Inprocess } in
      let data = Float.Array.init 100 float_of_int in
      let blocks = Partition.blocks ~parts:4 100 in
      let total, report =
        Cluster.run_topology ~pool cfg
          ~scatter:(fun node ->
            let off, len = blocks.(node) in
            [ Payload.Floats (Float.Array.sub data off len) ])
          ~work:(fun ~node:_ ~pool:_ payload ->
            match payload with
            | [ Payload.Floats f ] -> Float.Array.fold_left ( +. ) 0.0 f
            | _ -> Alcotest.fail "bad payload")
          ~result_codec:Codec.float ~merge:( +. ) ~init:0.0
      in
      Alcotest.(check (float 1e-9)) "sum" 4950.0 total;
      check_int "scatter msgs" 4 report.Cluster.scatter_messages;
      check_int "gather msgs" 4 report.Cluster.gather_messages;
      Alcotest.(check bool) "bytes counted" true (report.Cluster.scatter_bytes > 800))

let test_cluster_data_isolation () =
  (* A node must not be able to mutate the sender's buffer: payloads are
     decoded into fresh arrays. *)
  with_pool 2 (fun pool ->
      let cfg = { Cluster.nodes = 1; cores_per_node = 1; backend = Cluster.Inprocess } in
      let data = Float.Array.make 8 1.0 in
      let (), _ =
        Cluster.run_topology ~pool cfg
          ~scatter:(fun _ -> [ Payload.Floats data ])
          ~work:(fun ~node:_ ~pool:_ payload ->
            match payload with
            | [ Payload.Floats f ] -> Float.Array.set f 0 999.0
            | _ -> ())
          ~result_codec:Codec.unit
          ~merge:(fun () () -> ())
          ~init:()
      in
      Alcotest.(check (float 0.0)) "sender untouched" 1.0 (Float.Array.get data 0))

let test_cluster_flat_mode_worker_count () =
  with_pool 2 (fun pool ->
      let cfg = { Cluster.nodes = 2; cores_per_node = 3; backend = Cluster.Flat } in
      let seen = ref 0 in
      let (), report =
        Cluster.run_topology ~pool cfg
          ~scatter:(fun _ -> Payload.empty)
          ~work:(fun ~node:_ ~pool:_ _ -> incr seen)
          ~result_codec:Codec.unit
          ~merge:(fun () () -> ())
          ~init:()
      in
      check_int "one process per core" 6 !seen;
      check_int "six scatter messages" 6 report.Cluster.scatter_messages)

let test_cluster_merge_order () =
  with_pool 2 (fun pool ->
      let cfg = { Cluster.nodes = 3; cores_per_node = 1; backend = Cluster.Inprocess } in
      let order, _ =
        Cluster.run_topology ~pool cfg
          ~scatter:(fun node -> [ Payload.Ints [| node |] ])
          ~work:(fun ~node:_ ~pool:_ payload ->
            match payload with
            | [ Payload.Ints a ] -> a.(0)
            | _ -> -1)
          ~result_codec:Codec.int
          ~merge:(fun acc v -> acc @ [ v ])
          ~init:[]
      in
      Alcotest.(check (list int)) "node order" [ 0; 1; 2 ] order)

let test_cluster_invalid_config () =
  Alcotest.check_raises "bad config" (Invalid_argument "Cluster.run: bad config")
    (fun () ->
      ignore
        (Cluster.run_topology
           { Cluster.nodes = 0; cores_per_node = 1; backend = Cluster.Inprocess }
           ~scatter:(fun _ -> Payload.empty)
           ~work:(fun ~node:_ ~pool:_ _ -> ())
           ~result_codec:Codec.unit
           ~merge:(fun () () -> ())
           ~init:()))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_measure () =
  Stats.reset ();
  let (), delta =
    Stats.measure (fun () ->
        Stats.record_message ~bytes:100;
        Stats.record_message ~bytes:50;
        Stats.record_chunk ())
  in
  check_int "messages" 2 delta.Stats.messages;
  check_int "bytes" 150 delta.Stats.bytes_sent;
  check_int "chunks" 1 delta.Stats.chunks_run

let () =
  Alcotest.run "runtime"
    [
      ( "partition",
        [
          Alcotest.test_case "blocks cover" `Quick test_blocks_cover;
          Alcotest.test_case "more parts than items" `Quick
            test_blocks_more_parts_than_items;
          Alcotest.test_case "empty range" `Quick test_blocks_empty_range;
          Alcotest.test_case "invalid" `Quick test_blocks_invalid;
          Alcotest.test_case "owner consistent" `Quick test_owner_consistent;
          Alcotest.test_case "2d grid" `Quick test_grid;
          Alcotest.test_case "square factors" `Quick test_square_factors;
          Alcotest.test_case "chunk count" `Quick test_chunk_count;
          prop_blocks_cover_exactly;
          prop_blocks_balanced;
        ] );
      ( "wsdeque",
        [
          Alcotest.test_case "owner LIFO" `Quick test_deque_lifo_owner;
          Alcotest.test_case "thief FIFO" `Quick test_deque_steal_fifo;
          Alcotest.test_case "growth" `Quick test_deque_growth;
          Alcotest.test_case "interleaved" `Quick test_deque_interleaved;
          Alcotest.test_case "concurrent exactly-once" `Quick
            test_deque_concurrent_consistency;
          Alcotest.test_case "range-task stress" `Quick
            test_deque_range_task_stress;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers" `Quick
            test_pool_parallel_for_covers;
          Alcotest.test_case "parallel_reduce" `Quick test_pool_parallel_reduce;
          Alcotest.test_case "parallel_chunks merge" `Quick
            test_pool_parallel_chunks_merge;
          Alcotest.test_case "empty ranges" `Quick test_pool_empty_range;
          Alcotest.test_case "single worker" `Quick test_pool_single_worker;
          Alcotest.test_case "irregular work" `Quick test_pool_irregular_work;
          Alcotest.test_case "reuse across jobs" `Quick
            test_pool_reuse_across_jobs;
          Alcotest.test_case "list-valued merge" `Quick
            test_pool_nonuniform_merge_type;
          Alcotest.test_case "skewed matches sequential" `Quick
            test_pool_skewed_matches_sequential;
          Alcotest.test_case "parallel_range covers" `Quick
            test_pool_parallel_range_covers;
          Alcotest.test_case "range exception" `Quick test_pool_range_exception;
          Alcotest.test_case "per-worker stats" `Quick
            test_pool_per_worker_stats;
          Alcotest.test_case "grain policy" `Quick test_pool_grain_policy;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "counters" `Quick test_mailbox_counters;
          Alcotest.test_case "try_recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "cross-domain" `Quick test_mailbox_cross_domain;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "scatter/gather" `Quick test_cluster_scatter_gather;
          Alcotest.test_case "data isolation" `Quick test_cluster_data_isolation;
          Alcotest.test_case "flat mode" `Quick
            test_cluster_flat_mode_worker_count;
          Alcotest.test_case "merge order" `Quick test_cluster_merge_order;
          Alcotest.test_case "invalid config" `Quick test_cluster_invalid_config;
        ] );
      ("stats", [ Alcotest.test_case "measure" `Quick test_stats_measure ]);
    ]
