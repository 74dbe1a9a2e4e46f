(* Tests for the base library: byte I/O, codecs, payloads, vectors, RNG. *)

open Triolet_base

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Rw                                                                  *)

let test_rw_roundtrip_scalars () =
  let w = Rw.create_writer () in
  Rw.write_int w 42;
  Rw.write_int w (-7);
  Rw.write_f64 w 3.25;
  Rw.write_u8 w 200;
  Rw.write_string w "hello";
  let r = Rw.reader_of_writer w in
  check_int "int" 42 (Rw.read_int r);
  check_int "negative int" (-7) (Rw.read_int r);
  check_float "float" 3.25 (Rw.read_f64 r);
  check_int "u8" 200 (Rw.read_u8 r);
  Alcotest.(check string) "string" "hello" (Rw.read_string r)

let test_rw_int_extremes () =
  let w = Rw.create_writer () in
  Rw.write_int w max_int;
  Rw.write_int w min_int;
  Rw.write_int w 0;
  let r = Rw.reader_of_writer w in
  check_int "max_int" max_int (Rw.read_int r);
  check_int "min_int" min_int (Rw.read_int r);
  check_int "zero" 0 (Rw.read_int r)

let test_rw_float_specials () =
  let w = Rw.create_writer () in
  Rw.write_f64 w Float.infinity;
  Rw.write_f64 w Float.neg_infinity;
  Rw.write_f64 w Float.nan;
  Rw.write_f64 w (-0.0);
  let r = Rw.reader_of_writer w in
  Alcotest.(check bool) "inf" true (Rw.read_f64 r = Float.infinity);
  Alcotest.(check bool) "-inf" true (Rw.read_f64 r = Float.neg_infinity);
  Alcotest.(check bool) "nan" true (Float.is_nan (Rw.read_f64 r));
  Alcotest.(check bool) "-0.0" true (1.0 /. Rw.read_f64 r = Float.neg_infinity)

let test_rw_growth () =
  let w = Rw.create_writer ~capacity:4 () in
  for i = 0 to 999 do
    Rw.write_int w i
  done;
  check_int "length" 8000 (Rw.writer_length w);
  let r = Rw.reader_of_writer w in
  for i = 0 to 999 do
    check_int "value" i (Rw.read_int r)
  done

let test_rw_underflow () =
  let w = Rw.create_writer () in
  Rw.write_u8 w 1;
  let r = Rw.reader_of_writer w in
  ignore (Rw.read_u8 r);
  Alcotest.check_raises "underflow" Rw.Underflow (fun () ->
      ignore (Rw.read_int r))

let test_rw_floatarray_block () =
  let a = Float.Array.init 100 (fun i -> float_of_int i *. 0.5) in
  let w = Rw.create_writer () in
  Rw.write_floatarray w a 10 50;
  let r = Rw.reader_of_writer w in
  let b = Rw.read_floatarray r in
  check_int "length" 50 (Float.Array.length b);
  for i = 0 to 49 do
    check_float "elem" (float_of_int (10 + i) *. 0.5) (Float.Array.get b i)
  done

let test_rw_remaining () =
  let w = Rw.create_writer () in
  Rw.write_int w 5;
  let r = Rw.reader_of_writer w in
  check_int "before" 8 (Rw.remaining r);
  ignore (Rw.read_int r);
  check_int "after" 0 (Rw.remaining r)

let test_rw_reader_of_writer_bounded () =
  (* The zero-copy reader is bounded by the bytes *written*, not by the
     (larger) backing-buffer capacity. *)
  let w = Rw.create_writer ~capacity:1024 () in
  Rw.write_int w 7;
  let r = Rw.reader_of_writer w in
  check_int "limit is written length" 8 (Rw.remaining r);
  check_int "value" 7 (Rw.read_int r);
  Alcotest.check_raises "no read past written bytes" Rw.Underflow (fun () ->
      ignore (Rw.read_u8 r))

let test_rw_detach () =
  (* Exactly-full writer: detach hands the buffer over as-is. *)
  let w = Rw.create_writer ~capacity:16 () in
  Rw.write_int w 1;
  Rw.write_int w 2;
  let b = Rw.detach w in
  check_int "exact length" 16 (Bytes.length b);
  check_int "first" 1 (Int64.to_int (Bytes.get_int64_le b 0));
  check_int "second" 2 (Int64.to_int (Bytes.get_int64_le b 8));
  (* Partially-full writer: detach falls back to a trimmed copy. *)
  let w2 = Rw.create_writer ~capacity:64 () in
  Rw.write_u8 w2 9;
  let b2 = Rw.detach w2 in
  check_int "trimmed" 1 (Bytes.length b2);
  check_int "content" 9 (Char.code (Bytes.get b2 0))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let test_codec_scalars () =
  check_int "int" 99 (Codec.roundtrip Codec.int 99);
  check_float "float" 2.5 (Codec.roundtrip Codec.float 2.5);
  Alcotest.(check bool) "bool t" true (Codec.roundtrip Codec.bool true);
  Alcotest.(check bool) "bool f" false (Codec.roundtrip Codec.bool false);
  Alcotest.(check string) "string" "abc" (Codec.roundtrip Codec.string "abc");
  Alcotest.(check unit) "unit" () (Codec.roundtrip Codec.unit ())

let test_codec_compounds () =
  let c = Codec.pair Codec.int Codec.string in
  Alcotest.(check (pair int string))
    "pair" (3, "x")
    (Codec.roundtrip c (3, "x"));
  let t = Codec.triple Codec.int Codec.int Codec.float in
  let a, b, f = Codec.roundtrip t (1, 2, 3.0) in
  check_int "t1" 1 a;
  check_int "t2" 2 b;
  check_float "t3" 3.0 f;
  Alcotest.(check (option int))
    "some" (Some 5)
    (Codec.roundtrip (Codec.option Codec.int) (Some 5));
  Alcotest.(check (option int))
    "none" None
    (Codec.roundtrip (Codec.option Codec.int) None);
  Alcotest.(check (list int))
    "list" [ 1; 2; 3 ]
    (Codec.roundtrip (Codec.list Codec.int) [ 1; 2; 3 ]);
  Alcotest.(check (array int))
    "array" [| 4; 5 |]
    (Codec.roundtrip (Codec.array Codec.int) [| 4; 5 |])

let test_codec_size_exact () =
  let check_size c v =
    check_int "size matches encoding"
      (Bytes.length (Codec.to_bytes c v))
      (c.Codec.size v)
  in
  check_size Codec.int 7;
  check_size Codec.string "hello world";
  check_size (Codec.list Codec.float) [ 1.0; 2.0; 3.0 ];
  check_size Codec.floatarray (Float.Array.init 17 float_of_int);
  check_size Codec.int_array [| 1; 2; 3 |];
  check_size (Codec.option (Codec.pair Codec.int Codec.int)) (Some (1, 2))

let test_codec_floatarray' () =
  let a = Float.Array.init 64 (fun i -> sin (float_of_int i)) in
  let b = Codec.roundtrip Codec.floatarray a in
  check_int "len" 64 (Float.Array.length b);
  for i = 0 to 63 do
    check_float "elem" (Float.Array.get a i) (Float.Array.get b i)
  done

let test_codec_map () =
  let c =
    Codec.map ~inj:(fun i -> `Tag i) ~proj:(fun (`Tag i) -> i) Codec.int
  in
  let (`Tag v) = Codec.roundtrip c (`Tag 9) in
  check_int "mapped" 9 v

let test_codec_block_copy_smaller () =
  (* The paper's motivation for block copies: pointer-free arrays have a
     compact flat wire format. Our boxed float array pays nothing extra
     per element, but the boxed *pair* array does. *)
  let n = 1000 in
  let fa = Float.Array.make n 1.0 in
  let pa = Array.init n (fun i -> (i, 1.0)) in
  let flat = Codec.floatarray.Codec.size fa in
  let boxed = (Codec.array (Codec.pair Codec.int Codec.float)).Codec.size pa in
  Alcotest.(check bool) "flat smaller" true (flat < boxed)

(* ------------------------------------------------------------------ *)
(* Payload                                                             *)

let test_payload_ship () =
  let p =
    [
      Payload.Floats (Float.Array.init 10 float_of_int);
      Payload.Ints [| 1; 2; 3 |];
      Payload.Raw "opaque";
    ]
  in
  let p', bytes = Payload.ship p in
  Alcotest.(check bool) "bytes positive" true (bytes > 0);
  check_int "size agrees" bytes (Payload.size p);
  match p' with
  | [ Payload.Floats f; Payload.Ints i; Payload.Raw s ] ->
      check_int "floats len" 10 (Float.Array.length f);
      check_float "floats val" 5.0 (Float.Array.get f 5);
      Alcotest.(check (array int)) "ints" [| 1; 2; 3 |] i;
      Alcotest.(check string) "raw" "opaque" s
  | _ -> Alcotest.fail "payload shape changed"

let test_payload_fresh_buffers () =
  let a = Float.Array.make 4 0.0 in
  let p, _ = Payload.ship [ Payload.Floats a ] in
  (match p with
  | [ Payload.Floats b ] ->
      Float.Array.set b 0 99.0;
      check_float "original untouched" 0.0 (Float.Array.get a 0)
  | _ -> Alcotest.fail "shape");
  ()

let test_payload_accessors () =
  let f = Float.Array.make 1 2.0 in
  check_float "floats" 2.0 (Float.Array.get (Payload.floats_exn (Payload.Floats f)) 0);
  check_int "ints" 7 (Payload.ints_exn (Payload.Ints [| 7 |])).(0);
  Alcotest.(check string) "raw" "x" (Payload.raw_exn (Payload.Raw "x"));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Payload.floats_exn: expected Floats") (fun () ->
      ignore (Payload.floats_exn (Payload.Raw "x")))

let test_payload_empty () =
  let p', bytes = Payload.ship Payload.empty in
  Alcotest.(check bool) "empty" true (p' = []);
  check_int "header only" 8 bytes

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_push_get () =
  let v = Vec.create 0 in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  check_int "set" 1000 (Vec.get v 42)

let test_vec_to_array_list () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 3; 1; 4 ];
  Alcotest.(check (array int)) "array" [| 3; 1; 4 |] (Vec.to_array v);
  Alcotest.(check (list int)) "list" [ 3; 1; 4 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.create 0 in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "neg" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v (-1)))

let test_vec_fold_iter_clear () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 1; 2; 3; 4 ];
  check_int "fold" 10 (Vec.fold_left ( + ) 0 v);
  let n = ref 0 in
  Vec.iter (fun _ -> incr n) v;
  check_int "iter" 4 !n;
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 0 to 99 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xa = List.init 10 (fun _ -> Rng.float a) in
  let xb = List.init 10 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "different streams" false (xa = xb)

let test_rng_ranges () =
  let r = Rng.create 3 in
  for _ = 0 to 999 do
    let f = Rng.float r in
    Alcotest.(check bool) "unit range" true (f >= 0.0 && f < 1.0);
    let g = Rng.float_range r (-2.0) 5.0 in
    Alcotest.(check bool) "custom range" true (g >= -2.0 && g < 5.0);
    let i = Rng.int r 10 in
    Alcotest.(check bool) "int range" true (i >= 0 && i < 10)
  done

let test_rng_split_independent () =
  let r = Rng.create 11 in
  let s = Rng.split r in
  let xr = List.init 5 (fun _ -> Rng.float r) in
  let xs = List.init 5 (fun _ -> Rng.float s) in
  Alcotest.(check bool) "split differs" false (xr = xs)

let test_rng_mean () =
  let r = Rng.create 123 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let qtest name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

let prop_codec_int_roundtrip =
  qtest "codec int roundtrip" QCheck2.Gen.int (fun i ->
      Codec.roundtrip Codec.int i = i)

let prop_codec_string_roundtrip =
  qtest "codec string roundtrip" QCheck2.Gen.string (fun s ->
      Codec.roundtrip Codec.string s = s)

let prop_codec_list_roundtrip =
  qtest "codec int list roundtrip"
    QCheck2.Gen.(list int)
    (fun l -> Codec.roundtrip (Codec.list Codec.int) l = l)

let prop_codec_size =
  qtest "codec size = encoded length"
    QCheck2.Gen.(list (pair int string))
    (fun l ->
      let c = Codec.list (Codec.pair Codec.int Codec.string) in
      Bytes.length (Codec.to_bytes c l) = c.Codec.size l)

let prop_vec_matches_list =
  qtest "vec behaves like list append"
    QCheck2.Gen.(list int)
    (fun l ->
      let v = Vec.create 0 in
      List.iter (Vec.push v) l;
      Vec.to_list v = l)

(* The standard CRC-32 (IEEE 802.3) check value. *)
let test_crc32_known_answer () =
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "crc32 \"123456789\"" 0xCBF43926l (Rw.crc32 b 0 9)

(* Bit-at-a-time CRC-32, straight from the polynomial: the oracle the
   table-driven [Rw.crc32] must match on every input. *)
let reference_crc32 b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let random_bytes seed n =
  let st = Random.State.make [| seed |] in
  Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Every start alignment against every tail length, including [len = 0]. *)
let test_crc32_alignments () =
  let b = random_bytes 1 64 in
  for off = 0 to 8 do
    for len = 0 to 40 do
      Alcotest.(check int32)
        (Printf.sprintf "crc32 off %d len %d" off len)
        (reference_crc32 b off len) (Rw.crc32 b off len)
    done
  done

(* Random buffers and ranges, small (unaligned starts, short tails) and
   at least 64 KiB (a resident task frame, a row-block put). *)
let prop_crc32_matches_reference =
  let gen =
    QCheck2.Gen.(
      let* big = bool in
      let* seed = int in
      let* off = int_bound 15 in
      let* len = if big then int_range 65536 140000 else int_bound 300 in
      let* slack = int_bound 15 in
      return (seed, off, len, slack))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"crc32 matches bitwise reference" gen
       (fun (seed, off, len, slack) ->
         let b = random_bytes seed (off + len + slack) in
         Rw.crc32 b off len = reference_crc32 b off len))

let test_crc32_range_and_envelope () =
  let b = random_bytes 2 70_001 in
  let w = Rw.create_writer () in
  Rw.write_bytes w b 0 (Bytes.length b);
  List.iter
    (fun (pos, len) ->
      Alcotest.(check int32)
        (Printf.sprintf "crc32_range pos %d len %d" pos len)
        (reference_crc32 b pos len) (Rw.crc32_range w ~pos ~len))
    [ (0, 0); (3, 7); (1, 65_536); (0, 70_001); (70_000, 1) ];
  let s = Bytes.sub_string b 5 65_541 in
  let e = Codec.to_bytes (Codec.checksummed Codec.string) s in
  let header = Codec.checksum_header in
  Alcotest.(check int32) "envelope crc is the reference's"
    (reference_crc32 e header (Bytes.length e - header))
    (Bytes.get_int32_le e 8);
  Alcotest.(check bool) "envelope intact" true (Codec.checksummed_intact e);
  Bytes.set e (Bytes.length e - 1)
    (Char.chr (Char.code (Bytes.get e (Bytes.length e - 1)) lxor 1));
  Alcotest.(check bool) "flipped byte caught" false (Codec.checksummed_intact e)

(* A corrupt array length above [max_int / 8] must fail as a short read,
   not overflow the byte count and escape as [Invalid_argument]. *)
let test_corrupt_array_length_underflows () =
  List.iter
    (fun tag ->
      let w = Rw.create_writer () in
      Rw.write_int w 1;
      Rw.write_u8 w tag;
      Rw.write_int w (1 lsl 60);
      Rw.write_int w 0;
      Alcotest.check_raises
        (Printf.sprintf "tag %d length 2^60" tag)
        Rw.Underflow
        (fun () -> ignore (Codec.of_bytes Payload.codec (Rw.contents w))))
    [ 0; 1 ]

let () =
  Alcotest.run "base"
    [
      ( "rw",
        [
          Alcotest.test_case "scalar roundtrip" `Quick test_rw_roundtrip_scalars;
          Alcotest.test_case "int extremes" `Quick test_rw_int_extremes;
          Alcotest.test_case "float specials" `Quick test_rw_float_specials;
          Alcotest.test_case "buffer growth" `Quick test_rw_growth;
          Alcotest.test_case "underflow" `Quick test_rw_underflow;
          Alcotest.test_case "floatarray block" `Quick test_rw_floatarray_block;
          Alcotest.test_case "remaining" `Quick test_rw_remaining;
          Alcotest.test_case "zero-copy reader bounded" `Quick
            test_rw_reader_of_writer_bounded;
          Alcotest.test_case "detach" `Quick test_rw_detach;
          Alcotest.test_case "crc32 known answer" `Quick test_crc32_known_answer;
          Alcotest.test_case "crc32 alignments and tails" `Quick
            test_crc32_alignments;
          prop_crc32_matches_reference;
          Alcotest.test_case "crc32_range and envelope" `Quick
            test_crc32_range_and_envelope;
          Alcotest.test_case "corrupt array length" `Quick
            test_corrupt_array_length_underflows;
        ] );
      ( "codec",
        [
          Alcotest.test_case "scalars" `Quick test_codec_scalars;
          Alcotest.test_case "compounds" `Quick test_codec_compounds;
          Alcotest.test_case "size exact" `Quick test_codec_size_exact;
          Alcotest.test_case "floatarray" `Quick test_codec_floatarray';
          Alcotest.test_case "map" `Quick test_codec_map;
          Alcotest.test_case "block copy compact" `Quick
            test_codec_block_copy_smaller;
          prop_codec_int_roundtrip;
          prop_codec_string_roundtrip;
          prop_codec_list_roundtrip;
          prop_codec_size;
        ] );
      ( "payload",
        [
          Alcotest.test_case "ship roundtrip" `Quick test_payload_ship;
          Alcotest.test_case "fresh buffers" `Quick test_payload_fresh_buffers;
          Alcotest.test_case "accessors" `Quick test_payload_accessors;
          Alcotest.test_case "empty" `Quick test_payload_empty;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "to_array/to_list" `Quick test_vec_to_array_list;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "fold/iter/clear" `Quick test_vec_fold_iter_clear;
          prop_vec_matches_list;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "mean" `Quick test_rng_mean;
        ] );
    ]
