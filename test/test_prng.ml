open Churnet_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let equal = ref true in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then equal := false
  done;
  check_bool "different seeds differ" false !equal

let test_copy_preserves_stream () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy equals original" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_split_independence () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check_bool "split streams differ" true (!same < 2)

let test_int_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_int_bound_one () =
  let rng = Prng.create 3 in
  for _ = 1 to 100 do
    check_int "bound 1 gives 0" 0 (Prng.int rng 1)
  done

let test_int_invalid () =
  let rng = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_int_in_range () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-3) 9 in
    check_bool "in inclusive range" true (v >= -3 && v <= 9)
  done

let test_unit_float_range () =
  let rng = Prng.create 11 in
  for _ = 1 to 10_000 do
    let x = Prng.unit_float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_uniform_mean () =
  let rng = Prng.create 13 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 50_000 do
    Stats.Acc.add acc (Prng.unit_float rng)
  done;
  check_bool "mean near 0.5" true (Float.abs (Stats.Acc.mean acc -. 0.5) < 0.01)

let test_int_uniformity_chi_square () =
  let rng = Prng.create 17 in
  let k = 10 in
  let counts = Array.make k 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Prng.int rng k in
    counts.(v) <- counts.(v) + 1
  done;
  let chi = Stats.chi_square_uniform counts in
  (* 9 degrees of freedom: p=0.001 critical value is 27.9. *)
  check_bool "chi-square sane" true (chi < 27.9)

let test_bool_balance () =
  let rng = Prng.create 19 in
  let heads = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Prng.bool rng then incr heads
  done;
  let frac = float_of_int !heads /. float_of_int trials in
  check_bool "fair coin" true (Float.abs (frac -. 0.5) < 0.01)

let test_bernoulli_extremes () =
  let rng = Prng.create 23 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Prng.bernoulli rng 0.);
    check_bool "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Prng.create 29 in
  let hits = ref 0 in
  for _ = 1 to 50_000 do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. 50_000. in
  check_bool "rate near 0.3" true (Float.abs (frac -. 0.3) < 0.01)

let test_shuffle_is_permutation () =
  let rng = Prng.create 31 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_moves_elements () =
  let rng = Prng.create 37 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle rng a;
  check_bool "not identity" true (a <> Array.init 100 Fun.id)

let test_swr_distinct () =
  let rng = Prng.create 41 in
  for _ = 1 to 50 do
    let sample = Prng.sample_without_replacement rng 20 100 in
    check_int "k elements" 20 (Array.length sample);
    let sorted = Array.copy sample in
    Array.sort Int.compare sorted;
    for i = 1 to 19 do
      check_bool "distinct" true (sorted.(i) <> sorted.(i - 1))
    done;
    Array.iter (fun v -> check_bool "in range" true (v >= 0 && v < 100)) sample
  done

let test_swr_full () =
  let rng = Prng.create 43 in
  let sample = Prng.sample_without_replacement rng 10 10 in
  let sorted = Array.copy sample in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "all of 0..9" (Array.init 10 Fun.id) sorted

let test_swr_dense_and_sparse_paths () =
  let rng = Prng.create 47 in
  (* dense path: k*3 >= n *)
  let dense = Prng.sample_without_replacement rng 40 100 in
  check_int "dense size" 40 (Array.length dense);
  (* sparse path: k*3 < n *)
  let sparse = Prng.sample_without_replacement rng 5 1000 in
  check_int "sparse size" 5 (Array.length sparse)

let test_choose () =
  let rng = Prng.create 53 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Prng.choose rng a in
    check_bool "member" true (Array.mem v a)
  done

(* Known-answer pins: the exact output stream and checkpoint bytes of a
   few seeds, so any change to the generator's representation must
   reproduce xoshiro256** bit for bit.  The bounds 2^61 + 1 and max_int
   drive [int]'s rejection branch. *)
let known_answer seed =
  let b = Buffer.create 512 in
  let hex_of s = String.concat "" (List.map (Printf.sprintf "%02x") (List.of_seq (Seq.map Char.code (String.to_seq s)))) in
  let rng = Prng.create seed in
  Buffer.add_string b "bits64";
  for _ = 1 to 8 do
    Printf.bprintf b " %016Lx" (Prng.bits64 rng)
  done;
  List.iter
    (fun bound ->
      Printf.bprintf b "\nint %d:" bound;
      for _ = 1 to 4 do
        Printf.bprintf b " %d" (Prng.int rng bound)
      done)
    [ 1; 2; 17; (1 lsl 61) + 1; max_int ];
  Printf.bprintf b "\nint_in -5 5:";
  for _ = 1 to 4 do
    Printf.bprintf b " %d" (Prng.int_in rng (-5) 5)
  done;
  Printf.bprintf b "\nunit_float: %h %h" (Prng.unit_float rng) (Prng.unit_float rng);
  Printf.bprintf b "\nexponential 2: %h" (Dist.exponential rng 2.);
  Buffer.add_string b "\nbool/bernoulli 0.3:";
  for _ = 1 to 8 do
    Printf.bprintf b " %b/%b" (Prng.bool rng) (Prng.bernoulli rng 0.3)
  done;
  let a = Array.init 10 Fun.id in
  Prng.shuffle rng a;
  Printf.bprintf b "\nshuffle: %s choose: %d"
    (String.concat "," (Array.to_list (Array.map string_of_int a)))
    (Prng.choose rng [| 10; 20; 30; 40; 50 |]);
  let rng = Prng.create seed in
  for _ = 1 to 5 do
    ignore (Prng.bits64 rng)
  done;
  let w = Codec.writer () in
  Prng.encode w rng;
  Printf.bprintf b "\nencode after 5: %s" (hex_of (Codec.contents w));
  let c = Prng.copy rng in
  let same = ref true in
  for _ = 1 to 4 do
    if Prng.bits64 c <> Prng.bits64 rng then same := false
  done;
  let child = Prng.split rng in
  Printf.bprintf b "\ncopy tracks: %b split: %016Lx parent next: %016Lx" !same
    (Prng.bits64 child) (Prng.bits64 rng);
  Buffer.contents b

let known_answers =
  [
    ( 0,
      [
        "bits64 99ec5f36cb75f2b4 bf6e1f784956452a 1a5f849d4933e6e0 6aa594f1262d2d2c bba5ad4a1f842e59 ffef8375d9ebcaca 6c160deed2f54c98 8920ad648fc30a3f";
        "int 1: 0 0 0 0";
        "int 2: 1 1 1 0";
        "int 17: 16 8 13 15";
        "int 2305843009213693953: 1440386989308246172 2276659594988686283 1483200616318392841 1395582637495738939";
        "int 4611686018427387903: 2974940851300190414 4212836036403361206 4555807645458769200 4104742471709594324";
        "int_in -5 5: 5 -2 3 -5";
        "unit_float: 0x1.eaee8aeb1771ep-1 0x1.ea88abc05d20cp-1";
        "exponential 2: 0x1.242a4ccabf311p+0";
        "bool/bernoulli 0.3: false/true false/false true/false true/true false/false false/false false/false false/false";
        "shuffle: 3,5,6,4,0,9,7,8,2,1 choose: 20";
        "encode after 5: acb4eedd8b41c16ce170203e6c7cd2fdf2492fade18a8bc748221527a59bf096";
        "copy tracks: true split: ed7ee6419994331b parent next: 1d42993fa43f2a54";
      ] );
    ( 42,
      [
        "bits64 15780b2e0c2ec716 6104d9866d113a7e ae17533239e499a1 ecb8ad4703b360a1 fde6dc7fe2ec5e64 c50da53101795238 b82154855a65ddb2 d99a2743ebe60087";
        "int 1: 0 0 0 0";
        "int 2: 1 0 1 0";
        "int 17: 4 1 10 0";
        "int 2305843009213693953: 428241451981137462 825596990374639498 2011600583562185327 1448018208105111228";
        "int 4611686018427387903: 2255998780752563472 1840024857190162741 3639182552279814446 2928682346646271230";
        "int_in -5 5: 2 -1 2 0";
        "unit_float: 0x1.a0df458a2a4d1p-1 0x1.e3b7767cf95fp-1";
        "exponential 2: 0x1.5fd65ece71e93p-1";
        "bool/bernoulli 0.3: true/false true/false true/false false/false true/false true/false true/false false/false";
        "shuffle: 6,1,4,9,0,8,3,5,7,2 choose: 50";
        "encode after 5: a5132aa9beed3f7e8c821cf1a05ba2c914f43970744683c3a56f38f271c255cf";
        "copy tracks: true split: 792a64f8eac0da22 parent next: aeb53b340c103971";
      ] );
    ( -1,
      [
        "bits64 8f5520d52a7ead08 c476a018caa1802d 81de31c0d260469e bf658d7e065f3c2f 913593fda1bca32a bb535e93941ba525 5ecda415c3c6dfde c487398fc9de9ae2";
        "int 1: 0 0 0 0";
        "int 2: 1 0 1 0";
        "int 17: 1 12 8 4";
        "int 2305843009213693953: 249442724413985229 2220802150058703415 1154022253415942639 1120028045302207456";
        "int 4611686018427387903: 2133149416003768519 2750851753963233378 171156563321518858 2173840820223943272";
        "int_in -5 5: -3 -4 1 5";
        "unit_float: 0x1.d40ea129a1be5p-1 0x1.3aa0b563bc86p-2";
        "exponential 2: 0x1.67bd6cf889dcfp-1";
        "bool/bernoulli 0.3: false/false true/false true/false true/true false/true true/false false/true false/false";
        "shuffle: 7,8,0,9,3,6,4,5,1,2 choose: 50";
        "encode after 5: d8f92dc98aaea5121e3a56784842f77e5edcb19927f3cafe28466bcf1dcabe11";
        "copy tracks: true split: e2cc2dc8c7f6d10b parent next: 41cf1af9a178c669";
      ] );
    ( max_int,
      [
        "bits64 6a2df487bd4abde8 7089a21212eab9fc 81c431e01d397a88 367a434d4b649925 3552cc64bfea0899 10dfa2f3c87ebcd8 bfef86687180de25 e6602b4c3a69ef87";
        "int 1: 0 0 0 0";
        "int 2: 0 0 0 1";
        "int 17: 0 10 16 11";
        "int 2305843009213693953: 1135097301713723451 280751514737636225 1699261200490169322 2143883695809087501";
        "int 4611686018427387903: 184678601402685416 3232458420677977233 2589341631964827937 7615374870741371";
        "int_in -5 5: 2 3 3 1";
        "unit_float: 0x1.2a520e8747e99p-1 0x1.dbbd37ffc528fp-1";
        "exponential 2: 0x1.7f42b3705e823p-4";
        "bool/bernoulli 0.3: true/false true/true false/false false/false true/false true/false false/false false/false";
        "shuffle: 9,3,1,2,8,6,7,5,4,0 choose: 30";
        "encode after 5: c87d53a8e49554965866db65844889d608f80ff02a87ed3fde6d990b7dc6e698";
        "copy tracks: true split: 10777a2656bfb465 parent next: e3ae041b4c35fdb4";
      ] );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (String.concat "\n" expected) (known_answer seed))
    known_answers

(* Minor words per call over 100 000 calls.  The draws that return an
   immediate must allocate nothing; a [float] crossing a module boundary
   is boxed (2 words per box).  Upper bounds, so a build with
   cross-module inlining, which only allocates less, passes too. *)
let words_per_call f =
  let calls = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_draw_allocation () =
  let rng = Prng.create 59 in
  let a = Array.init 64 Fun.id in
  let cell = [| 0. |] in
  List.iter
    (fun (name, bound, f) ->
      let w = words_per_call f in
      check_bool (Printf.sprintf "%s: %.3f words per call <= %g" name w bound) true (w <= bound))
    [
      ("int", 0., fun () -> ignore (Prng.int rng 1000));
      ("int_in", 0., fun () -> ignore (Prng.int_in rng (-7) 7));
      ("bool", 0., fun () -> ignore (Prng.bool rng));
      ("bernoulli", 0., fun () -> ignore (Prng.bernoulli rng 0.3));
      ("shuffle 64", 0., fun () -> Prng.shuffle rng a);
      ("unit_float_into", 0., fun () -> Prng.unit_float_into rng cell 0);
      ("fill_int 64", 0., fun () -> Prng.fill_int rng 1000 a 0 64);
      ("unit_float", 2., fun () -> ignore (Prng.unit_float rng));
      ("Dist.exponential", 4., fun () -> ignore (Dist.exponential rng 1.5));
    ]

(* [unit_float_into] stores exactly the draw [unit_float] returns, in
   the named cell only. *)
let test_unit_float_into () =
  let rng = Prng.create 61 in
  let reference = Prng.copy rng in
  let a = [| -1.; -1.; -1. |] in
  for _ = 1 to 1000 do
    Prng.unit_float_into rng a 1;
    check_bool "same bits as unit_float" true
      (Int64.bits_of_float a.(1) = Int64.bits_of_float (Prng.unit_float reference))
  done;
  check_bool "other cells untouched" true (a.(0) = -1. && a.(2) = -1.);
  check_bool "streams still in step" true (Prng.bits64 rng = Prng.bits64 reference)

(* [fill_int] is [len] successive [int] calls, value for value, and
   leaves the generator where they leave it.  The bounds cover the
   trivial one, powers of two, odd small ones, the onion-skin bound
   19 999, and bounds above 2^60, where the 62-bit rejection fires on a
   large share of draws (near 2^61 about once in four). *)
(* The whole generator state, not just the next output: the next
   [bits64] reads only one of the four words. *)
let state rng =
  let w = Codec.writer () in
  Prng.encode w rng;
  Codec.contents w

let fill_bounds =
  [ 1; 2; 3; 4; 8; 1 lsl 10; 1 lsl 20; 19_999; 1 lsl 40; (1 lsl 61) - 1; 1 lsl 61;
    (1 lsl 61) + 1; max_int - 1; max_int ]

let test_fill_int_equals_int () =
  List.iteri
    (fun k bound ->
      List.iter
        (fun (pos, len) ->
          let rng = Prng.create (1000 + k) in
          let reference = Prng.copy rng in
          let a = Array.make (pos + len + 2) (-7) in
          Prng.fill_int rng bound a pos len;
          let what = Printf.sprintf "bound %d, pos %d, len %d" bound pos len in
          for i = 0 to Array.length a - 1 do
            let want = if i >= pos && i < pos + len then Prng.int reference bound else -7 in
            check_int (Printf.sprintf "%s: cell %d" what i) want a.(i)
          done;
          check_bool (what ^ ": same state") true (state rng = state reference);
          check_bool (what ^ ": next bits64 equal") true (Prng.bits64 rng = Prng.bits64 reference))
        [ (0, 0); (0, 1); (3, 0); (0, 64); (5, 200) ])
    fill_bounds

let test_fill_int_invalid () =
  let a = Array.make 8 0 in
  let rng = Prng.create 3 in
  let reference = Prng.copy rng in
  let raises what f =
    check_bool what true (try f (); false with Invalid_argument _ -> true)
  in
  raises "bound 0" (fun () -> Prng.fill_int rng 0 a 0 4);
  raises "negative bound" (fun () -> Prng.fill_int rng (-5) a 0 4);
  raises "negative pos" (fun () -> Prng.fill_int rng 10 a (-1) 4);
  raises "negative len" (fun () -> Prng.fill_int rng 10 a 0 (-1));
  raises "past the end" (fun () -> Prng.fill_int rng 10 a 5 4);
  raises "pos past the end" (fun () -> Prng.fill_int rng 10 a 9 0);
  check_bool "a refused call draws nothing" true (state rng = state reference);
  Prng.fill_int rng 10 a 8 0;
  check_bool "an empty run at the end draws nothing" true (state rng = state reference)

let qcheck_props =
  [
    QCheck.Test.make ~name:"fill_int == successive int on random bounds" ~count:300
      QCheck.(triple small_int (int_range 0 62) (int_range 0 40))
      (fun (seed, shift, len) ->
        let bound = max 1 ((1 lsl shift) + seed - 7) in
        let rng = Prng.create seed in
        let reference = Prng.copy rng in
        let a = Array.make len 0 in
        Prng.fill_int rng bound a 0 len;
        Array.for_all (fun v -> v = Prng.int reference bound) a && state rng = state reference);
    QCheck.Test.make ~name:"int always in bound" ~count:500
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Prng.create seed in
        let v = Prng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~name:"int_in always inclusive" ~count:500
      QCheck.(triple small_int (int_range (-100) 100) (int_range 0 200))
      (fun (seed, lo, span) ->
        let rng = Prng.create seed in
        let v = Prng.int_in rng lo (lo + span) in
        v >= lo && v <= lo + span);
    QCheck.Test.make ~name:"sample_without_replacement distinct" ~count:200
      QCheck.(pair small_int (int_range 1 50))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let k = 1 + (seed mod n) in
        let s = Prng.sample_without_replacement rng k n in
        let sorted = Array.copy s in
        Array.sort Int.compare sorted;
        let distinct = ref true in
        for i = 1 to k - 1 do
          if sorted.(i) = sorted.(i - 1) then distinct := false
        done;
        !distinct && Array.length s = k);
  ]

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("different seeds", `Quick, test_different_seeds);
    ("copy preserves stream", `Quick, test_copy_preserves_stream);
    ("split independence", `Quick, test_split_independence);
    ("int range", `Quick, test_int_range);
    ("int bound one", `Quick, test_int_bound_one);
    ("int invalid bound", `Quick, test_int_invalid);
    ("int_in range", `Quick, test_int_in_range);
    ("unit_float range", `Quick, test_unit_float_range);
    ("uniform mean", `Quick, test_uniform_mean);
    ("chi-square uniformity", `Quick, test_int_uniformity_chi_square);
    ("bool balance", `Quick, test_bool_balance);
    ("bernoulli extremes", `Quick, test_bernoulli_extremes);
    ("bernoulli rate", `Quick, test_bernoulli_rate);
    ("shuffle permutation", `Quick, test_shuffle_is_permutation);
    ("shuffle moves", `Quick, test_shuffle_moves_elements);
    ("sample w/o replacement distinct", `Quick, test_swr_distinct);
    ("sample w/o replacement full", `Quick, test_swr_full);
    ("sample paths", `Quick, test_swr_dense_and_sparse_paths);
    ("choose membership", `Quick, test_choose);
    ("known-answer streams", `Quick, test_known_answers);
    ("unit_float_into = unit_float", `Quick, test_unit_float_into);
    ("draw allocation", `Quick, test_draw_allocation);
    ("fill_int = successive int", `Quick, test_fill_int_equals_int);
    ("fill_int invalid arguments", `Quick, test_fill_int_invalid);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
