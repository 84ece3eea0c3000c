(* Tests for Kl, Heap, Bitset, Table, Asciiplot, Intvec, Intset and Parallel. *)
open Churnet_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let close ?(eps = 1e-9) msg a b = check_bool msg true (Float.abs (a -. b) < eps)

(* --- Kl --- *)

let test_entropy_uniform () =
  close "H(uniform 4) = ln 4" (log 4.) (Kl.entropy [| 0.25; 0.25; 0.25; 0.25 |])

let test_entropy_point_mass () = close "H(delta) = 0" 0. (Kl.entropy [| 1.; 0.; 0. |])

let test_kl_self_zero () =
  let p = [| 0.2; 0.3; 0.5 |] in
  close "KL(p||p) = 0" 0. (Kl.kl_divergence p p)

let test_kl_known_value () =
  let p = [| 0.5; 0.5 |] and q = [| 0.25; 0.75 |] in
  let expected = (0.5 *. log (0.5 /. 0.25)) +. (0.5 *. log (0.5 /. 0.75)) in
  close "KL known" expected (Kl.kl_divergence p q)

let test_kl_infinite_when_unsupported () =
  check_bool "infinite" true
    (Float.is_integer (Kl.kl_divergence [| 1.; 0. |] [| 0.; 1. |]) = false
    || Kl.kl_divergence [| 1.; 0. |] [| 0.; 1. |] = infinity)

let test_kl_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Kl: length mismatch") (fun () ->
      ignore (Kl.kl_divergence [| 1. |] [| 0.5; 0.5 |]))

let test_normalize () =
  let p = Kl.normalize [| 2.; 2.; 4. |] in
  close "sums to one" 1. (Array.fold_left ( +. ) 0. p);
  close "ratio preserved" 0.5 p.(2)

let test_of_counts () =
  let p = Kl.of_counts [| 1; 3 |] in
  close "first" 0.25 p.(0);
  close "second" 0.75 p.(1)

let test_total_variation () =
  close "TV identical" 0. (Kl.total_variation [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  close "TV disjoint" 1. (Kl.total_variation [| 1.; 0. |] [| 0.; 1. |])

let kl_qcheck =
  let dist_gen =
    QCheck.map
      (fun xs ->
        let a = Array.of_list (List.map (fun x -> Float.abs x +. 0.01) xs) in
        Kl.normalize a)
      QCheck.(list_of_size (Gen.int_range 2 10) (float_range 0. 10.))
  in
  [
    QCheck.Test.make ~name:"KL non-negative (Theorem A.3)" ~count:300
      QCheck.(pair dist_gen dist_gen)
      (fun (p, q) ->
        if Array.length p <> Array.length q then QCheck.assume_fail ()
        else Kl.kl_divergence p q >= -1e-9);
    QCheck.Test.make ~name:"TV symmetric and bounded" ~count:300
      QCheck.(pair dist_gen dist_gen)
      (fun (p, q) ->
        if Array.length p <> Array.length q then QCheck.assume_fail ()
        else begin
          let tv = Kl.total_variation p q in
          Float.abs (tv -. Kl.total_variation q p) < 1e-9 && tv >= 0. && tv <= 1. +. 1e-9
        end);
  ]

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k k) [ 5.; 1.; 4.; 2.; 3. ];
  let popped = List.init 5 (fun _ -> fst (Option.get (Heap.pop h))) in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] popped

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  check_bool "pop none" true (Heap.pop h = None);
  check_bool "peek none" true (Heap.peek h = None)

let test_heap_peek () =
  let h = Heap.create () in
  Heap.push h 2. "b";
  Heap.push h 1. "a";
  check_bool "peek min" true (Heap.peek h = Some (1., "a"));
  check_int "peek does not remove" 2 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1. 1;
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let test_heap_growth () =
  let h = Heap.create () in
  for i = 1000 downto 1 do
    Heap.push h (float_of_int i) i
  done;
  check_int "length" 1000 (Heap.length h);
  let prev = ref neg_infinity in
  let sorted = ref true in
  for _ = 1 to 1000 do
    let k, _ = Option.get (Heap.pop h) in
    if k < !prev then sorted := false;
    prev := k
  done;
  check_bool "1000 items sorted" true !sorted

let test_heap_fifo_interleaved_growth () =
  (* Tied keys across the 16-slot growth boundary, with pops interleaved
     between the waves: values with equal keys must come back in push
     order (the async flood replays depend on this). *)
  let h = Heap.create () in
  for i = 0 to 23 do
    Heap.push h (float_of_int (i mod 3)) i
  done;
  (* Pop the whole key-0 class: pushed at 0, 3, 6, ..., 21. *)
  for j = 0 to 7 do
    match Heap.pop h with
    | Some (0., v) -> check_int "key-0 FIFO" (3 * j) v
    | other ->
        Alcotest.failf "expected key-0 value %d, got %s" (3 * j)
          (match other with
          | None -> "empty"
          | Some (k, v) -> Printf.sprintf "(%g, %d)" k v)
  done;
  (* A second wave with key 1 lands behind the first wave's key-1 class. *)
  for i = 24 to 31 do
    Heap.push h 1. i
  done;
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (k, v) ->
        popped := (k, v) :: !popped;
        drain ()
  in
  drain ();
  let expected =
    List.map (fun v -> (1., v)) [ 1; 4; 7; 10; 13; 16; 19; 22; 24; 25; 26; 27; 28; 29; 30; 31 ]
    @ List.map (fun v -> (2., v)) [ 2; 5; 8; 11; 14; 17; 20; 23 ]
  in
  check_bool "interleaved waves drain in (key, push-order)" true
    (List.rev !popped = expected);
  Heap.clear h;
  Heap.push h 0.5 99;
  check_bool "usable after clear" true (Heap.pop h = Some (0.5, 99))

let heap_qcheck =
  [
    QCheck.Test.make ~name:"heap pops sorted" ~count:300
      QCheck.(list (float_range (-1000.) 1000.))
      (fun keys ->
        let h = Heap.create () in
        List.iter (fun k -> Heap.push h k ()) keys;
        let rec drain prev =
          match Heap.pop h with
          | None -> true
          | Some (k, ()) -> if k < prev then false else drain k
        in
        drain neg_infinity);
    QCheck.Test.make ~name:"heap FIFO among equal keys" ~count:300
      QCheck.(list_of_size (Gen.int_range 0 60) (int_bound 2))
      (fun prios ->
        (* Priorities from {0,1,2} force many ties; values record push
           order, so pops must ascend lexicographically in (key, value). *)
        let h = Heap.create () in
        List.iteri (fun i p -> Heap.push h (float_of_int p) i) prios;
        let rec drain prev =
          match Heap.pop h with
          | None -> true
          | Some (k, v) -> (
              match prev with
              | Some (pk, pv) when k < pk || (k = pk && v < pv) -> false
              | _ -> drain (Some (k, v)))
        in
        drain None);
    QCheck.Test.make ~name:"heap matches a stable reference model" ~count:200
      QCheck.(list (option (int_bound 3)))
      (fun ops ->
        (* Some p = push with priority p, None = pop; the reference keeps
           (key, seq) pairs and removes the lexicographic minimum. *)
        let h = Heap.create () in
        let model = ref [] in
        let seq = ref 0 in
        let ok = ref true in
        List.iter
          (fun op ->
            match op with
            | Some p ->
                let k = float_of_int p in
                Heap.push h k !seq;
                model := (k, !seq) :: !model;
                incr seq
            | None -> (
                let best =
                  List.fold_left
                    (fun acc (k, s) ->
                      match acc with
                      | Some (bk, bs) when bk < k || (bk = k && bs < s) -> acc
                      | _ -> Some (k, s))
                    None (List.rev !model)
                in
                match (Heap.pop h, best) with
                | None, None -> ()
                | Some (k, v), Some (bk, bs) when k = bk && v = bs ->
                    model := List.filter (fun (_, s) -> s <> bs) !model
                | _ -> ok := false))
          ops;
        !ok && Heap.length h = List.length !model);
  ]

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check_int "capacity" 100 (Bitset.capacity b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 99;
  check_bool "mem 0" true (Bitset.mem b 0);
  check_bool "mem 63" true (Bitset.mem b 63);
  check_bool "not mem 50" false (Bitset.mem b 50);
  check_int "cardinal" 3 (Bitset.cardinal b);
  Bitset.add b 0;
  check_int "idempotent add" 3 (Bitset.cardinal b);
  Bitset.remove b 0;
  check_int "after remove" 2 (Bitset.cardinal b);
  Bitset.remove b 0;
  check_int "idempotent remove" 2 (Bitset.cardinal b)

let test_bitset_iter () =
  let b = Bitset.create 50 in
  List.iter (Bitset.add b) [ 3; 17; 44 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  Alcotest.(check (list int)) "iter ascending" [ 3; 17; 44 ] (List.rev !seen)

let test_bitset_clear () =
  let b = Bitset.create 10 in
  Bitset.add b 5;
  Bitset.clear b;
  check_int "cleared" 0 (Bitset.cardinal b);
  check_bool "not mem" false (Bitset.mem b 5)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.add b 10)

let test_bitset_iter_words () =
  (* 70 bits → 9 store bytes → two 64-bit words, the second zero-padded. *)
  let b = Bitset.create 70 in
  List.iter (Bitset.add b) [ 0; 7; 63; 64; 69 ];
  let words = ref [] in
  Bitset.iter_words (fun off w -> words := (off, w) :: !words) b;
  let expected0 = Int64.(logor 1L (logor (shift_left 1L 7) (shift_left 1L 63))) in
  let expected1 = Int64.(logor 1L (shift_left 1L 5)) in
  check_bool "two words, LE bit layout, padded tail" true
    (List.rev !words = [ (0, expected0); (64, expected1) ])

let bitset_qcheck =
  (* Random add/remove/grow schedules, with capacities straddling word and
     byte boundaries, checked against the naive 0..capacity-1 mem scan the
     word-level iter replaced. *)
  let ops_gen =
    QCheck.(
      pair (int_range 1 300) (list_of_size (Gen.int_range 0 120) (pair bool (int_bound 599))))
  in
  let build (cap0, ops) =
    let b = Bitset.create cap0 in
    List.iter
      (fun (add, i) ->
        Bitset.ensure_capacity b (i + 1);
        if add then Bitset.add b i else Bitset.remove b i)
      ops;
    b
  in
  [
    QCheck.Test.make ~name:"bitset word-level iter = naive mem scan" ~count:500 ops_gen
      (fun spec ->
        let b = build spec in
        let via_iter = ref [] in
        Bitset.iter (fun i -> via_iter := i :: !via_iter) b;
        let naive = ref [] in
        for i = Bitset.capacity b - 1 downto 0 do
          if Bitset.mem b i then naive := i :: !naive
        done;
        List.rev !via_iter = !naive && Bitset.cardinal b = List.length !naive);
    QCheck.Test.make ~name:"bitset iter_words agrees with mem" ~count:300 ops_gen
      (fun spec ->
        let b = build spec in
        let cap = Bitset.capacity b in
        let ok = ref true in
        let next_off = ref 0 in
        Bitset.iter_words
          (fun off w ->
            if off <> !next_off then ok := false;
            next_off := off + 64;
            for j = 0 to 63 do
              let bit = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
              let expect = off + j < cap && Bitset.mem b (off + j) in
              if bit <> expect then ok := false
            done)
          b;
        (* every store byte was covered *)
        !ok && !next_off >= cap);
  ]

(* --- Table --- *)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.render t in
  check_bool "contains header" true
    (String.length s > 0
    && (let re_ok = ref false in
        String.split_on_char '\n' s
        |> List.iter (fun line ->
               if String.length line > 0 && String.contains line 'a' then re_ok := true);
        !re_ok))

let test_table_csv () =
  let t = Table.create [ "x"; "y" ] in
  Table.add_row t [ "hello"; "a,b" ];
  let csv = Table.to_csv t in
  let contains needle hay =
    let found = ref false in
    for i = 0 to String.length hay - String.length needle do
      if String.sub hay i (String.length needle) = needle then found := true
    done;
    !found
  in
  check_bool "quoted comma cell" true (contains "\"a,b\"" csv);
  check_bool "header line" true (contains "x,y" csv)

let test_table_fmt () =
  Alcotest.(check string) "float" "3.1416" (Table.fmt_float ~digits:4 3.14159265);
  Alcotest.(check string) "pct" "50.00%" (Table.fmt_pct 0.5);
  Alcotest.(check string) "nan" "nan" (Table.fmt_float nan)

(* --- Asciiplot --- *)

let test_plot_renders () =
  let series =
    [ Asciiplot.{ label = "s"; points = Array.init 10 (fun i -> (float_of_int i, float_of_int (i * i))) } ]
  in
  let s = Asciiplot.plot ~title:"t" ~xlabel:"x" ~ylabel:"y" series in
  check_bool "non-empty" true (String.length s > 100)

let test_plot_empty () =
  let s = Asciiplot.plot ~title:"t" ~xlabel:"x" ~ylabel:"y" [] in
  check_bool "no data message" true
    (let needle = "(no data)" in
     let found = ref false in
     for i = 0 to String.length s - String.length needle do
       if String.sub s i (String.length needle) = needle then found := true
     done;
     !found)

let test_plot_log_drops_nonpositive () =
  let series = [ Asciiplot.{ label = "s"; points = [| (0., 1.); (10., 100.) |] } ] in
  let s = Asciiplot.plot ~logx:true ~title:"t" ~xlabel:"x" ~ylabel:"y" series in
  check_bool "renders" true (String.length s > 0)

let test_bar () =
  let s = Asciiplot.bar ~title:"b" [ ("one", 1.); ("two", 2.) ] in
  check_bool "renders bars" true (String.contains s '#')

let test_bar_mixed_signs () =
  (* Regression: a negative entry (e.g. a negative assortativity) used to
     make String.make crash with a negative length. *)
  let s =
    Asciiplot.bar ~title:"b"
      [ ("pos", 0.5); ("neg", -1.0); ("zero", 0.); ("nan", nan) ]
  in
  check_bool "renders" true (String.length s > 0);
  check_bool "positive bar uses #" true (String.contains s '#');
  (* the negative bar is drawn distinctly and at full scale (|−1| is the max) *)
  check_bool "negative bar uses -" true
    (let found = ref false in
     String.iteri
       (fun i c ->
         if c = '-' && i + 1 < String.length s && s.[i + 1] = '-' then found := true)
       s;
     !found)

let test_bar_all_negative () =
  let s = Asciiplot.bar ~title:"b" [ ("a", -2.); ("b", -4.) ] in
  check_bool "renders without crash" true (String.length s > 0);
  check_bool "no # bars" true (not (String.contains s '#'))

(* --- Intvec --- *)

(* [sort_uniq] in place against the stdlib's list version: small values
   so duplicates are common, a capacity-1 vector so the buffer regrows,
   and a second fill of the same vector so stale cells would show. *)
let intvec_qcheck =
  let contents v = List.init (Intvec.length v) (Intvec.get v) in
  let sorted_of v xs =
    Intvec.clear v;
    List.iter (Intvec.push v) xs;
    Intvec.sort_uniq v;
    contents v
  in
  [
    QCheck.Test.make ~name:"intvec sort_uniq = List.sort_uniq" ~count:500
      QCheck.(pair (list (int_range (-20) 20)) (list small_nat))
      (fun (xs, ys) ->
        let v = Intvec.create ~capacity:1 () in
        sorted_of v xs = List.sort_uniq Int.compare xs
        && sorted_of v ys = List.sort_uniq Int.compare ys);
  ]

(* --- Intset --- *)

(* The keys of [s] by {!Intset.to_intvec} and by {!Intset.iter} must
   both be [h]'s [Hashtbl.iter] order. *)
let check_intset_order ~ctx s h =
  let want = ref [] in
  Hashtbl.iter (fun k () -> want := k :: !want) h;
  let want = List.rev !want in
  let got = Intvec.create () in
  Intset.to_intvec s got;
  let seen = ref [] in
  Intset.iter (fun k -> seen := k :: !seen) s;
  check_int (ctx ^ ": length") (Hashtbl.length h) (Intset.length s);
  if List.init (Intvec.length got) (Intvec.get got) <> want then
    Alcotest.failf "%s: to_intvec order differs from Hashtbl's" ctx;
  if List.rev !seen <> want then Alcotest.failf "%s: iter order differs from Hashtbl's" ctx

(* [Intset] against the table whose order it reproduces: random add /
   remove / mem / length / reset sequences, with the whole iteration
   order of both [to_intvec] and [iter] compared after every operation.
   Adds outweigh removes and the key ranges reach 16 times the initial
   bucket count, so the set grows past 2 and (from 256) 4 and 8 times
   its buckets; rare resets make it shrink and grow again. *)
let test_intset_matches_hashtbl () =
  let rng = Prng.create 2024 in
  List.iter
    (fun initial ->
      List.iter
        (fun spread ->
          let range = spread * initial in
          let s = Intset.create initial and h = Hashtbl.create ~random:false initial in
          for op = 1 to 5000 do
            let k = Prng.int rng (range + (range / 8)) - (range / 8) in
            let r = Prng.int rng 10_000 in
            if r < 7000 then begin
              Intset.add s k;
              Hashtbl.replace h k ()
            end
            else if r < 8500 then begin
              Intset.remove s k;
              Hashtbl.remove h k
            end
            else if r < 9998 then
              check_bool "mem" (Hashtbl.mem h k) (Intset.mem s k)
            else begin
              Intset.reset s;
              Hashtbl.reset h
            end;
            check_intset_order ~ctx:(Printf.sprintf "initial %d, spread %d, op %d" initial spread op)
              s h
          done)
        [ 2; 4; 16 ])
    [ 256; 1024 ]

(* Directed cases for the bitmap of non-empty buckets: a bucket emptied
   by removes and refilled, in buckets on both sides of a bitmap word's
   edge; every add across two doublings (each one checked right after
   the add that grows the set); and a reset, with the set empty and
   then refilled past its first doubling again. *)
let test_intset_bucket_bitmap () =
  let s = Intset.create 256 and h = Hashtbl.create ~random:false 256 in
  let add k = Intset.add s k; Hashtbl.replace h k () in
  let remove k = Intset.remove s k; Hashtbl.remove h k in
  let check ctx = check_intset_order ~ctx s h in
  (* The first [count] keys from 0 up whose bucket among 256 is [b]. *)
  let keys_in b count =
    let rec go k acc n =
      if n = count then List.rev acc
      else if Hashtbl.hash k land 255 = b then go (k + 1) (k :: acc) (n + 1)
      else go (k + 1) acc n
    in
    go 0 [] 0
  in
  List.iter (fun b -> List.iter add (keys_in b 2)) [ 5; 30; 33; 100 ];
  check "filled";
  List.iter
    (fun b ->
      let ks = keys_in b 3 in
      List.iter add ks;
      check (Printf.sprintf "bucket %d filled" b);
      (* The chain's head (the last key added) goes first, so the
         bucket stays non-empty until its last key goes. *)
      List.iter
        (fun k ->
          remove k;
          check (Printf.sprintf "bucket %d: %d removed" b k))
        (List.rev ks);
      check_bool (Printf.sprintf "bucket %d empty" b) true (List.for_all (fun k -> not (Intset.mem s k)) ks);
      List.iter
        (fun k ->
          add k;
          check (Printf.sprintf "bucket %d: %d added back" b k))
        ks)
    [ 0; 31; 32; 63; 64; 255 ];
  let grow_past limit =
    let k = ref 1000 in
    while Intset.length s <= limit do
      add !k;
      check (Printf.sprintf "size %d" (Intset.length s));
      k := !k + 7
    done
  in
  (* 256 buckets double at 513 keys, 512 at 1 025. *)
  grow_past 1100;
  Intset.reset s;
  Hashtbl.reset h;
  check "reset";
  grow_past 600

let suite =
  [
    ("entropy uniform", `Quick, test_entropy_uniform);
    ("entropy point mass", `Quick, test_entropy_point_mass);
    ("KL self zero", `Quick, test_kl_self_zero);
    ("KL known value", `Quick, test_kl_known_value);
    ("KL infinite unsupported", `Quick, test_kl_infinite_when_unsupported);
    ("KL length mismatch", `Quick, test_kl_length_mismatch);
    ("normalize", `Quick, test_normalize);
    ("of_counts", `Quick, test_of_counts);
    ("total variation", `Quick, test_total_variation);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap empty", `Quick, test_heap_empty);
    ("heap peek", `Quick, test_heap_peek);
    ("heap clear", `Quick, test_heap_clear);
    ("heap growth", `Quick, test_heap_growth);
    ("heap FIFO across growth boundary", `Quick, test_heap_fifo_interleaved_growth);
    ("intset = Hashtbl order", `Quick, test_intset_matches_hashtbl);
    ("intset bucket bitmap", `Quick, test_intset_bucket_bitmap);
    ("bitset basic", `Quick, test_bitset_basic);
    ("bitset iter", `Quick, test_bitset_iter);
    ("bitset clear", `Quick, test_bitset_clear);
    ("bitset bounds", `Quick, test_bitset_bounds);
    ("bitset iter_words layout", `Quick, test_bitset_iter_words);
    ("table render", `Quick, test_table_render);
    ("table csv", `Quick, test_table_csv);
    ("table fmt", `Quick, test_table_fmt);
    ("plot renders", `Quick, test_plot_renders);
    ("plot empty", `Quick, test_plot_empty);
    ("plot log scale", `Quick, test_plot_log_drops_nonpositive);
    ("bar", `Quick, test_bar);
    ("bar mixed signs", `Quick, test_bar_mixed_signs);
    ("bar all negative", `Quick, test_bar_all_negative);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false)
      (kl_qcheck @ heap_qcheck @ bitset_qcheck @ intvec_qcheck)

(* --- Parallel --- *)

let test_parallel_matches_sequential () =
  let xs = Array.init 237 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results" (Array.map f xs) (Parallel.map ~domains:4 f xs)

let test_parallel_order_preserved () =
  let xs = Array.init 50 string_of_int in
  let out = Parallel.map ~domains:3 (fun s -> s ^ "!") xs in
  Alcotest.(check string) "first" "0!" out.(0);
  Alcotest.(check string) "last" "49!" out.(49)

let test_parallel_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~domains:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "single" [| 7 |] (Parallel.map ~domains:4 (fun x -> x + 1) [| 6 |])

let test_parallel_exception_propagates () =
  check_bool "raises" true
    (try
       ignore (Parallel.map ~domains:2 (fun x -> if x = 3 then failwith "boom" else x)
                 [| 1; 2; 3; 4 |]);
       false
     with Failure _ -> true)

let test_parallel_init () =
  Alcotest.(check (array int)) "init" [| 0; 2; 4; 6 |] (Parallel.init ~domains:2 4 (fun i -> 2 * i))

(* [init] runs at most once per worker per call, every element sees its
   worker's scratch, and the results do not depend on the domain count.
   Each scratch is a buffer that [f] reuses, as the onion-skin trials
   do. *)
let test_parallel_map_with () =
  let xs = Array.init 41 (fun i -> i) in
  let f buf x =
    Array.fill buf 0 (Array.length buf) x;
    Array.fold_left ( + ) 0 buf
  in
  List.iter
    (fun domains ->
      let inits = Atomic.make 0 in
      let init () =
        Atomic.incr inits;
        Array.make 3 (-1)
      in
      let out = Parallel.map_with ~domains ~init f xs in
      Alcotest.(check (array int))
        (Printf.sprintf "domains:%d results" domains)
        (Array.map (fun x -> 3 * x) xs)
        out;
      let n = Atomic.get inits in
      check_bool
        (Printf.sprintf "domains:%d runs init %d times, 1..%d" domains n domains)
        true
        (n >= 1 && n <= domains))
    [ 1; 2; 3 ];
  let inits = Atomic.make 0 in
  ignore
    (Parallel.map_with ~domains:3
       ~init:(fun () -> Atomic.incr inits)
       (fun () x -> x)
       [||]);
  check_int "no init for an empty call" 0 (Atomic.get inits);
  let trials domains =
    Parallel.replicate_with ~domains ~init:(fun () -> Array.make 8 0) ~rng:(Prng.create 5)
      ~trials:9 (fun buf r ->
        Array.iteri (fun i _ -> buf.(i) <- Prng.int r 1000) buf;
        Array.copy buf)
  in
  let serial =
    Parallel.replicate ~domains:1 ~rng:(Prng.create 5) ~trials:9 (fun r ->
        Array.init 8 (fun _ -> Prng.int r 1000))
  in
  List.iter
    (fun domains ->
      check_bool (Printf.sprintf "replicate_with at domains:%d = replicate" domains) true
        (trials domains = serial))
    [ 1; 2; 3 ]

(* An exception raised by [init] reaches the caller as one raised by [f]
   does, serial and parallel. *)
let test_parallel_map_with_init_raises () =
  List.iter
    (fun domains ->
      check_bool (Printf.sprintf "domains:%d raises" domains) true
        (try
           ignore
             (Parallel.map_with ~domains
                ~init:(fun () -> failwith "init boom")
                (fun () x -> x)
                [| 1; 2; 3; 4 |]);
           false
         with Failure msg -> msg = "init boom"))
    [ 1; 2; 3 ]

let test_parallel_recommended () =
  let d = Parallel.recommended_domains () in
  check_bool "within [1,8]" true (d >= 1 && d <= 8)

let test_replicate_bit_identical_across_domains () =
  (* The replication layer pre-splits one PRNG per trial in trial order,
     so the results must be bit-identical at any domain count — and equal
     to the historical serial loop (split then run, one trial at a
     time). *)
  let trial r = Array.init 16 (fun _ -> Prng.int r 1_000_000) in
  let run domains =
    let rng = Prng.create 2024 in
    Parallel.replicate ~domains ~rng ~trials:32 trial
  in
  let reference =
    let rng = Prng.create 2024 in
    let out = Array.make 32 [||] in
    for i = 0 to 31 do
      let r = Prng.split rng in
      out.(i) <- trial r
    done;
    out
  in
  let serial = run 1 in
  let par = run 4 in
  check_int "same trial count" (Array.length serial) (Array.length par);
  Array.iteri
    (fun i xs ->
      Alcotest.(check (array int)) "domains:1 = serial loop" reference.(i) xs;
      Alcotest.(check (array int)) "domains:1 = domains:4" xs par.(i))
    serial

let test_replicate_consumes_rng_like_serial_loop () =
  (* After [replicate ~trials:k] the caller's rng must be in the same
     state as after k serial splits, so code following a converted trial
     loop sees an unchanged stream. *)
  let rng_a = Prng.create 7 in
  ignore (Parallel.replicate ~domains:3 ~rng:rng_a ~trials:5 (fun r -> Prng.int r 100));
  let rng_b = Prng.create 7 in
  for _ = 1 to 5 do
    ignore (Prng.split rng_b)
  done;
  Alcotest.(check (list int)) "same downstream stream"
    (List.init 10 (fun _ -> Prng.int rng_b 1_000_000))
    (List.init 10 (fun _ -> Prng.int rng_a 1_000_000))

let suite =
  suite
  @ [
      ("parallel = sequential", `Quick, test_parallel_matches_sequential);
      ("parallel order", `Quick, test_parallel_order_preserved);
      ("parallel empty/single", `Quick, test_parallel_empty_and_single);
      ("parallel exceptions", `Quick, test_parallel_exception_propagates);
      ("parallel init", `Quick, test_parallel_init);
      ("parallel recommended", `Quick, test_parallel_recommended);
      ("parallel map_with scratch", `Quick, test_parallel_map_with);
      ("parallel map_with init raises", `Quick, test_parallel_map_with_init_raises);
      ("replicate bit-identical across domains", `Quick,
       test_replicate_bit_identical_across_domains);
      ("replicate consumes rng like serial loop", `Quick,
       test_replicate_consumes_rng_like_serial_loop);
    ]
