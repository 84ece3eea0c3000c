(* Models built on a reused Dyngraph arena against fresh ones. *)

open Churnet_core
module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let state = Test_flood.model_state
let same_trace = Test_flood.same_trace

let budget kind n =
  let ln = log (float_of_int n) in
  if Models.regenerates kind then int_of_float (20. *. ln) + 40
  else int_of_float (6. *. ln) + 20

(* A model's life in a trial: create, warm up, flood.  Returns the
   encoded state after warm-up and after the flood, the trace, and the
   next draw of the generator the model was made from. *)
let trial ?arena (kind, n, d, seed) =
  let rng = Prng.create seed in
  let m = Models.create ?arena ~rng kind ~n ~d in
  Models.warm_up_batch m;
  let warm = state m in
  (match Dyngraph.check_invariants (Models.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s n=%d d=%d: %s" (Models.kind_name kind) n d e);
  let tr = Models.flood ~max_rounds:(budget kind n) m in
  (m, warm, state m, tr, Prng.bits64 rng)

(* One arena carries models of random kind, n, d and seed, n rising and
   then falling, d changing at every model among 1..4 so that each row
   width recurs and its pooled pages (reset) serve a later model, and
   spills made at d = 1 and 2 (2d + 1 in-edges fit a row) are cleared
   for the next.  Each must match a fresh model. *)
let test_arena_reuse_matches_fresh () =
  let pick = Prng.create 0xa2e4a in
  let cases =
    Array.init 14 (fun i ->
        (List.nth Models.all_kinds (Prng.int pick 4), 16 + Prng.int pick 1500, 0, i))
  in
  Array.sort (fun (_, a, _, _) (_, b, _, _) -> Int.compare a b) cases;
  let cases = Array.append cases (Array.of_list (List.rev (Array.to_list cases))) in
  let last_d = ref 0 in
  let cases =
    Array.map
      (fun (kind, n, _, _) ->
        let d = ref (1 + Prng.int pick 4) in
        while !d = !last_d do
          d := 1 + Prng.int pick 4
        done;
        last_d := !d;
        (kind, n, !d, Prng.int pick 1_000_000))
      cases
  in
  let arena = Dyngraph.arena () in
  Array.iter
    (fun ((kind, n, d, seed) as case) ->
      let _, warm_a, flood_a, tr_a, next_a = trial ~arena case in
      let _, warm_b, flood_b, tr_b, next_b = trial case in
      let what = Printf.sprintf "%s n=%d d=%d seed=%d" (Models.kind_name kind) n d seed in
      check_string (what ^ ": state after warm-up") warm_b warm_a;
      check_string (what ^ ": state after the flood") flood_b flood_a;
      check_bool (what ^ ": trace") true (same_trace tr_a tr_b);
      check_bool (what ^ ": next draw") true (Int64.equal next_a next_b))
    cases

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: no Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* A create that its arguments refuse retires nothing: the arena's model
   keeps its bytes and keeps running. *)
let test_refused_create_keeps_model () =
  let arena = Dyngraph.arena () in
  let m = Models.create ~arena ~rng:(Prng.create 5) Models.SDGR ~n:200 ~d:3 in
  Models.warm_up_batch m;
  let before = state m in
  let rng = Prng.create 6 in
  raises_invalid "n = 1" (fun () -> Models.create ~arena ~rng Models.SDG ~n:1 ~d:3);
  raises_invalid "d = 0" (fun () -> Models.create ~arena ~rng Models.PDG ~n:200 ~d:0);
  raises_invalid "lambda on SDG" (fun () ->
      Models.create ~arena ~rng ~lambda:2. Models.SDG ~n:200 ~d:3);
  raises_invalid "lambda = 0" (fun () ->
      Models.create ~arena ~rng ~lambda:0. Models.PDGR ~n:200 ~d:3);
  raises_invalid "streaming n = 1" (fun () ->
      Streaming_model.create ~arena ~rng ~n:1 ~d:3 ~regenerate:false ());
  raises_invalid "streaming d = 0" (fun () ->
      Streaming_model.create ~arena ~rng ~n:200 ~d:0 ~regenerate:false ());
  raises_invalid "Poisson n = 1" (fun () ->
      Poisson_model.create ~arena ~rng ~n:1 ~d:3 ~regenerate:true ());
  raises_invalid "Poisson d = -1" (fun () ->
      Poisson_model.create ~arena ~rng ~n:200 ~d:(-1) ~regenerate:true ());
  raises_invalid "Poisson lambda < 0" (fun () ->
      Poisson_model.create ~arena ~rng ~lambda:(-1.) ~n:200 ~d:3 ~regenerate:true ());
  check_string "the model's bytes" before (state m);
  Models.advance_batch m 10;
  let fresh = Models.create ~rng:(Prng.create 5) Models.SDGR ~n:200 ~d:3 in
  Models.warm_up_batch fresh;
  Models.advance_batch fresh 10;
  check_string "the model runs on" (state fresh) (state m)

(* Once the arena builds a later model, every use of the retired one
   raises, and none of those attempts touches the live model. *)
let test_retired_model_fails_loudly () =
  List.iter
    (fun kind ->
      let arena = Dyngraph.arena () in
      let old = Models.create ~arena ~rng:(Prng.create 7) kind ~n:300 ~d:2 in
      Models.warm_up_batch old;
      let g = Models.graph old in
      let live = Models.create ~arena ~rng:(Prng.create 8) kind ~n:300 ~d:2 in
      Models.warm_up_batch live;
      let before = state live in
      let name what = Models.kind_name kind ^ ": " ^ what in
      raises_invalid (name "advance") (fun () -> Models.advance_batch old 5);
      raises_invalid (name "warm-up") (fun () -> Models.warm_up_batch old);
      raises_invalid (name "flood") (fun () -> Models.flood ~max_rounds:5 old);
      raises_invalid (name "encode") (fun () -> state old);
      raises_invalid (name "snapshot") (fun () -> Models.snapshot old);
      raises_invalid (name "check_invariants") (fun () -> Dyngraph.check_invariants g);
      raises_invalid (name "add_node") (fun () -> Dyngraph.add_node g ~birth:0);
      raises_invalid (name "random_alive") (fun () -> Dyngraph.random_alive g);
      raises_invalid (name "iter_alive") (fun () -> Dyngraph.iter_alive g ignore);
      raises_invalid (name "kill") (fun () -> Dyngraph.kill g 0);
      check_string (name "the live model is untouched") before (state live);
      let fresh = Models.create ~rng:(Prng.create 8) kind ~n:300 ~d:2 in
      Models.warm_up_batch fresh;
      check_string (name "the live model is a fresh one") (state fresh) before)
    Models.all_kinds

let words_of f = fst (Test_flood.words_of f)

(* A model created and warmed up on an arena that has carried one of
   each width before allocates a small part of what a fresh one does:
   the pages, arrays and buffers all come from the arena. *)
let test_warm_arena_allocates_little () =
  List.iter
    (fun kind ->
      let arena = Dyngraph.arena () in
      let build arena d seed =
        let m = Models.create ?arena ~rng:(Prng.create seed) kind ~n:1500 ~d in
        Models.warm_up_batch m
      in
      build (Some arena) 3 1;
      build (Some arena) 6 2;
      let fresh = words_of (fun () -> build None 3 3) in
      let reused = words_of (fun () -> build (Some arena) 3 3) in
      check_bool
        (Printf.sprintf "%s: %.0f words on a warm arena, %.0f fresh" (Models.kind_name kind)
           reused fresh)
        true
        (reused < fresh /. 10.))
    Models.all_kinds

(* Without an arena, create allocates word for word what it did before
   arenas existed (pinned on that code). *)
let test_create_words_without_arena () =
  List.iter
    (fun (kind, n, d, want) ->
      let got = words_of (fun () -> Models.create ~rng:(Prng.create 1) kind ~n ~d) in
      check_bool
        (Printf.sprintf "%s n=%d d=%d: %.0f words, %.0f pinned" (Models.kind_name kind) n d got
           want)
        true (Float.equal got want))
    [
      (Models.SDG, 300, 2, 6160.);
      (Models.SDGR, 1500, 6, 10432.);
      (Models.PDG, 300, 2, 10553.);
      (Models.PDGR, 1500, 6, 13625.);
    ]

let suite =
  [
    ("create without an arena allocates as before", `Quick, test_create_words_without_arena);
    ("arena reuse matches fresh models", `Quick, test_arena_reuse_matches_fresh);
    ("refused create keeps the arena's model", `Quick, test_refused_create_keeps_model);
    ("retired model fails loudly", `Quick, test_retired_model_fails_loudly);
    ("warm arena allocates little", `Quick, test_warm_arena_allocates_little);
  ]
