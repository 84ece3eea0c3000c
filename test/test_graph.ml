open Churnet_graph
module Prng = Churnet_util.Prng
module Bitset = Churnet_util.Bitset

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh ?(seed = 7) ?(d = 3) ?(regenerate = false) () =
  Dyngraph.create ~rng:(Prng.create seed) ~d ~regenerate ()

let assert_invariants g =
  match Dyngraph.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant violated: %s" e

(* --- Dyngraph --- *)

let test_empty () =
  let g = fresh () in
  check_int "no nodes" 0 (Dyngraph.alive_count g);
  check_bool "oldest none" true (Dyngraph.oldest_alive g = None);
  assert_invariants g

let test_first_node_has_no_edges () =
  let g = fresh () in
  let id = Dyngraph.add_node g ~birth:1 in
  check_int "alive" 1 (Dyngraph.alive_count g);
  check_int "no out edges" 0 (Dyngraph.out_degree g id);
  check_int "degree 0" 0 (Dyngraph.degree g id);
  assert_invariants g

let test_second_node_connects_to_first () =
  let g = fresh ~d:3 () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  check_int "b has 3 out-slots filled" 3 (Dyngraph.out_degree g b);
  check_bool "all target a" true (List.for_all (fun t -> t = a) (Dyngraph.out_targets g b));
  check_int "a degree 1 (distinct)" 1 (Dyngraph.degree g a);
  assert_invariants g

let test_no_self_loops () =
  let g = fresh ~d:4 () in
  for i = 1 to 50 do
    let id = Dyngraph.add_node g ~birth:i in
    check_bool "no self target" true
      (List.for_all (fun t -> t <> id) (Dyngraph.out_targets g id))
  done;
  assert_invariants g

let test_kill_removes_edges () =
  let g = fresh ~d:2 () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  Dyngraph.kill g b;
  check_int "a isolated again" 0 (Dyngraph.degree g a);
  check_bool "b gone" false (Dyngraph.is_alive g b);
  assert_invariants g

let test_kill_dead_raises () =
  let g = fresh () in
  let a = Dyngraph.add_node g ~birth:1 in
  Dyngraph.kill g a;
  check_bool "killing dead raises" true
    (try
       Dyngraph.kill g a;
       false
     with Invalid_argument _ -> true)

let test_regeneration_keeps_out_degree () =
  let g = fresh ~d:3 ~regenerate:true () in
  for i = 1 to 30 do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  (* Kill several nodes; every survivor born when the graph was already
     populated must keep out-degree 3. *)
  for _ = 1 to 10 do
    let victim = Dyngraph.random_alive g in
    Dyngraph.kill g victim
  done;
  Dyngraph.iter_alive g (fun id ->
      if id >= 4 then check_int "out-degree preserved" 3 (Dyngraph.out_degree g id));
  assert_invariants g

let test_no_regeneration_loses_edges () =
  let g = fresh ~d:2 ~regenerate:false () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  let c = Dyngraph.add_node g ~birth:3 in
  ignore c;
  Dyngraph.kill g a;
  (* b pointed only at a; without regeneration its out-degree drops. *)
  check_bool "b lost out-edges" true (Dyngraph.out_degree g b < 2);
  assert_invariants g

let test_random_churn_invariants_no_regen () =
  let g = fresh ~seed:11 ~d:4 ~regenerate:false () in
  let rng = Prng.create 99 in
  for i = 1 to 300 do
    if Dyngraph.alive_count g > 0 && Prng.bernoulli rng 0.45 then
      Dyngraph.kill g (Dyngraph.random_alive g)
    else ignore (Dyngraph.add_node g ~birth:i)
  done;
  assert_invariants g

let test_random_churn_invariants_regen () =
  let g = fresh ~seed:13 ~d:4 ~regenerate:true () in
  let rng = Prng.create 101 in
  for i = 1 to 300 do
    if Dyngraph.alive_count g > 0 && Prng.bernoulli rng 0.45 then
      Dyngraph.kill g (Dyngraph.random_alive g)
    else ignore (Dyngraph.add_node g ~birth:i)
  done;
  assert_invariants g

let test_neighbors_symmetry () =
  let g = fresh ~seed:17 ~d:3 () in
  for i = 1 to 60 do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  Dyngraph.iter_alive g (fun u ->
      List.iter
        (fun v ->
          check_bool "symmetric neighborhood" true (List.mem u (Dyngraph.neighbors g v)))
        (Dyngraph.neighbors g u))

let test_edge_count_matches_out_degrees () =
  let g = fresh ~seed:19 ~d:5 () in
  for i = 1 to 50 do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  let sum = ref 0 in
  Dyngraph.iter_alive g (fun id -> sum := !sum + Dyngraph.out_degree g id);
  check_int "edge count" !sum (Dyngraph.edge_count g)

let test_oldest_alive () =
  let g = fresh () in
  let a = Dyngraph.add_node g ~birth:1 in
  let _b = Dyngraph.add_node g ~birth:2 in
  check_bool "oldest is a" true (Dyngraph.oldest_alive g = Some a);
  Dyngraph.kill g a;
  check_bool "oldest moves on" true (Dyngraph.oldest_alive g <> Some a)

let test_edge_hook_on_birth () =
  let g = fresh ~d:3 () in
  ignore (Dyngraph.add_node g ~birth:1);
  let fired = ref 0 in
  Dyngraph.set_edge_hook g (Some (fun ~src:_ ~dst:_ -> incr fired));
  ignore (Dyngraph.add_node g ~birth:2);
  check_int "3 edges announced" 3 !fired

let test_edge_hook_on_regeneration () =
  let g = fresh ~d:2 ~regenerate:true () in
  for i = 1 to 10 do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  let fired = ref 0 in
  Dyngraph.set_edge_hook g (Some (fun ~src:_ ~dst:_ -> incr fired));
  let victim = Dyngraph.random_alive g in
  let lost_slots =
    (* Count slots across survivors pointing at the victim. *)
    let count = ref 0 in
    Dyngraph.iter_alive g (fun u ->
        if u <> victim then
          List.iter (fun t -> if t = victim then incr count) (Dyngraph.out_targets g u));
    !count
  in
  Dyngraph.kill g victim;
  check_int "regenerated edges announced" lost_slots !fired

let test_death_hook () =
  let g = fresh ~d:2 () in
  let a = Dyngraph.add_node g ~birth:1 in
  let seen = ref [] in
  Dyngraph.set_death_hook g (Some (fun id -> seen := id :: !seen));
  Dyngraph.kill g a;
  Alcotest.(check (list int)) "death announced" [ a ] !seen

let test_connect () =
  let g = fresh ~d:2 () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  let c = Dyngraph.add_node g ~birth:3 in
  ignore c;
  (* a was born first so has empty slots. *)
  check_bool "connect succeeds" true (Dyngraph.connect g ~src:a ~dst:b);
  check_bool "edge exists" true (List.mem b (Dyngraph.out_targets g a));
  check_bool "self connect fails" false (Dyngraph.connect g ~src:a ~dst:a);
  assert_invariants g

let test_connect_full_slots_fails () =
  let g = fresh ~d:1 () in
  let _a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  let c = Dyngraph.add_node g ~birth:3 in
  (* b's single slot is full (points at a). *)
  check_bool "no empty slot" false (Dyngraph.connect g ~src:b ~dst:c)

let test_add_node_with_targets () =
  let g = fresh ~d:3 () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  let c = Dyngraph.add_node_with_targets g ~birth:3 ~targets:[| a; b; a; b |] in
  check_int "only d targets used" 3 (Dyngraph.out_degree g c);
  check_bool "targets respected" true
    (List.for_all (fun t -> t = a || t = b) (Dyngraph.out_targets g c));
  assert_invariants g

let test_add_node_with_dead_targets_skipped () =
  let g = fresh ~d:3 () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  Dyngraph.kill g a;
  let c = Dyngraph.add_node_with_targets g ~birth:3 ~targets:[| a; b |] in
  check_int "dead target skipped" 1 (Dyngraph.out_degree g c);
  assert_invariants g

let test_in_degree () =
  let g = fresh ~d:2 () in
  let a = Dyngraph.add_node g ~birth:1 in
  ignore (Dyngraph.add_node g ~birth:2);
  (* second node's 2 slots both point at a -> distinct in-degree 1 *)
  check_int "distinct in-degree" 1 (Dyngraph.in_degree g a)

(* [in_degree_below g id b] against [in_degree g id < b] on churned
   graphs small enough for duplicate in-edges (for d > 1), with hubs whose in-edge
   lists spill past the row's block, for every [b] from 0 to the list's
   length [k] + 2; a dead id raises the same error from both. *)
let test_in_degree_below () =
  let error f = try ignore (f ()); None with Invalid_argument m -> Some m in
  List.iter
    (fun (d, seed) ->
      let g = fresh ~seed ~d ~regenerate:true () in
      let rng = Prng.create (seed + 100) in
      let spills = ref 0 and dups = ref 0 in
      for step = 1 to 600 do
        if Dyngraph.alive_count g < 30 || Prng.int rng 2 = 0 then begin
          if step mod 7 = 0 && Dyngraph.alive_count g > 0 then begin
            let hub = Dyngraph.random_alive g in
            ignore (Dyngraph.add_node_with_targets g ~birth:step ~targets:(Array.make d hub))
          end
          else ignore (Dyngraph.add_node g ~birth:step)
        end
        else Dyngraph.kill g (Dyngraph.random_alive g)
      done;
      assert_invariants g;
      let ids = Dyngraph.alive_ids g in
      Array.iter
        (fun id ->
          let k = ref 0 in
          Array.iter
            (fun u ->
              for i = 0 to d - 1 do
                if Dyngraph.out_slot g u i = id then incr k
              done)
            ids;
          if !k > (2 * d) + 1 then incr spills;
          let x = Dyngraph.in_degree g id in
          if !k > x then incr dups;
          for b = 0 to !k + 2 do
            if Dyngraph.in_degree_below g id b <> (x < b) then
              Alcotest.failf "d %d, seed %d, node %d (k %d, in-degree %d): bound %d" d seed id !k x
                b
          done)
        ids;
      check_bool (Printf.sprintf "d %d, seed %d: some in-edge list spills" d seed) true (!spills > 0);
      (* One out-slot per node: no source can point at a target twice. *)
      if d > 1 then
        check_bool (Printf.sprintf "d %d, seed %d: some duplicate in-edges" d seed) true (!dups > 0);
      let dead = Dyngraph.random_alive g in
      Dyngraph.kill g dead;
      check_bool "dead id: same error" true
        (error (fun () -> Dyngraph.in_degree g dead) = error (fun () -> Dyngraph.in_degree_below g dead 3)
        && error (fun () -> Dyngraph.in_degree g dead) <> None))
    [ (1, 1); (1, 2); (2, 3); (3, 4); (8, 5) ]

let test_peek_next_id () =
  let g = fresh () in
  let next = Dyngraph.peek_next_id g in
  let id = Dyngraph.add_node g ~birth:1 in
  check_int "peek matches" next id

(* --- Snapshot --- *)

let path_graph n = Snapshot.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle_graph n =
  Snapshot.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let test_snapshot_of_edges () =
  let s = path_graph 4 in
  check_int "n" 4 (Snapshot.n s);
  check_int "edges" 3 (Snapshot.edge_count s);
  check_int "degree of end" 1 (Snapshot.degree s 0);
  check_int "degree of middle" 2 (Snapshot.degree s 1)

let test_snapshot_bfs () =
  let s = path_graph 5 in
  let dist = Snapshot.bfs s 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] dist

let test_snapshot_bfs_unreachable () =
  let s = Snapshot.of_edges ~n:4 [ (0, 1) ] in
  let dist = Snapshot.bfs s 0 in
  check_int "unreachable" (-1) dist.(3)

let test_snapshot_components () =
  let s = Snapshot.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let _, k = Snapshot.components s in
  check_int "3 components" 3 k;
  check_int "largest" 3 (Snapshot.largest_component s)

let test_snapshot_isolated () =
  let s = Snapshot.of_edges ~n:4 [ (0, 1) ] in
  Alcotest.(check (list int)) "isolated" [ 2; 3 ] (Snapshot.isolated s)

let test_boundary_identities () =
  let s = cycle_graph 8 in
  let set = Snapshot.set_of_indices s [| 0; 1; 2 |] in
  let b = Snapshot.boundary s set in
  Array.sort Int.compare b;
  Alcotest.(check (array int)) "cycle arc boundary" [| 3; 7 |] b;
  Alcotest.(check int) "boundary size" 2 (Snapshot.boundary_size s set);
  (* boundary of everything is empty *)
  let all = Snapshot.set_of_indices s (Array.init 8 Fun.id) in
  Alcotest.(check int) "full set boundary" 0 (Snapshot.boundary_size s all)

let test_expansion_values () =
  let s = cycle_graph 10 in
  let arc = Snapshot.set_of_indices s [| 0; 1; 2; 3; 4 |] in
  Alcotest.(check (float 1e-9)) "arc expansion 2/5" 0.4 (Snapshot.expansion s arc);
  let single = Snapshot.set_of_indices s [| 0 |] in
  Alcotest.(check (float 1e-9)) "singleton expansion = degree" 2.0
    (Snapshot.expansion s single)

let test_expansion_empty_nan () =
  let s = cycle_graph 4 in
  let empty = Bitset.create (Snapshot.n s) in
  check_bool "empty nan" true (Float.is_nan (Snapshot.expansion s empty))

let test_degree_histogram () =
  let s = path_graph 4 in
  let h = Snapshot.degree_histogram s in
  Alcotest.(check (array int)) "histogram" [| 0; 2; 2 |] h

let test_degree_histogram_edge_cases () =
  (* Empty graph: no degrees at all, but the histogram still has its
     degree-0 bucket. *)
  let empty = Snapshot.of_edges ~n:0 [] in
  Alcotest.(check (array int)) "empty graph" [| 0 |] (Snapshot.degree_histogram empty);
  (* All-isolated population: everyone lands in the one bucket. *)
  let isolated = Snapshot.of_edges ~n:5 [] in
  Alcotest.(check (array int))
    "all isolated" [| 5 |]
    (Snapshot.degree_histogram isolated);
  (* Single max-degree hub: the histogram stretches to the hub's degree
     with empty buckets in between. *)
  let star = Snapshot.of_edges ~n:6 [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ] in
  Alcotest.(check (array int))
    "star hub" [| 0; 5; 0; 0; 0; 1 |]
    (Snapshot.degree_histogram star)

let test_snapshot_from_dyngraph_symmetry () =
  let g = fresh ~seed:23 ~d:3 ~regenerate:true () in
  for i = 1 to 80 do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  for _ = 1 to 20 do
    Dyngraph.kill g (Dyngraph.random_alive g)
  done;
  let s = Dyngraph.snapshot g in
  check_int "size matches" (Dyngraph.alive_count g) (Snapshot.n s);
  for u = 0 to Snapshot.n s - 1 do
    Array.iter
      (fun v ->
        check_bool "adjacency symmetric" true (Array.mem u (Snapshot.neighbors s v)))
      (Snapshot.neighbors s u)
  done

let test_snapshot_age_order () =
  let g = fresh ~seed:29 ~d:2 () in
  for i = 1 to 20 do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  let s = Dyngraph.snapshot g in
  let births = Array.init (Snapshot.n s) (Snapshot.birth_of_index s) in
  let sorted = Array.copy births in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "index 0 = oldest" sorted births

let test_snapshot_index_mapping () =
  let g = fresh ~seed:31 ~d:2 () in
  let ids = Array.init 10 (fun i -> Dyngraph.add_node g ~birth:(i + 1)) in
  let s = Dyngraph.snapshot g in
  Array.iter
    (fun id ->
      match Snapshot.index_of_id s id with
      | Some i -> check_int "roundtrip" id (Snapshot.id_of_index s i)
      | None -> Alcotest.fail "id missing from snapshot")
    ids

(* Regression for the alive-array swap-remove corner: killing the node
   that sits in the *last* position removes it without corrupting the
   dense array (the "moved" element is the victim itself). *)
let test_kill_last_alive_position () =
  let g = fresh ~d:2 () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  let c = Dyngraph.add_node g ~birth:3 in
  (* c was pushed last, so it occupies the final alive position. *)
  Dyngraph.kill g c;
  check_bool "victim gone" false (Dyngraph.is_alive g c);
  check_int "two survivors" 2 (Dyngraph.alive_count g);
  check_bool "a still alive" true (Dyngraph.is_alive g a);
  check_bool "b still alive" true (Dyngraph.is_alive g b);
  let seen = ref [] in
  Dyngraph.iter_alive g (fun id -> seen := id :: !seen);
  Alcotest.(check (list int))
    "alive array holds exactly the survivors" [ a; b ]
    (List.sort Int.compare !seen);
  assert_invariants g;
  (* Same corner via the churn path: repeatedly kill the newest node. *)
  let g = fresh ~d:3 ~regenerate:true () in
  for i = 1 to 10 do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  for _ = 1 to 5 do
    match Dyngraph.newest_alive g with
    | Some id -> Dyngraph.kill g id
    | None -> Alcotest.fail "newest_alive empty on populated graph"
  done;
  check_int "five survivors" 5 (Dyngraph.alive_count g);
  assert_invariants g

(* Slot recycling across generations: kills free arena slots, rebirths
   reuse them, and nothing leaks between occupants — ids stay globally
   unique, hooks report the original (external) ids, and the alive
   bookkeeping stays exact. *)
let test_slot_recycling_generations () =
  let g = fresh ~seed:43 ~d:3 ~regenerate:true () in
  let born = ref [] and died = ref [] in
  Dyngraph.set_birth_hook g (Some (fun id ~birth:_ -> born := id :: !born));
  Dyngraph.set_death_hook g (Some (fun id -> died := id :: !died));
  let all_ids = Hashtbl.create 256 in
  let record id =
    check_bool "id never reused" false (Hashtbl.mem all_ids id);
    Hashtbl.replace all_ids id ()
  in
  for i = 1 to 20 do
    record (Dyngraph.add_node g ~birth:i)
  done;
  (* Three full generations: each kills every current node (freeing all
     slots) and then repopulates, forcing the free list to recycle. *)
  for gen = 1 to 3 do
    let victims = Array.to_list (Dyngraph.alive_ids g) in
    List.iter (fun id -> Dyngraph.kill g id) victims;
    check_int "graph emptied" 0 (Dyngraph.alive_count g);
    List.iter
      (fun id ->
        check_bool "killed id stays dead" false (Dyngraph.is_alive g id);
        check_int "a dead id has no slot" (-1) (Dyngraph.slot g id))
      victims;
    for i = 1 to 20 do
      record (Dyngraph.add_node g ~birth:((100 * gen) + i))
    done;
    check_int "repopulated" 20 (Dyngraph.alive_count g);
    (* The newborns took over the 20 freed slots, one each. *)
    let slots = List.map (Dyngraph.slot g) (Array.to_list (Dyngraph.alive_ids g)) in
    Alcotest.(check (list int)) "slots = 0..19" (List.init 20 Fun.id) (List.sort Int.compare slots);
    assert_invariants g
  done;
  (* Hooks saw exactly the external ids we recorded, each once. *)
  let sorted l = List.sort Int.compare l in
  let every_id = sorted (Hashtbl.fold (fun id () acc -> id :: acc) all_ids []) in
  Alcotest.(check (list int)) "birth hook ids = allocated ids" every_id (sorted !born);
  let expected_deaths =
    List.filter (fun id -> not (Dyngraph.is_alive g id)) every_id
  in
  Alcotest.(check (list int)) "death hook ids = killed ids" expected_deaths
    (sorted !died);
  (* iter_alive agrees with is_alive after all the recycling. *)
  let from_iter = ref [] in
  Dyngraph.iter_alive g (fun id -> from_iter := id :: !from_iter);
  Alcotest.(check (list int))
    "iter_alive = { id | is_alive }"
    (List.filter (Dyngraph.is_alive g) every_id)
    (sorted !from_iter)

let test_newest_alive () =
  let g = fresh ~d:2 () in
  check_bool "empty -> none" true (Dyngraph.newest_alive g = None);
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  check_bool "newest is b" true (Dyngraph.newest_alive g = Some b);
  Dyngraph.kill g b;
  check_bool "falls back to a" true (Dyngraph.newest_alive g = Some a);
  let c = Dyngraph.add_node g ~birth:3 in
  check_bool "advances to c" true (Dyngraph.newest_alive g = Some c);
  Dyngraph.kill g a;
  check_bool "unaffected by old deaths" true (Dyngraph.newest_alive g = Some c)

(* Exercise the non-dense id path of Snapshot.index_of_id: killing
   interior nodes leaves id gaps, forcing the binary search. *)
let test_snapshot_index_mapping_with_gaps () =
  let g = fresh ~seed:37 ~d:2 ~regenerate:true () in
  let ids = Array.init 20 (fun i -> Dyngraph.add_node g ~birth:(i + 1)) in
  Array.iteri (fun i id -> if i mod 3 = 1 then Dyngraph.kill g id) ids;
  let s = Dyngraph.snapshot g in
  Array.iteri
    (fun i id ->
      match Snapshot.index_of_id s id with
      | Some k ->
          check_bool "only alive ids resolve" true (i mod 3 <> 1);
          check_int "roundtrip" id (Snapshot.id_of_index s k)
      | None -> check_bool "dead ids resolve to None" true (i mod 3 = 1))
    ids;
  check_bool "unknown id" true (Snapshot.index_of_id s 10_000 = None)

let qcheck_props =
  [
    QCheck.Test.make ~name:"dyngraph invariants under arbitrary churn" ~count:60
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 120) bool))
      (fun (seed, script) ->
        let g = fresh ~seed ~d:3 ~regenerate:(seed mod 2 = 0) () in
        List.iteri
          (fun i kill ->
            if kill && Dyngraph.alive_count g > 0 then
              Dyngraph.kill g (Dyngraph.random_alive g)
            else ignore (Dyngraph.add_node g ~birth:i))
          script;
        Dyngraph.check_invariants g = Ok ());
    QCheck.Test.make ~name:"snapshot boundary disjoint from set" ~count:60
      QCheck.small_int
      (fun seed ->
        let g = fresh ~seed ~d:3 () in
        for i = 1 to 40 do
          ignore (Dyngraph.add_node g ~birth:i)
        done;
        let s = Dyngraph.snapshot g in
        let rng = Prng.create seed in
        let size = 1 + Prng.int rng (Snapshot.n s / 2) in
        let idx = Prng.sample_without_replacement rng size (Snapshot.n s) in
        let set = Snapshot.set_of_indices s idx in
        let b = Snapshot.boundary s set in
        Array.for_all (fun v -> not (Bitset.mem set v)) b);
  ]

let suite =
  [
    ("empty graph", `Quick, test_empty);
    ("first node isolated", `Quick, test_first_node_has_no_edges);
    ("second node connects", `Quick, test_second_node_connects_to_first);
    ("no self loops", `Quick, test_no_self_loops);
    ("kill removes edges", `Quick, test_kill_removes_edges);
    ("kill dead raises", `Quick, test_kill_dead_raises);
    ("regeneration keeps out-degree", `Quick, test_regeneration_keeps_out_degree);
    ("no regeneration loses edges", `Quick, test_no_regeneration_loses_edges);
    ("churn invariants (no regen)", `Quick, test_random_churn_invariants_no_regen);
    ("churn invariants (regen)", `Quick, test_random_churn_invariants_regen);
    ("neighbor symmetry", `Quick, test_neighbors_symmetry);
    ("edge count", `Quick, test_edge_count_matches_out_degrees);
    ("oldest alive", `Quick, test_oldest_alive);
    ("edge hook on birth", `Quick, test_edge_hook_on_birth);
    ("edge hook on regeneration", `Quick, test_edge_hook_on_regeneration);
    ("death hook", `Quick, test_death_hook);
    ("connect", `Quick, test_connect);
    ("connect full fails", `Quick, test_connect_full_slots_fails);
    ("targeted birth", `Quick, test_add_node_with_targets);
    ("targeted birth skips dead", `Quick, test_add_node_with_dead_targets_skipped);
    ("in-degree", `Quick, test_in_degree);
    ("in-degree below", `Quick, test_in_degree_below);
    ("peek next id", `Quick, test_peek_next_id);
    ("kill last alive position", `Quick, test_kill_last_alive_position);
    ("slot recycling generations", `Quick, test_slot_recycling_generations);
    ("newest alive", `Quick, test_newest_alive);
    ("snapshot index mapping with gaps", `Quick, test_snapshot_index_mapping_with_gaps);
    ("snapshot of_edges", `Quick, test_snapshot_of_edges);
    ("snapshot bfs", `Quick, test_snapshot_bfs);
    ("snapshot bfs unreachable", `Quick, test_snapshot_bfs_unreachable);
    ("snapshot components", `Quick, test_snapshot_components);
    ("snapshot isolated", `Quick, test_snapshot_isolated);
    ("boundary identities", `Quick, test_boundary_identities);
    ("expansion values", `Quick, test_expansion_values);
    ("expansion empty nan", `Quick, test_expansion_empty_nan);
    ("degree histogram", `Quick, test_degree_histogram);
    ("degree histogram edge cases", `Quick, test_degree_histogram_edge_cases);
    ("dyngraph snapshot symmetry", `Quick, test_snapshot_from_dyngraph_symmetry);
    ("snapshot age order", `Quick, test_snapshot_age_order);
    ("snapshot index mapping", `Quick, test_snapshot_index_mapping);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props

let test_to_dot () =
  let s = cycle_graph 4 in
  let dot = Snapshot.to_dot ~name:"g" ~highlight:[ 0 ] s in
  let contains needle hay =
    let found = ref false in
    for i = 0 to String.length hay - String.length needle do
      if String.sub hay i (String.length needle) = needle then found := true
    done;
    !found
  in
  check_bool "graph header" true (contains "graph g {" dot);
  check_bool "highlight" true (contains "fillcolor=red" dot);
  check_bool "edge rendered" true (contains "n0 -- n1;" dot);
  (* Undirected edges appear once: 4 edges for C4. *)
  let count needle hay =
    let c = ref 0 in
    for i = 0 to String.length hay - String.length needle do
      if String.sub hay i (String.length needle) = needle then incr c
    done;
    !c
  in
  check_int "4 edges" 4 (count " -- " dot)

let suite = suite @ [ ("snapshot to_dot", `Quick, test_to_dot) ]
