(* Differential testing: Dyngraph (optimized, slot-based) vs
   Reference_graph (naive, list-based) on identical operation scripts and
   identical PRNG streams.  Any divergence in the resulting topology is a
   bug in one of the two edge-bookkeeping implementations. *)

module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)

let snapshots_equal a b =
  Snapshot.n a = Snapshot.n b
  && Snapshot.ids a = Snapshot.ids b
  &&
  let ok = ref true in
  for i = 0 to Snapshot.n a - 1 do
    if Snapshot.neighbors a i <> Snapshot.neighbors b i then ok := false;
    if Snapshot.birth_of_index a i <> Snapshot.birth_of_index b i then ok := false
  done;
  !ok

(* Drive both implementations with the same script.  Kills are chosen by
   a third rng over the *sorted* alive-id list, so the graphs' internal
   rngs are consumed by birth sampling only — identically, as long as
   both maintain the same dense-array order. *)
let run_pair ~seed ~script =
  let g = Dyngraph.create ~rng:(Prng.create seed) ~d:3 ~regenerate:false () in
  let r = Reference_graph.create ~rng:(Prng.create seed) ~d:3 () in
  let chooser = Prng.create (seed + 1000) in
  List.iteri
    (fun i kill ->
      if kill && Dyngraph.alive_count g > 1 then begin
        let ids = Dyngraph.alive_ids g in
        Array.sort Int.compare ids;
        let victim = ids.(Prng.int chooser (Array.length ids)) in
        Dyngraph.kill g victim;
        Reference_graph.kill r victim
      end
      else begin
        let a = Dyngraph.add_node g ~birth:i in
        let b = Reference_graph.add_node r ~birth:i in
        Alcotest.(check int) "same id allocated" a b
      end)
    script;
  (g, r)

let test_pure_births () =
  let script = List.init 60 (fun _ -> false) in
  let g, r = run_pair ~seed:11 ~script in
  check_bool "equal after births" true
    (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r))

let test_mixed_script () =
  let rng = Prng.create 5 in
  let script = List.init 250 (fun _ -> Prng.bernoulli rng 0.4) in
  let g, r = run_pair ~seed:13 ~script in
  check_bool "equal after mixed churn" true
    (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r))

let test_heavy_deaths () =
  let rng = Prng.create 6 in
  (* Long birth phase then a death-heavy phase. *)
  let script =
    List.init 80 (fun _ -> false) @ List.init 200 (fun _ -> Prng.bernoulli rng 0.7)
  in
  let g, r = run_pair ~seed:17 ~script in
  check_bool "equal after heavy deaths" true
    (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r))

(* The allocation-free neighbor iterators must visit exactly the distinct
   neighbor set of the list-returning queries — same elements, no
   duplicates — on every alive node of an arbitrarily churned graph. *)
let iterators_agree g =
  let ok = ref true in
  Dyngraph.iter_alive g (fun id ->
      let via_iter = ref [] in
      Dyngraph.iter_neighbors g id (fun v -> via_iter := v :: !via_iter);
      let no_dups =
        List.length (List.sort_uniq Int.compare !via_iter) = List.length !via_iter
      in
      if not no_dups then ok := false;
      if List.sort Int.compare !via_iter <> List.sort Int.compare (Dyngraph.neighbors g id)
      then ok := false;
      let via_in = ref [] in
      Dyngraph.iter_in_neighbors g id (fun v -> via_in := v :: !via_in);
      let in_no_dups =
        List.length (List.sort_uniq Int.compare !via_in) = List.length !via_in
      in
      if not in_no_dups then ok := false;
      if List.sort Int.compare !via_in <> List.sort Int.compare (Dyngraph.in_neighbors g id)
      then ok := false);
  !ok

let test_iter_neighbors_mixed_script () =
  let rng = Prng.create 8 in
  let script = List.init 250 (fun _ -> Prng.bernoulli rng 0.4) in
  let g, _ = run_pair ~seed:19 ~script in
  check_bool "iterators agree with list queries" true (iterators_agree g)

let test_iter_neighbors_heavy_deaths () =
  let rng = Prng.create 9 in
  let script =
    List.init 80 (fun _ -> false) @ List.init 200 (fun _ -> Prng.bernoulli rng 0.7)
  in
  let g, _ = run_pair ~seed:23 ~script in
  check_bool "iterators agree after heavy deaths" true (iterators_agree g)

(* --- Batched churn vs per-jump: byte-identical model evolution ------ *)
(* The runners apply pre-drawn batches of jumps but claim bit-identical
   state to stepping one jump at a time — PRNG streams, clock, pending
   jump, topology.  The reference below is that [step] loop; the
   strongest possible assertion is equality of the full checkpoint
   encoding, which serializes all of it. *)

module Poisson_model = Churnet_core.Poisson_model
module Codec = Churnet_util.Codec

let encoded m =
  let w = Codec.writer () in
  Poisson_model.encode w m;
  Codec.contents w

let pm seed ~regenerate =
  Poisson_model.create ~rng:(Prng.create seed) ~n:300 ~d:3 ~regenerate ()

let step_rounds m k =
  for _ = 1 to k do
    Poisson_model.step m
  done

let step_until_time m deadline =
  while Poisson_model.next_jump_time m <= deadline do
    Poisson_model.step m
  done

let test_run_rounds_vs_step () =
  List.iter
    (fun regenerate ->
      let a = pm 7 ~regenerate and b = pm 7 ~regenerate in
      step_rounds a 9000;
      Poisson_model.run_rounds b 9000;
      check_bool "step loop == run_rounds" true (encoded a = encoded b))
    [ false; true ]

let test_warm_up_vs_step () =
  let a = pm 11 ~regenerate:true and b = pm 11 ~regenerate:true in
  step_rounds a (12 * 300);
  Poisson_model.warm_up b;
  check_bool "step loop == warm_up" true (encoded a = encoded b)

(* Interleave deadline runs with jump-count runs so the pending jump is
   handed in both directions across the runners. *)
let test_run_until_time_vs_step () =
  let a = pm 13 ~regenerate:false and b = pm 13 ~regenerate:false in
  step_rounds a (12 * 300);
  Poisson_model.warm_up b;
  for k = 1 to 25 do
    let deadline = Poisson_model.time a +. (0.37 *. float_of_int k) in
    step_until_time a deadline;
    Poisson_model.run_until_time b deadline;
    check_bool "deadline runs stay byte-identical" true (encoded a = encoded b);
    step_rounds a 13;
    Poisson_model.run_rounds b 13;
    check_bool "jump counts after pending stay byte-identical" true (encoded a = encoded b)
  done;
  (* A deadline below the next jump: both must draw (and keep) the
     crossing jump without executing anything. *)
  let deadline = Poisson_model.time a in
  step_until_time a deadline;
  Poisson_model.run_until_time b deadline;
  check_bool "no-op deadline stays byte-identical" true (encoded a = encoded b)

(* --- Buffer-filling neighbourhood queries ------------------------- *)

(* The buffer-filling queries against the list queries and against an
   independent construction (out-targets plus in-neighbours, sorted and
   deduplicated by the stdlib), on every alive node.  One buffer serves
   every node, as in the simulators, so stale contents would show. *)
module Intvec = Churnet_util.Intvec

let into_agrees g =
  let buf = Intvec.create ~capacity:1 () in
  let contents () = List.init (Intvec.length buf) (Intvec.get buf) in
  let ok = ref true in
  Dyngraph.iter_alive g (fun id ->
      let ins = ref [] in
      Dyngraph.iter_in_neighbors g id (fun v -> ins := v :: !ins);
      let ins = List.sort_uniq Int.compare !ins in
      Dyngraph.in_neighbors_into g id buf;
      if contents () <> ins || contents () <> Dyngraph.in_neighbors g id then ok := false;
      let all = List.sort_uniq Int.compare (Dyngraph.out_targets g id @ ins) in
      Dyngraph.neighbors_into g id buf;
      if contents () <> all || contents () <> Dyngraph.neighbors g id then ok := false);
  !ok

(* [random_neighbor] returns what [neighbors_into] and a uniform pick
   from its buffer return, with the same single draw: the same value and
   the same next [bits64] of the picking generator, for every alive node
   (-1 and no draw for an isolated one). *)
let random_neighbor_agrees g ~seed =
  let buf = Intvec.create ~capacity:1 () in
  let ok = ref true in
  Dyngraph.iter_alive g (fun id ->
      let rng = Prng.create (seed + id) in
      let reference = Prng.copy rng in
      let got = Dyngraph.random_neighbor g id rng in
      Dyngraph.neighbors_into g id buf;
      let k = Intvec.length buf in
      let want = if k = 0 then -1 else Intvec.get buf (Prng.int reference k) in
      if got <> want || Prng.bits64 rng <> Prng.bits64 reference then ok := false);
  !ok

(* A churned graph with regeneration: births, then kills of uniformly
   chosen alive nodes, each re-pointing its in-neighbours' slots. *)
let regen_graph ~seed ~script =
  let g = Dyngraph.create ~rng:(Prng.create seed) ~d:3 ~regenerate:true () in
  List.iteri
    (fun i kill ->
      if kill && Dyngraph.alive_count g > 1 then Dyngraph.kill g (Dyngraph.random_alive g)
      else ignore (Dyngraph.add_node g ~birth:i))
    script;
  g

let test_into_churned () =
  let rng = Prng.create 10 in
  let script =
    List.init 80 (fun _ -> false) @ List.init 300 (fun _ -> Prng.bernoulli rng 0.5)
  in
  let g, _ = run_pair ~seed:29 ~script in
  check_bool "_into queries agree without regeneration" true (into_agrees g);
  check_bool "_into queries agree with regeneration" true
    (into_agrees (regen_graph ~seed:29 ~script));
  List.iter
    (fun regenerate ->
      let m = pm 53 ~regenerate in
      Poisson_model.warm_up m;
      check_bool "_into queries agree on a warmed Poisson graph" true
        (into_agrees (Poisson_model.graph m)))
    [ false; true ]

(* --- in_degree and degree vs a naive count ---------------------------- *)

(* Distinct in-neighbours of [id] by the definition: the alive nodes with
   at least one out-slot on it.  Independent of the in-edge multisets. *)
let naive_in_neighbors g id =
  List.filter
    (fun u -> Array.mem id (Dyngraph.out_slots_raw g u))
    (Array.to_list (Dyngraph.alive_ids g))

let naive_in_degree g id = List.length (naive_in_neighbors g id)

let naive_degree g id =
  List.length
    (List.sort_uniq Int.compare (Dyngraph.out_targets g id @ naive_in_neighbors g id))

let degrees_agree g =
  let ok = ref true in
  Dyngraph.iter_alive g (fun id ->
      if Dyngraph.in_degree g id <> naive_in_degree g id then ok := false;
      if Dyngraph.degree g id <> naive_degree g id then ok := false);
  !ok

(* A random arena: births (some with repeated explicit targets), kills,
   [connect] twice to one target and [disconnect], so in-edge multisets
   carry multiplicities and stale entries would show.  [in_degree] is
   also asked of random nodes along the way, so its stamps live through
   arena growth past 256 slots and slot recycling. *)
let multi_edge_arena ~regenerate ~seed ~ops =
  let ops_rng = Prng.create (seed + 1000) in
  let g = Dyngraph.create ~rng:(Prng.create seed) ~d:3 ~regenerate () in
  let ok = ref true in
  for i = 1 to ops do
    let alive = Dyngraph.alive_count g in
    let pick () = Dyngraph.random_alive g in
    (match Prng.int ops_rng 10 with
    | 0 | 1 when alive > 2 -> Dyngraph.kill g (pick ())
    | 3 when alive > 1 ->
        let a = pick () and b = pick () in
        ignore (Dyngraph.add_node_with_targets g ~birth:i ~targets:[| a; a; b |])
    | 4 | 5 when alive > 1 ->
        let src = pick () and dst = pick () in
        ignore (Dyngraph.connect g ~src ~dst);
        ignore (Dyngraph.connect g ~src ~dst)
    | 6 when alive > 1 ->
        let src = pick () in
        List.iter
          (fun dst -> if Prng.bool ops_rng then ignore (Dyngraph.disconnect g ~src ~dst))
          (Dyngraph.out_targets g src)
    | _ -> ignore (Dyngraph.add_node g ~birth:i));
    if Dyngraph.alive_count g > 0 && Prng.int ops_rng 4 = 0 then begin
      let id = pick () in
      if Dyngraph.in_degree g id <> naive_in_degree g id then ok := false
    end
  done;
  (g, !ok)

(* A hub whose in-edge list runs past its row's 2d + 1 entries into the
   spill, with duplicate entries (births that point both slots at it),
   then kills that swap-remove entries across the boundary; and the
   multi-edge arenas of the degree tests. *)
let test_random_neighbor () =
  List.iter
    (fun regenerate ->
      let d = 2 in
      let g = Dyngraph.create ~rng:(Prng.create 71) ~d ~regenerate () in
      let hub = Dyngraph.add_node g ~birth:0 in
      let chooser = Prng.create 72 in
      for i = 1 to 120 do
        if i mod 3 = 0 then
          ignore (Dyngraph.add_node_with_targets g ~birth:i ~targets:[| hub; hub |])
        else if i mod 5 = 0 then begin
          let ids = Dyngraph.alive_ids g in
          let victim = ids.(Prng.int chooser (Array.length ids)) in
          if victim <> hub then Dyngraph.kill g victim
        end
        else ignore (Dyngraph.add_node g ~birth:i)
      done;
      let len =
        Array.fold_left
          (fun c u -> c + List.length (List.filter (( = ) hub) (Dyngraph.out_targets g u)))
          0 (Dyngraph.alive_ids g)
      in
      check_bool
        (Printf.sprintf "regenerate = %b: the hub's %d in-edges spill" regenerate len)
        true
        (len > (2 * d) + 1 && Dyngraph.in_degree g hub < len);
      check_bool
        (Printf.sprintf "regenerate = %b: random_neighbor == neighbors_into + pick" regenerate)
        true (random_neighbor_agrees g ~seed:73))
    [ false; true ];
  List.iter
    (fun (regenerate, seed) ->
      let g, ok = multi_edge_arena ~regenerate ~seed ~ops:300 in
      check_bool "in-degrees agree while the arena is built" true ok;
      check_bool
        (Printf.sprintf "multi-edge arena %d: random_neighbor == neighbors_into + pick" seed)
        true
        (random_neighbor_agrees g ~seed))
    [ (false, 3); (true, 4) ]

let test_degrees_multi_edges () =
  List.iter
    (fun regenerate ->
      let g, ok = multi_edge_arena ~regenerate ~seed:71 ~ops:2000 in
      check_bool "arena invariants" true (Dyngraph.check_invariants g = Ok ());
      check_bool "grew past the initial 256 slots" true (Dyngraph.alive_count g > 256);
      check_bool "in_degree along the way = naive count" true ok;
      check_bool "in_degree and degree of every node = naive counts" true (degrees_agree g))
    [ false; true ]

(* --- Stream_stats vs Snapshot ----------------------------------------- *)

module Stream_stats = Churnet_graph.Stream_stats

let bits = Int64.bits_of_float

let stream_stats_agree g =
  let snap = Dyngraph.snapshot g in
  let st = Stream_stats.collect g in
  st.Stream_stats.population = Snapshot.n snap
  && st.Stream_stats.isolated = List.length (Snapshot.isolated snap)
  && st.Stream_stats.max_degree = Snapshot.max_degree snap
  && bits st.Stream_stats.mean_degree = bits (Snapshot.mean_degree snap)

let test_stream_stats_empty () =
  let g = Dyngraph.create ~rng:(Prng.create 3) ~d:3 ~regenerate:false () in
  check_bool "stream stats on the empty graph" true (stream_stats_agree g)

let test_stream_stats_churned () =
  let rng = Prng.create 31 in
  let script =
    List.init 80 (fun _ -> false) @ List.init 300 (fun _ -> Prng.bernoulli rng 0.55)
  in
  let g, _ = run_pair ~seed:37 ~script in
  check_bool "stream stats after churn" true (stream_stats_agree g)

let test_stream_stats_poisson () =
  List.iter
    (fun regenerate ->
      let m = pm 43 ~regenerate in
      Poisson_model.warm_up m;
      let g = Poisson_model.graph m in
      check_bool "stream stats on a warmed Poisson graph" true (stream_stats_agree g))
    [ false; true ]

(* --- Paged arena: row pages, id pages and in-edge spills ----------- *)

(* A shadow of every in-edge list, kept from the hooks alone: an edge
   hook appends its source to the destination's list, a death hook
   swap-removes the dying node from each of its out-targets' lists (in
   slot order, before any regenerated edge exists) and drops its own,
   and the driver applies each successful [disconnect].  The removal is
   an [Intvec]'s: the last entry takes the first occurrence's place.
   Hooks fire with ids only, so the shadow is blind to the arena's
   rows, blocks, spills and pages. *)
let shadow_remove lists ~dst ~src =
  match Hashtbl.find_opt lists dst with
  | None -> ()
  | Some l ->
      let a = Array.of_list l in
      let k = Array.length a in
      let i = ref 0 in
      while !i < k && a.(!i) <> src do
        incr i
      done;
      if !i < k then begin
        a.(!i) <- a.(k - 1);
        Hashtbl.replace lists dst (Array.to_list (Array.sub a 0 (k - 1)))
      end

let attach_shadow g =
  let lists = Hashtbl.create 64 in
  Dyngraph.set_birth_hook g (Some (fun id ~birth:_ -> Hashtbl.replace lists id []));
  Dyngraph.set_edge_hook g
    (Some
       (fun ~src ~dst ->
         let l = Option.value ~default:[] (Hashtbl.find_opt lists dst) in
         Hashtbl.replace lists dst (l @ [ src ])));
  Dyngraph.set_death_hook g
    (Some
       (fun id ->
         Array.iter
           (fun dst -> if dst >= 0 then shadow_remove lists ~dst ~src:id)
           (Dyngraph.out_slots_raw g id);
         Hashtbl.remove lists id));
  lists

(* Each alive node's in-edges agree with the shadow: the same multiset,
   and [iter_in_neighbors] visiting its distinct entries in the order
   they first occur there. *)
let shadow_agrees g lists =
  let ok = ref (Hashtbl.length lists = Dyngraph.alive_count g) in
  Dyngraph.iter_alive g (fun id ->
      let l = Option.value ~default:[] (Hashtbl.find_opt lists id) in
      let firsts =
        List.rev
          (List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] l)
      in
      let visited = ref [] in
      Dyngraph.iter_in_neighbors g id (fun v -> visited := v :: !visited);
      if List.rev !visited <> firsts then ok := false;
      let naive = List.sort Int.compare (naive_in_neighbors g id) in
      if List.sort_uniq Int.compare l <> naive then ok := false;
      List.iter
        (fun v ->
          let raw = Dyngraph.out_slots_raw g v in
          let slots = Array.fold_left (fun c x -> if x = id then c + 1 else c) 0 raw in
          if List.length (List.filter (( = ) v) l) <> slots then ok := false)
        naive);
  !ok

let graph_bytes g =
  let w = Codec.writer () in
  Dyngraph.encode w g;
  Codec.contents w

(* The checks made at every checkpoint: the shadow, the list oracle and
   a byte-identical re-encoding. *)
let checkpoint what g ~lists ~reference =
  check_bool (what ^ ": in-edge lists match the shadow") true (shadow_agrees g lists);
  check_bool (what ^ ": equal to the reference oracle") true
    (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot reference));
  let bytes = graph_bytes g in
  check_bool (what ^ ": encode, decode, encode is byte-identical") true
    (graph_bytes (Dyngraph.decode (Codec.reader bytes)) = bytes)

let assert_invariants what g =
  match Dyngraph.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let sorted_alive g =
  let ids = Dyngraph.alive_ids g in
  Array.sort Int.compare ids;
  ids

(* Regeneration at n <= 8 and d in 1..6: a redraw names its own node
   about once in n draws, and a node with several slots on the victim
   often runs out of its first run of draws, so the self-hit redraws and
   the refills of the bulk draws happen on most kills.  Dyngraph and the
   one-draw-at-a-time oracle must agree on the topology and on the
   generator's next output after every operation. *)
let test_regen_tiny () =
  let self_hits = ref 0 in
  for d = 1 to 6 do
    for seed = 1 to 6 do
      let rng = Prng.create ((100 * d) + seed) in
      let ref_rng = Prng.copy rng in
      let g = Dyngraph.create ~rng ~d ~regenerate:true () in
      let r = Reference_graph.create ~regenerate:true ~rng:ref_rng ~d () in
      let chooser = Prng.create seed in
      for i = 1 to 200 do
        let n = Dyngraph.alive_count g in
        let what = Printf.sprintf "d = %d, seed %d, operation %d" d seed i in
        if n < 2 || (n < 8 && Prng.bool chooser) then begin
          let a = Dyngraph.add_node g ~birth:i in
          Alcotest.(check int) (what ^ ": same id") a (Reference_graph.add_node r ~birth:i)
        end
        else begin
          let ids = sorted_alive g in
          let victim = ids.(Prng.int chooser (Array.length ids)) in
          Dyngraph.kill g victim;
          Reference_graph.kill r victim
        end;
        (match Dyngraph.check_invariants g with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" what e);
        check_bool (what ^ ": equal to the oracle") true
          (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r));
        check_bool (what ^ ": same next bits64") true
          (Prng.bits64 (Prng.copy rng) = Prng.bits64 (Prng.copy ref_rng))
      done;
      self_hits := !self_hits + r.Reference_graph.self_hits
    done
  done;
  check_bool (Printf.sprintf "%d self-hit redraws" !self_hits) true (!self_hits > 200)

(* (a) 7 200 operations on one no-regeneration arena and the list
   oracle: 600 births, then 3 200 of births and uniform kills that spare
   the first 16 nodes, so these survivors stretch the live ids over
   several id pages, then 3 400 more in which a quarter of the
   operations kill the oldest node, so the oldest alive id climbs and id
   pages are dropped and reused.  The arena's high-water mark crosses
   two row-page boundaries. *)
let test_paged_arena_long_script () =
  let d = 3 in
  let g = Dyngraph.create ~rng:(Prng.create 41) ~d ~regenerate:false () in
  let r = Reference_graph.create ~rng:(Prng.create 41) ~d () in
  let lists = attach_shadow g in
  let chooser = Prng.create 1041 in
  let top_slot = ref 0 and oldest_then = ref 0 and span = ref 0 in
  for i = 1 to 7200 do
    let u = Prng.unit_float chooser in
    if i <= 600 || Dyngraph.alive_count g < 2 || u < 0.5 then begin
      let a = Dyngraph.add_node g ~birth:i in
      let b = Reference_graph.add_node r ~birth:i in
      Alcotest.(check int) "same id allocated" a b;
      top_slot := max !top_slot (Dyngraph.slot g a)
    end
    else begin
      let ids = sorted_alive g in
      let victim =
        if i > 3800 && u > 0.75 then ids.(0) else ids.(Prng.int chooser (Array.length ids))
      in
      if i > 3800 || victim >= 16 then begin
        Dyngraph.kill g victim;
        Reference_graph.kill r victim
      end
    end;
    assert_invariants (Printf.sprintf "after operation %d" i) g;
    (match Dyngraph.oldest_alive g with
    | Some o ->
        span := max !span (Dyngraph.peek_next_id g - o);
        if Dyngraph.peek_next_id g land 1023 = 0 then oldest_then := max !oldest_then o
    | None -> ());
    if i mod 500 = 0 then
      checkpoint (Printf.sprintf "operation %d" i) g ~lists ~reference:r
  done;
  check_bool (Printf.sprintf "slots reached a third row page (top slot %d)" !top_slot) true
    (!top_slot >= 512);
  check_bool (Printf.sprintf "live ids spanned more than two id pages (%d ids)" !span) true
    (!span > 2048);
  (* some page was needed after an earlier page had been dropped *)
  check_bool
    (Printf.sprintf "a new id page began above a dropped one (oldest %d)" !oldest_then)
    true (!oldest_then >= 1024);
  check_bool
    (Printf.sprintf "ids crossed three id-page boundaries (%d)" (Dyngraph.peek_next_id g))
    true
    (Dyngraph.peek_next_id g > 3072)

(* (b) Hubs: most births point at one of three hub nodes, so the hubs'
   in-edge lists run far past the 2d + 1 entries a row holds and
   continue in spills; kills of ordinary nodes, [disconnect]s and hub
   deaths then swap-remove entries on both sides of the block/spill
   boundary, and recycled hub slots keep their cleared spills.  At d = 1
   the block holds 3 entries.  The list oracle follows the whole script,
   with regeneration too. *)
let hub_script ~d ~regenerate ~seed ~ops =
  let g = Dyngraph.create ~rng:(Prng.create seed) ~d ~regenerate () in
  let r = Reference_graph.create ~regenerate ~rng:(Prng.create seed) ~d () in
  let lists = attach_shadow g in
  let chooser = Prng.create (seed + 1000) in
  let hubs = [| -1; -1; -1 |] in
  let widest = ref 0 in
  let pick () =
    let ids = sorted_alive g in
    ids.(Prng.int chooser (Array.length ids))
  in
  let kill victim =
    Dyngraph.kill g victim;
    Reference_graph.kill r victim;
    Array.iteri
      (fun h hub ->
        if hub = victim then
          hubs.(h) <- Option.value ~default:(-1) (Dyngraph.newest_alive g))
      hubs
  in
  for i = 1 to ops do
    let alive = Dyngraph.alive_count g in
    let u = Prng.unit_float chooser in
    (if i <= 3 || alive < 8 then begin
       let id = Dyngraph.add_node g ~birth:i in
       ignore (Reference_graph.add_node r ~birth:i);
       if i <= 3 then hubs.(i - 1) <- id
     end
     else if u < 0.40 then begin
       let h = hubs.(Prng.int chooser 3) in
       let targets = [| h; hubs.(Prng.int chooser 3); pick () |] in
       ignore (Dyngraph.add_node_with_targets g ~birth:i ~targets);
       ignore (Reference_graph.add_node_with_targets r ~birth:i ~targets)
     end
     else if u < 0.48 then begin
       ignore (Dyngraph.add_node g ~birth:i);
       ignore (Reference_graph.add_node r ~birth:i)
     end
     else if u < 0.56 then begin
       let src = pick () and dst = hubs.(Prng.int chooser 3) in
       if Dyngraph.connect g ~src ~dst then Reference_graph.connect r ~src ~dst
     end
     else if u < 0.64 then begin
       let src = pick () in
       match Dyngraph.out_targets g src with
       | [] -> ()
       | dst :: _ ->
           if Dyngraph.disconnect g ~src ~dst then begin
             shadow_remove lists ~dst ~src;
             Reference_graph.disconnect r ~src ~dst
           end
     end
     else if u < 0.66 then kill hubs.(Prng.int chooser 3)
     else begin
       let victim = pick () in
       if not (Array.mem victim hubs) then kill victim
     end);
    assert_invariants (Printf.sprintf "d = %d, regenerate = %b, operation %d" d regenerate i) g;
    Array.iter
      (fun h ->
        if h >= 0 && Dyngraph.is_alive g h then widest := max !widest (Dyngraph.in_degree g h))
      hubs;
    if i mod 250 = 0 then
      checkpoint
        (Printf.sprintf "d = %d, regenerate = %b, operation %d" d regenerate i)
        g ~lists ~reference:r
  done;
  check_bool
    (Printf.sprintf "a hub's in-edges spilled (%d distinct in-neighbours)" !widest)
    true
    (!widest > 4 * ((2 * d) + 1))

let test_paged_arena_hubs () =
  List.iter
    (fun (d, regenerate) -> hub_script ~d ~regenerate ~seed:(50 + d) ~ops:2000)
    [ (1, false); (1, true); (3, false); (3, true) ]

let qcheck_props =
  [
    QCheck.Test.make ~name:"stream_stats == snapshot stats on random scripts" ~count:40
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, _ = run_pair ~seed ~script in
        stream_stats_agree g);
  ]
  @ [
    QCheck.Test.make ~name:"in_degree, degree == naive counts on random arenas" ~count:40
      QCheck.(triple bool small_int (int_range 1 400))
      (fun (regenerate, seed, ops) ->
        let g, ok = multi_edge_arena ~regenerate ~seed ~ops in
        ok && degrees_agree g);
    QCheck.Test.make ~name:"dyngraph == reference oracle on random scripts" ~count:60
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, r = run_pair ~seed ~script in
        snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r));
    QCheck.Test.make ~name:"iter_neighbors == neighbors on random scripts" ~count:60
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, _ = run_pair ~seed ~script in
        iterators_agree g);
    QCheck.Test.make ~name:"neighbors_into == neighbors on random scripts" ~count:60
      QCheck.(triple bool small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (regenerate, seed, script) ->
        if regenerate then into_agrees (regen_graph ~seed ~script)
        else
          let g, _ = run_pair ~seed ~script in
          into_agrees g);
  ]

let suite =
  [
    ("pure births", `Quick, test_pure_births);
    ("mixed churn", `Quick, test_mixed_script);
    ("heavy deaths", `Quick, test_heavy_deaths);
    ("iter_neighbors mixed churn", `Quick, test_iter_neighbors_mixed_script);
    ("iter_neighbors heavy deaths", `Quick, test_iter_neighbors_heavy_deaths);
    ("neighbors_into churned graphs", `Quick, test_into_churned);
    ("random_neighbor == neighbors_into + pick", `Quick, test_random_neighbor);
    ("regeneration oracle at n <= 8, d 1..6", `Quick, test_regen_tiny);
    ("batched run_rounds byte-identical", `Quick, test_run_rounds_vs_step);
    ("batched warm_up byte-identical", `Quick, test_warm_up_vs_step);
    ("batched run_until_time byte-identical", `Quick, test_run_until_time_vs_step);
    ("in_degree, degree vs naive counts with multi-edges", `Quick, test_degrees_multi_edges);
    ("stream stats: empty graph", `Quick, test_stream_stats_empty);
    ("stream stats: churned graph", `Quick, test_stream_stats_churned);
    ("stream stats: warmed Poisson graph", `Quick, test_stream_stats_poisson);
    ("paged arena: long script across pages", `Quick, test_paged_arena_long_script);
    ("paged arena: hubs spill at d = 1 and 3", `Quick, test_paged_arena_hubs);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
