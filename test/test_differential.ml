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
  let r = Reference_graph.create ~rng:(Prng.create seed) ~d:3 in
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

(* --- Stream_stats vs Snapshot / Metrics ----------------------------- *)

module Stream_stats = Churnet_graph.Stream_stats
module Metrics = Churnet_graph.Metrics
module Bitset = Churnet_util.Bitset

let bits = Int64.bits_of_float

let stream_stats_agree g =
  let snap = Dyngraph.snapshot g in
  let st = Stream_stats.collect g in
  st.Stream_stats.population = Snapshot.n snap
  && st.Stream_stats.isolated = List.length (Snapshot.isolated snap)
  && st.Stream_stats.max_degree = Snapshot.max_degree snap
  && bits st.Stream_stats.mean_degree = bits (Snapshot.mean_degree snap)
  && st.Stream_stats.degree_histogram = Snapshot.degree_histogram snap
  && bits st.Stream_stats.degree_gini = bits (Metrics.degree_gini snap)

let boundary_agrees ~seed g =
  let snap = Dyngraph.snapshot g in
  let n = Snapshot.n snap in
  let rng = Prng.create seed in
  let ok = ref true in
  for _ = 1 to 5 do
    let id_set = Bitset.create 1 in
    let idx_set = Bitset.create (max 1 n) in
    for i = 0 to n - 1 do
      if Prng.bernoulli rng 0.3 then begin
        let id = Snapshot.id_of_index snap i in
        Bitset.ensure_capacity id_set (id + 1);
        Bitset.add id_set id;
        Bitset.add idx_set i
      end
    done;
    if Stream_stats.boundary_size g id_set <> Snapshot.boundary_size snap idx_set then
      ok := false;
    if bits (Stream_stats.expansion g id_set) <> bits (Snapshot.expansion snap idx_set)
    then ok := false
  done;
  !ok

let test_stream_stats_empty () =
  let g = Dyngraph.create ~rng:(Prng.create 3) ~d:3 ~regenerate:false () in
  check_bool "stream stats on the empty graph" true (stream_stats_agree g)

let test_stream_stats_churned () =
  let rng = Prng.create 31 in
  let script =
    List.init 80 (fun _ -> false) @ List.init 300 (fun _ -> Prng.bernoulli rng 0.55)
  in
  let g, _ = run_pair ~seed:37 ~script in
  check_bool "stream stats after churn" true (stream_stats_agree g);
  check_bool "boundary/expansion after churn" true (boundary_agrees ~seed:41 g)

let test_stream_stats_poisson () =
  List.iter
    (fun regenerate ->
      let m = pm 43 ~regenerate in
      Poisson_model.warm_up m;
      let g = Poisson_model.graph m in
      check_bool "stream stats on a warmed Poisson graph" true (stream_stats_agree g);
      check_bool "boundary/expansion on a warmed Poisson graph" true
        (boundary_agrees ~seed:47 g))
    [ false; true ]

let qcheck_props =
  [
    QCheck.Test.make ~name:"stream_stats == snapshot stats on random scripts" ~count:40
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, _ = run_pair ~seed ~script in
        stream_stats_agree g);
  ]
  @ [
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
  ]

let suite =
  [
    ("pure births", `Quick, test_pure_births);
    ("mixed churn", `Quick, test_mixed_script);
    ("heavy deaths", `Quick, test_heavy_deaths);
    ("iter_neighbors mixed churn", `Quick, test_iter_neighbors_mixed_script);
    ("iter_neighbors heavy deaths", `Quick, test_iter_neighbors_heavy_deaths);
    ("batched run_rounds byte-identical", `Quick, test_run_rounds_vs_step);
    ("batched warm_up byte-identical", `Quick, test_warm_up_vs_step);
    ("batched run_until_time byte-identical", `Quick, test_run_until_time_vs_step);
    ("stream stats: empty graph", `Quick, test_stream_stats_empty);
    ("stream stats: churned graph", `Quick, test_stream_stats_churned);
    ("stream stats: warmed Poisson graph", `Quick, test_stream_stats_poisson);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
