open Churnet_core
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sdgr ?(seed = 1) ?(n = 300) ?(d = 8) () =
  let m = Streaming_model.create ~rng:(Prng.create seed) ~n ~d ~regenerate:true () in
  Streaming_model.warm_up m;
  m

let sdg ?(seed = 1) ?(n = 300) ?(d = 3) () =
  let m = Streaming_model.create ~rng:(Prng.create seed) ~n ~d ~regenerate:false () in
  Streaming_model.warm_up m;
  m

let pdgr ?(seed = 1) ?(n = 300) ?(d = 8) () =
  let m = Poisson_model.create ~rng:(Prng.create seed) ~n ~d ~regenerate:true () in
  Poisson_model.warm_up m;
  m

let test_sdgr_flood_completes_fast () =
  let m = sdgr ~seed:3 () in
  let tr = Flood.run_streaming m in
  check_bool "completed" true tr.completed;
  (* Theorem 3.16: O(log n); allow a generous constant. *)
  check_bool "logarithmic rounds" true
    (match tr.completion_round with Some r -> r <= 40 | None -> false)

let test_sdgr_flood_informs_everyone () =
  let m = sdgr ~seed:5 () in
  let tr = Flood.run_streaming m in
  check_bool "full coverage at end" true
    (tr.final_informed >= tr.final_population - 1)

let test_trace_consistency () =
  let m = sdgr ~seed:7 () in
  let tr = Flood.run_streaming m in
  check_int "rounds matches log length" (Array.length tr.informed_per_round - 1) tr.rounds;
  check_int "same log lengths"
    (Array.length tr.informed_per_round)
    (Array.length tr.population_per_round);
  check_int "starts with single source" 1 tr.informed_per_round.(0);
  Array.iteri
    (fun i inf ->
      check_bool "informed <= population" true (inf <= tr.population_per_round.(i)))
    tr.informed_per_round;
  check_bool "peak >= final" true (tr.peak_informed >= tr.final_informed);
  check_bool "peak coverage in [0,1]" true (tr.peak_coverage >= 0. && tr.peak_coverage <= 1.)

let test_informed_can_shrink_only_by_one_per_round () =
  (* Streaming churn kills exactly one node per round, so |I| drops by at
     most 1 between consecutive rounds (before additions). *)
  let m = sdgr ~seed:11 () in
  let tr = Flood.run_streaming m in
  let ok = ref true in
  for i = 1 to Array.length tr.informed_per_round - 1 do
    if tr.informed_per_round.(i) < tr.informed_per_round.(i - 1) - 1 then ok := false
  done;
  check_bool "bounded shrink" true !ok

let test_sdg_flood_reaches_most_nodes () =
  (* Theorem 3.8 direction: with a healthy d, most nodes get informed
     within O(log n) rounds (not all: isolated nodes exist). *)
  let successes = ref 0 in
  for seed = 1 to 10 do
    let m = sdg ~seed ~n:400 ~d:8 () in
    let tr = Flood.run_streaming ~max_rounds:80 m in
    if tr.peak_coverage > 0.7 then incr successes
  done;
  check_bool "most floods reach most nodes" true (!successes >= 7)

let test_sdg_flood_can_stall () =
  (* Theorem 3.7 direction: with small d some floods die early. *)
  let stalled = ref 0 in
  for seed = 1 to 40 do
    let m = sdg ~seed ~n:200 ~d:1 () in
    let tr = Flood.run_streaming ~max_rounds:60 m in
    if tr.peak_informed <= 2 then incr stalled
  done;
  check_bool "some floods stall at <= d+1 nodes" true (!stalled >= 1)

let test_sdg_flood_does_not_complete_quickly () =
  (* Isolated nodes make full completion impossible within o(n) rounds. *)
  let m = sdg ~seed:13 ~n:500 ~d:3 () in
  let tr = Flood.run_streaming ~max_rounds:60 m in
  check_bool "no fast completion in SDG" true (not tr.completed)

let test_pdgr_discretized_completes () =
  let m = pdgr ~seed:17 () in
  let tr = Flood.run_poisson_discretized m in
  check_bool "completed" true tr.completed;
  check_bool "logarithmic rounds" true
    (match tr.completion_round with Some r -> r <= 60 | None -> false)

let test_pdgr_discretized_coverage () =
  let m = pdgr ~seed:19 () in
  let tr = Flood.run_poisson_discretized m in
  check_bool "peak coverage > 0.95" true (tr.peak_coverage > 0.95)

let test_pdg_flood_partial_coverage () =
  (* PDG (no regeneration): flooding should still reach a large constant
     fraction (Theorem 4.13) but full completion is blocked by isolated
     nodes. *)
  let m = Poisson_model.create ~rng:(Prng.create 23) ~n:400 ~d:10 ~regenerate:false () in
  Poisson_model.warm_up m;
  let tr = Flood.run_poisson_discretized ~max_rounds:60 m in
  check_bool "large coverage" true (tr.peak_coverage > 0.6)

let test_async_completes_on_pdgr () =
  let m = pdgr ~seed:29 ~n:200 () in
  let r = Flood.Async.run m in
  check_bool "completed" true r.completed;
  (match r.completion_time with
  | Some t -> check_bool "O(log n) time" true (t < 40.)
  | None -> Alcotest.fail "no completion time");
  check_bool "coverage 1" true (r.final_coverage > 0.999)

(* Async flooding chains to the edge and death hooks it finds (an
   [Event_log], say) and restores them afterwards; observing the run
   changes nothing, so the result equals that of an unobserved twin. *)
let test_async_keeps_installed_hooks () =
  let m = pdgr ~seed:29 ~n:200 () in
  let g = Poisson_model.graph m in
  let edges = ref 0 and deaths = ref 0 in
  let edge_hook ~src:_ ~dst:_ = incr edges in
  let death_hook _ = incr deaths in
  Churnet_graph.Dyngraph.set_edge_hook g (Some edge_hook);
  Churnet_graph.Dyngraph.set_death_hook g (Some death_hook);
  let round0 = Poisson_model.round m and pop0 = Poisson_model.population m in
  let r = Flood.Async.run m in
  check_bool "edge hook fired" true (!edges > 0);
  check_bool "death hook fired" true (!deaths > 0);
  (* Every jump is a birth or a death, so the deaths of the run follow
     from the jump count and the population change. *)
  let jumps = Poisson_model.round m - round0 in
  check_int "death hook saw every death"
    ((jumps - (Poisson_model.population m - pop0)) / 2)
    !deaths;
  check_bool "edge hook still installed" true
    (match Churnet_graph.Dyngraph.edge_hook g with Some f -> f == edge_hook | None -> false);
  check_bool "death hook still installed" true
    (match Churnet_graph.Dyngraph.death_hook g with
    | Some f -> f == death_hook
    | None -> false);
  check_bool "same result as an unobserved run" true
    (r = Flood.Async.run (pdgr ~seed:29 ~n:200 ()))

let test_sync_restores_hooks_on_raise () =
  (* The synchronous driver chains its own edge and death hooks around
     each round's churn.  A [step] that raises mid-flood must still leave
     the hooks installed before the flood in place. *)
  let m = sdgr ~seed:37 ~n:200 () in
  let g = Streaming_model.graph m in
  let edges = ref 0 and deaths = ref 0 in
  let edge_hook ~src:_ ~dst:_ = incr edges in
  let death_hook _ = incr deaths in
  Churnet_graph.Dyngraph.set_edge_hook g (Some edge_hook);
  Churnet_graph.Dyngraph.set_death_hook g (Some death_hook);
  let calls = ref 0 in
  (* The first call places the source; the third is round 2's churn. *)
  let step () =
    incr calls;
    if !calls = 3 then failwith "churn failed";
    Streaming_model.step m
  in
  (match
     Flood.run_custom ~graph:g ~step
       ~newest:(fun () -> Streaming_model.newest m)
       ~default_max_rounds:50 ()
   with
  | _ -> Alcotest.fail "the raising step did not propagate"
  | exception Failure _ -> ());
  check_bool "round 1 churned through the hooks" true (!edges > 0 && !deaths > 0);
  check_bool "edge hook restored" true
    (match Churnet_graph.Dyngraph.edge_hook g with Some f -> f == edge_hook | None -> false);
  check_bool "death hook restored" true
    (match Churnet_graph.Dyngraph.death_hook g with
    | Some f -> f == death_hook
    | None -> false)

let test_async_faster_or_equal_discretized () =
  (* Async flooding (Def 4.2) dominates discretized (Def 4.3): on the same
     parameters its completion time should not be dramatically larger. *)
  let async_times = ref [] and disc_rounds = ref [] in
  for seed = 31 to 35 do
    let m1 = pdgr ~seed ~n:200 () in
    let r = Flood.Async.run m1 in
    (match r.completion_time with Some t -> async_times := t :: !async_times | None -> ());
    let m2 = pdgr ~seed:(seed + 100) ~n:200 () in
    let tr = Flood.run_poisson_discretized m2 in
    match tr.completion_round with
    | Some r -> disc_rounds := float_of_int r :: !disc_rounds
    | None -> ()
  done;
  check_bool "both complete mostly" true
    (List.length !async_times >= 4 && List.length !disc_rounds >= 4);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  check_bool "async not slower than 2x discretized" true
    (mean !async_times <= 2. *. mean !disc_rounds +. 5.)

let test_async_extinction_possible_pdg_small_d () =
  (* With d = 1 and no regeneration, some async floods go extinct. *)
  let extinct = ref 0 in
  for seed = 1 to 15 do
    let m = Poisson_model.create ~rng:(Prng.create seed) ~n:150 ~d:1 ~regenerate:false () in
    Poisson_model.warm_up m;
    let r = Flood.Async.run ~max_time:80. m in
    if (not r.completed) && r.informed_total <= 6 then incr extinct
  done;
  check_bool "some extinctions" true (!extinct >= 1)

let test_coverage_at () =
  let m = sdgr ~seed:37 () in
  let tr = Flood.run_streaming m in
  let c0 = Flood.coverage_at tr 0 in
  check_bool "initial coverage tiny" true (c0 < 0.01);
  let cend = Flood.coverage_at tr 10_000 in
  check_bool "clamps to final" true (cend > 0.9)

let test_run_custom_static_semantics () =
  (* On a custom stepper that never churns after planting the source,
     flooding is exactly BFS layer expansion. *)
  let g = Churnet_graph.Dyngraph.create ~rng:(Prng.create 41) ~d:2 ~regenerate:false () in
  (* Build a path: b -> a, c -> b, ... each newborn connects to previous. *)
  let prev = ref (-1) in
  let first = ref true in
  let mk i =
    let targets = if !prev < 0 then [||] else [| !prev |] in
    prev := Churnet_graph.Dyngraph.add_node_with_targets g ~birth:i ~targets
  in
  for i = 1 to 6 do
    mk i
  done;
  let step () =
    if !first then begin
      first := false;
      mk 7 (* source joins the end of the path *)
    end
    (* afterwards: no churn at all *)
  in
  let tr =
    Flood.run_custom ~graph:g ~step ~newest:(fun () -> !prev) ~default_max_rounds:20 ()
  in
  check_bool "completed" true tr.completed;
  (* Source sits at one end of a 7-node path: needs exactly 6 rounds. *)
  check_int "path flooding time" 6 (Option.get tr.completion_round)

let suite =
  [
    ("SDGR completes fast (Thm 3.16)", `Quick, test_sdgr_flood_completes_fast);
    ("SDGR informs everyone", `Quick, test_sdgr_flood_informs_everyone);
    ("trace consistency", `Quick, test_trace_consistency);
    ("bounded shrink", `Quick, test_informed_can_shrink_only_by_one_per_round);
    ("SDG reaches most nodes (Thm 3.8)", `Slow, test_sdg_flood_reaches_most_nodes);
    ("SDG can stall (Thm 3.7)", `Slow, test_sdg_flood_can_stall);
    ("SDG no fast completion", `Quick, test_sdg_flood_does_not_complete_quickly);
    ("PDGR discretized completes (Thm 4.20)", `Quick, test_pdgr_discretized_completes);
    ("PDGR discretized coverage", `Quick, test_pdgr_discretized_coverage);
    ("PDG partial coverage (Thm 4.13)", `Quick, test_pdg_flood_partial_coverage);
    ("async completes on PDGR", `Quick, test_async_completes_on_pdgr);
    ("async keeps installed hooks", `Quick, test_async_keeps_installed_hooks);
    ("sync restores hooks on raise", `Quick, test_sync_restores_hooks_on_raise);
    ("async vs discretized", `Slow, test_async_faster_or_equal_discretized);
    ("async extinction possible", `Slow, test_async_extinction_possible_pdg_small_d);
    ("coverage_at", `Quick, test_coverage_at);
    ("run_custom = BFS on static path", `Quick, test_run_custom_static_semantics);
  ]

let test_max_rounds_respected () =
  let m = sdg ~seed:53 ~n:300 ~d:2 () in
  let tr = Flood.run_streaming ~max_rounds:7 m in
  check_bool "stops at budget" true (tr.rounds <= 7);
  check_int "log length" (tr.rounds + 1) (Array.length tr.informed_per_round)

let test_discretized_max_rounds () =
  let m = Poisson_model.create ~rng:(Prng.create 59) ~n:300 ~d:2 ~regenerate:false () in
  Poisson_model.warm_up m;
  let tr = Flood.run_poisson_discretized ~max_rounds:5 m in
  check_bool "stops at budget" true (tr.rounds <= 5)

let test_async_max_time_respected () =
  let m = Poisson_model.create ~rng:(Prng.create 61) ~n:200 ~d:1 ~regenerate:false () in
  Poisson_model.warm_up m;
  let t0 = Poisson_model.time m in
  let r = Flood.Async.run ~max_time:10. m in
  ignore r;
  (* The simulation clock cannot run far past the deadline. *)
  check_bool "clock bounded" true (Poisson_model.time m -. t0 <= 13.)

let test_streaming_population_constant_during_flood () =
  let m = sdgr ~seed:67 () in
  let tr = Flood.run_streaming m in
  Array.iter
    (fun pop -> check_int "population pinned at n" 300 pop)
    tr.population_per_round

(* An extinct trace must stop at the extinction round (not run on to the
   round budget), flag [extinct], and end with zero informed nodes. *)
let check_extinct_trace (tr : Flood.trace) =
  check_bool "not completed" true (not tr.completed);
  check_bool "no completion round" true (tr.completion_round = None);
  check_int "last log entry is 0 informed" 0
    tr.informed_per_round.(Array.length tr.informed_per_round - 1);
  match tr.extinction_round with
  | None -> Alcotest.fail "extinct trace without extinction_round"
  | Some r -> check_int "trace ends at extinction round" r tr.rounds

let test_streaming_extinction_trace () =
  (* SDG with d = 1: some floods die out entirely (Theorem 3.7 regime). *)
  let extinct = ref 0 in
  for seed = 1 to 40 do
    let m = sdg ~seed ~n:200 ~d:1 () in
    let tr = Flood.run_streaming ~max_rounds:400 m in
    if tr.extinct then begin
      incr extinct;
      check_extinct_trace tr;
      check_bool "stopped before budget" true (tr.rounds < 400)
    end
  done;
  check_bool "saw at least one extinction" true (!extinct >= 1)

let test_discretized_extinction_trace () =
  (* PDG with d = 1 and no regeneration: the flood stalls in the source's
     small component, whose members all die within O(n log) time (node
     lifetimes are ~n time units), so the informed set dies out. *)
  let extinct = ref 0 in
  for seed = 1 to 30 do
    let m = Poisson_model.create ~rng:(Prng.create seed) ~n:40 ~d:1 ~regenerate:false () in
    Poisson_model.warm_up m;
    let tr = Flood.run_poisson_discretized ~max_rounds:800 m in
    if tr.extinct then begin
      incr extinct;
      check_extinct_trace tr
    end
  done;
  check_bool "saw at least one extinction" true (!extinct >= 1)

let test_async_no_delivery_past_deadline () =
  (* The earliest possible delivery is at source time + 1, so with a
     deadline of 0.5 nobody besides the source can ever be informed. *)
  for seed = 1 to 5 do
    let m = pdgr ~seed ~n:150 () in
    let r = Flood.Async.run ~max_time:0.5 m in
    check_bool "not completed" true (not r.completed);
    check_int "only the source informed" 1 r.informed_total
  done

let test_coverage_nan_on_empty_population () =
  (* Regression: a mass-death step drives the population to 0 while the
     flood is in flight.  Coverage of an empty round must come back as a
     deliberate nan — never an inf or a junk ratio — and peak_coverage
     must skip the empty rounds instead of being poisoned by them. *)
  let g = Churnet_graph.Dyngraph.create ~rng:(Prng.create 71) ~d:2 ~regenerate:false () in
  let prev = ref (-1) in
  let mk i =
    let targets = if !prev < 0 then [||] else [| !prev |] in
    prev := Churnet_graph.Dyngraph.add_node_with_targets g ~birth:i ~targets
  in
  for i = 1 to 4 do
    mk i
  done;
  let round = ref 0 in
  let step () =
    incr round;
    if !round = 1 then mk 5 (* the source joins the end of the path *)
    else if !round = 3 then
      Array.iter (Churnet_graph.Dyngraph.kill g) (Churnet_graph.Dyngraph.alive_ids g)
  in
  let tr =
    Flood.run_custom ~graph:g ~step ~newest:(fun () -> !prev) ~default_max_rounds:20 ()
  in
  check_int "population emptied" 0 tr.final_population;
  check_int "no informed survivors" 0 tr.final_informed;
  check_bool "coverage of the empty round is nan" true
    (Float.is_nan (Flood.coverage_at tr tr.rounds));
  check_bool "peak coverage finite despite empty rounds" true
    (Float.is_finite tr.peak_coverage);
  check_bool "peak coverage in [0,1]" true (tr.peak_coverage >= 0. && tr.peak_coverage <= 1.)

let test_frontier_flood_equals_full_rescan () =
  (* The driver floods through the adaptive frontier kernel; the paper's
     definition is the full per-round rescan.  Replay the historical
     rescan loop (expand, churn, prune by a scan) on an equal-seeded
     model and demand the identical per-round trace, churn included.
     The driver is [run_streaming]'s call of [run_custom], observed
     through [newest], which it calls once after the source's round and
     once after every round's churn. *)
  let module Dyngraph = Churnet_graph.Dyngraph in
  let module Bitset = Churnet_util.Bitset in
  let module Intvec = Churnet_util.Intvec in
  let max_rounds = 150 in
  (* With [hooked], both graphs carry counting edge and death hooks: the
     driver must chain to both, so they see every event the reference's
     see, and must put them back after every round. *)
  let install ~hooked g =
    let edges = ref 0 and deaths = ref 0 in
    let edge_hook ~src:_ ~dst:_ = incr edges in
    let death_hook _ = incr deaths in
    if hooked then begin
      Dyngraph.set_edge_hook g (Some edge_hook);
      Dyngraph.set_death_hook g (Some death_hook)
    end;
    fun label ->
      if hooked then begin
        check_bool (label ^ ": edge hook restored") true
          (match Dyngraph.edge_hook g with Some f -> f == edge_hook | None -> false);
        check_bool (label ^ ": death hook restored") true
          (match Dyngraph.death_hook g with Some f -> f == death_hook | None -> false)
      end;
      (!edges, !deaths)
  in
  let reference m ~hooked =
    let g = Streaming_model.graph m in
    let counts = install ~hooked g in
    Streaming_model.step m;
    let src = Streaming_model.newest m in
    let informed = Bitset.create (src + 64) in
    Bitset.add informed src;
    let scratch = Intvec.create ~capacity:64 () in
    let log = ref [ (1, Dyngraph.alive_count g) ] in
    let seen = ref [ counts "reference" ] in
    let finished = ref false in
    let round = ref 0 in
    while (not !finished) && !round < max_rounds do
      incr round;
      Flood.expand_informed g informed scratch;
      Streaming_model.step m;
      let dead = ref [] in
      Bitset.iter (fun v -> if not (Dyngraph.is_alive g v) then dead := v :: !dead) informed;
      List.iter (Bitset.remove informed) !dead;
      let alive = Dyngraph.alive_count g in
      let inf = Bitset.cardinal informed in
      log := (inf, alive) :: !log;
      seen := counts "reference" :: !seen;
      let newborn = Streaming_model.newest m in
      let newborn_informed =
        newborn < Bitset.capacity informed && Bitset.mem informed newborn
      in
      let uninformed = alive - inf in
      if uninformed = 0 || (uninformed = 1 && not newborn_informed) then finished := true
      else if inf = 0 then finished := true
    done;
    (List.rev !log, List.rev !seen)
  in
  let driver m ~hooked ~label =
    let g = Streaming_model.graph m in
    let counts = install ~hooked g in
    let seen = ref [] in
    let tr =
      Flood.run_custom ~max_rounds ~graph:g
        ~step:(fun () -> Streaming_model.step m)
        ~newest:(fun () ->
          seen := counts (Printf.sprintf "%s round %d" label (List.length !seen)) :: !seen;
          Streaming_model.newest m)
        ~default_max_rounds:0 ()
    in
    let log =
      Array.to_list
        (Array.mapi (fun i inf -> (inf, tr.population_per_round.(i))) tr.informed_per_round)
    in
    (log, List.rev !seen)
  in
  let runs =
    [ (fun seed -> sdgr ~seed ~n:200 ()); (fun seed -> sdg ~seed ~n:200 ~d:3 ()) ]
  in
  List.iteri
    (fun kind make ->
      for seed = 101 to 103 do
        let hooked_cases = if seed = 101 then [ false; true ] else [ false ] in
        List.iter
          (fun hooked ->
            let label =
              Printf.sprintf "model %d seed %d%s" kind seed (if hooked then " hooked" else "")
            in
            let got, got_seen = driver (make seed) ~hooked ~label in
            let expected, expected_seen = reference (make seed) ~hooked in
            if got <> expected then
              Alcotest.failf "%s: frontier trace diverged from full rescan" label;
            check_bool (label ^ ": hooks saw the reference's events every round") true
              (got_seen = expected_seen);
            if hooked then
              check_bool (label ^ ": death hook fired during the rounds") true
                (List.exists (fun (_, deaths) -> deaths > 0) got_seen))
          hooked_cases
      done)
    runs

let test_discretized_frontier_equals_full_rescan () =
  (* The discretized driver scans only its frontier and finds the young
     uninformed nodes among the ids born during the interval.  The
     reference below is the historical round body: candidate edges from
     every informed node, and completion by a pass over every alive
     node.  On equal-seeded models the informed set must agree after
     every round, and so must the trace.  The lambda = 8 cases churn
     about 16 jumps per round: at lambda = 1 the Poisson clock stalls
     after the first inter-jump gap longer than one time unit (a known
     defect, see ROADMAP), so those floods soon run on a frozen graph
     and never need the frontier re-armed by a churn edge. *)
  let module Dyngraph = Churnet_graph.Dyngraph in
  let module Bitset = Churnet_util.Bitset in
  let module Intvec = Churnet_util.Intvec in
  let members bs =
    let acc = ref [] in
    Bitset.iter (fun v -> acc := v :: !acc) bs;
    List.rev !acc
  in
  let mem bs v = v < Bitset.capacity bs && Bitset.mem bs v in
  (* One rescan round; returns [(informed, alive, completed)]. *)
  let rescan_round m informed candidates =
    let g = Poisson_model.graph m in
    let d = Dyngraph.d g in
    Intvec.clear candidates;
    let push owner slot other learner =
      List.iter (Intvec.push candidates) [ owner; slot; other; learner ]
    in
    Bitset.iter
      (fun u ->
        if Dyngraph.is_alive g u then begin
          for i = 0 to d - 1 do
            let w = Dyngraph.out_slot g u i in
            if w >= 0 && not (mem informed w) then push u i w w
          done;
          Dyngraph.iter_in_neighbors g u (fun v ->
              if not (mem informed v) then
                for j = 0 to d - 1 do
                  if Dyngraph.out_slot g v j = u then push v j u v
                done)
        end)
      informed;
    let birth_round_start = Poisson_model.round m in
    Poisson_model.run_until_time m (Poisson_model.time m +. 1.0);
    for k = 0 to (Intvec.length candidates / 4) - 1 do
      let owner = Intvec.get candidates (4 * k) in
      let slot = Intvec.get candidates ((4 * k) + 1) in
      let other = Intvec.get candidates ((4 * k) + 2) in
      let learner = Intvec.get candidates ((4 * k) + 3) in
      if
        Dyngraph.is_alive g owner && Dyngraph.is_alive g other
        && Dyngraph.out_slot g owner slot = other
      then begin
        Bitset.ensure_capacity informed (learner + 1);
        Bitset.add informed learner
      end
    done;
    List.iter (Bitset.remove informed)
      (List.filter (fun v -> not (Dyngraph.is_alive g v)) (members informed));
    let all_covered = ref true in
    Dyngraph.iter_alive g (fun id ->
        if (not (mem informed id)) && Dyngraph.birth_of g id <= birth_round_start then
          all_covered := false);
    let inf = Bitset.cardinal informed in
    (inf, Dyngraph.alive_count g, !all_covered && inf > 1)
  in
  let max_rounds = 80 in
  let compare_case ~label ~hooked ~churny make =
    let m = make () and ref_m = make () in
    let g = Poisson_model.graph m and ref_g = Poisson_model.graph ref_m in
    (* With [hooked], both graphs carry counting edge and death hooks
       from the start: the frontier driver must chain to both, so they
       see every event the reference's see, and must put them back after
       the round. *)
    let seen = ref 0 and ref_seen = ref 0 in
    let deaths = ref 0 and ref_deaths = ref 0 in
    let hook ~src:_ ~dst:_ = incr seen in
    let death_hook _ = incr deaths in
    if hooked then begin
      Dyngraph.set_edge_hook g (Some hook);
      Dyngraph.set_edge_hook ref_g (Some (fun ~src:_ ~dst:_ -> incr ref_seen));
      Dyngraph.set_death_hook g (Some death_hook);
      Dyngraph.set_death_hook ref_g (Some (fun _ -> incr ref_deaths))
    end;
    let st = Flood.poisson_start ~max_rounds m in
    let src = Poisson_model.step_until_birth ref_m in
    let jumps0 = Poisson_model.round m in
    seen := 0;
    ref_seen := 0;
    deaths := 0;
    ref_deaths := 0;
    let informed = Bitset.create (src + 64) in
    Bitset.add informed src;
    let candidates = Intvec.create ~capacity:64 () in
    let log = ref [ (1, Dyngraph.alive_count ref_g) ] in
    let completion = ref None and extinction = ref None in
    let round = ref 0 in
    while !completion = None && !extinction = None && !round < max_rounds do
      incr round;
      Flood.poisson_round m st;
      let inf, alive, completed = rescan_round ref_m informed candidates in
      log := (inf, alive) :: !log;
      if completed then completion := Some !round
      else if inf = 0 then extinction := Some !round;
      if members (Flood.state_informed st) <> members informed then
        Alcotest.failf "%s: informed sets differ after round %d" label !round;
      List.iter
        (fun v ->
          if not (Dyngraph.is_alive g v) then
            Alcotest.failf "%s: dead node %d informed after round %d" label v !round)
        (members (Flood.state_informed st));
      if hooked then begin
        check_int (label ^ ": hook saw every edge event") !ref_seen !seen;
        check_int (label ^ ": death hook saw every death") !ref_deaths !deaths;
        check_bool (label ^ ": hook restored") true
          (match Dyngraph.edge_hook g with Some f -> f == hook | None -> false);
        check_bool (label ^ ": death hook restored") true
          (match Dyngraph.death_hook g with Some f -> f == death_hook | None -> false)
      end
    done;
    check_bool (label ^ ": driver finished with the reference") true
      (Flood.state_finished st);
    if hooked then begin
      check_bool (label ^ ": hook fired during the rounds") true (!seen > 0);
      check_bool (label ^ ": death hook fired during the rounds") true (!deaths > 0)
    end;
    let tr = Flood.finish_state st in
    if churny then
      check_bool (label ^ ": churn ran during the rounds") true
        (Poisson_model.round m - jumps0 >= 4 * tr.rounds);
    let expected = List.rev !log in
    check_bool (label ^ ": per-round trace") true
      (Array.to_list
         (Array.mapi (fun i inf -> (inf, tr.population_per_round.(i))) tr.informed_per_round)
      = expected);
    check_int (label ^ ": rounds") (List.length expected - 1) tr.rounds;
    check_bool (label ^ ": completion") true
      (tr.completed = (!completion <> None) && tr.completion_round = !completion);
    check_bool (label ^ ": extinction") true
      (tr.extinct = (!extinction <> None) && tr.extinction_round = !extinction)
  in
  List.iter
    (fun (regenerate, d, lambda) ->
      for seed = 201 to 203 do
        let make () =
          let m =
            Poisson_model.create ~rng:(Prng.create seed) ~lambda ~n:200 ~d ~regenerate ()
          in
          Poisson_model.warm_up m;
          m
        in
        let label =
          Printf.sprintf "%s d=%d lambda=%g seed %d"
            (if regenerate then "PDGR" else "PDG")
            d lambda seed
        in
        let churny = lambda > 1. in
        compare_case ~label ~hooked:false ~churny make;
        if regenerate && d = 6 && churny && seed = 201 then
          compare_case ~label:(label ^ " hooked") ~hooked:true ~churny make
      done)
    (List.concat_map
       (fun regenerate ->
         List.concat_map (fun d -> [ (regenerate, d, 1.); (regenerate, d, 8.) ]) [ 2; 6 ])
       [ false; true ])

let test_async_completion_time_from_completing_event () =
  (* completion_time is stamped by the event that completed coverage, so
     it is at least one delivery delay and never past the deadline. *)
  let max_time = 100. in
  for seed = 28 to 32 do
    let m = pdgr ~seed ~n:200 () in
    let r = Flood.Async.run ~max_time m in
    if r.completed then
      match r.completion_time with
      | None -> Alcotest.fail "completed without completion time"
      | Some t ->
          check_bool "at least one delivery delay" true (t >= 1.);
          check_bool "within deadline" true (t <= max_time)
  done

(* Async flooding chains its hooks to the caller's for the whole run.
   When the caller's edge hook raises during the churn, the exception
   must reach the caller with both of the caller's hooks back in place:
   left installed, the flood's hooks would close over a finished
   flood's set and heap.  The caller's hook raises only once the flood
   has chained it (the installed edge hook is then no longer itself),
   so the source's birth goes through. *)
let test_async_restores_hooks_on_raise () =
  let module Dyngraph = Churnet_graph.Dyngraph in
  let m = pdgr ~seed:29 ~n:200 () in
  let g = Poisson_model.graph m in
  let rec edge_hook ~src:_ ~dst:_ =
    match Dyngraph.edge_hook g with
    | Some f when f != edge_hook -> failwith "observer failed"
    | _ -> ()
  in
  let death_hook _ = () in
  Dyngraph.set_edge_hook g (Some edge_hook);
  Dyngraph.set_death_hook g (Some death_hook);
  (match Flood.Async.run m with
  | _ -> Alcotest.fail "the raising hook did not propagate"
  | exception Failure _ -> ());
  check_bool "edge hook restored" true
    (match Dyngraph.edge_hook g with Some f -> f == edge_hook | None -> false);
  check_bool "death hook restored" true
    (match Dyngraph.death_hook g with Some f -> f == death_hook | None -> false)

(* Every field of two traces equal, coverages bit for bit. *)
let same_trace (a : Flood.trace) (b : Flood.trace) =
  let bits = Int64.bits_of_float in
  a.rounds = b.rounds
  && a.informed_per_round = b.informed_per_round
  && a.population_per_round = b.population_per_round
  && a.completed = b.completed
  && a.completion_round = b.completion_round
  && a.peak_informed = b.peak_informed
  && Int64.equal (bits a.peak_coverage) (bits b.peak_coverage)
  && a.final_informed = b.final_informed
  && a.final_population = b.final_population
  && a.extinct = b.extinct
  && a.extinction_round = b.extinction_round

let model_state m =
  let w = Churnet_util.Codec.writer () in
  Models.encode w m;
  Churnet_util.Codec.contents w

(* One scratch shared by floods of all four models (both drivers), over
   random (model, n, d, seed) visited by increasing n and then back
   down, so buffers grown by a large flood serve smaller ones: each
   flood gives the trace a fresh scratch gives and leaves its model,
   generator included, in the same encoded state.  d = 1 and 2 make
   extinct and stalled floods; the round budgets are the sweep's. *)
let test_flood_scratch_reuse () =
  let pick = Prng.create 0x0933 in
  let cases =
    Array.init 24 (fun i ->
        ( List.nth Models.all_kinds (i mod 4),
          16 + Prng.int pick 1985,
          1 + Prng.int pick 8,
          Prng.int pick 1_000_000 ))
  in
  Array.sort (fun (_, a, _, _) (_, b, _, _) -> Int.compare a b) cases;
  let shared = Flood.scratch () in
  let flood scratch (kind, n, d, seed) =
    let m = Models.create ~rng:(Prng.create seed) kind ~n ~d in
    Models.warm_up_batch m;
    let ln = log (float_of_int n) in
    let max_rounds =
      if Models.regenerates kind then int_of_float (20. *. ln) + 40
      else int_of_float (6. *. ln) + 20
    in
    let tr = Models.flood ~scratch ~max_rounds m in
    (tr, model_state m)
  in
  Array.iter
    (fun ((kind, n, d, seed) as case) ->
      let a, state_a = flood shared case in
      let b, state_b = flood (Flood.scratch ()) case in
      if not (same_trace a b && String.equal state_a state_b) then
        Alcotest.failf "%s n=%d d=%d seed=%d differs on a shared scratch"
          (Models.kind_name kind) n d seed)
    (Array.append cases (Array.of_list (List.rev (Array.to_list cases))))

(* The words [f ()] allocates, and its result.  Minor plus major words,
   less those promoted, counts each word once.  The minor count of
   [Gc.counters] is not current to the word, so the words come from
   [Parallel.words]. *)
let words_of f =
  let promoted () =
    let _, p, _ = Gc.counters () in
    p
  in
  let minor0, major0 = Churnet_util.Parallel.words () and promoted0 = promoted () in
  let result = Sys.opaque_identity (f ()) in
  let minor1, major1 = Churnet_util.Parallel.words () and promoted1 = promoted () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0), result)

(* A flood on a scratch that an earlier flood of the same size has grown
   allocates per round only its log entries, the hook closures of its
   churn and the churn's own words; a fresh flood regrows both staging
   buffers and allocates about 13 k (PDGR) and 3.5 k (SDGR) words a
   round at this size.  The flood's informed and frontier bitsets,
   sized by ids, are its own: they are counted in the budget too. *)
let test_flood_allocation () =
  let n = 2000 and d = 6 and budget = 200. in
  List.iter
    (fun kind ->
      let warmed seed =
        let m = Models.create ~rng:(Prng.create seed) kind ~n ~d in
        Models.warm_up_batch m;
        m
      in
      let name = Models.kind_name kind in
      let m = warmed 0x0935 in
      let fresh, (tr : Flood.trace) = words_of (fun () -> Models.flood m) in
      check_bool
        (Printf.sprintf "%s fresh: %.0f words over %d rounds, above the budget" name fresh
           tr.rounds)
        true
        (fresh > budget *. float_of_int tr.rounds);
      let scratch = Flood.scratch () in
      ignore (Models.flood ~scratch (warmed 0x0934));
      let m = warmed 0x0935 in
      let words, (tr : Flood.trace) = words_of (fun () -> Models.flood ~scratch m) in
      let per_round = words /. float_of_int (max 1 tr.rounds) in
      check_bool
        (Printf.sprintf "%s on a warm scratch: %.0f words over %d rounds, %.0f a round <= %.0f"
           name words tr.rounds per_round budget)
        true (per_round <= budget))
    [ Models.PDGR; Models.SDGR ]

let suite =
  suite
  @ [
      ("max_rounds respected", `Quick, test_max_rounds_respected);
      ("discretized max_rounds", `Quick, test_discretized_max_rounds);
      ("async max_time", `Quick, test_async_max_time_respected);
      ("population constant during flood", `Quick, test_streaming_population_constant_during_flood);
      ("streaming extinction trace", `Slow, test_streaming_extinction_trace);
      ("discretized extinction trace", `Slow, test_discretized_extinction_trace);
      ("async: no delivery past deadline", `Quick, test_async_no_delivery_past_deadline);
      ("coverage nan on empty population", `Quick, test_coverage_nan_on_empty_population);
      ("frontier flood = full rescan", `Quick, test_frontier_flood_equals_full_rescan);
      ("discretized frontier round = full rescan", `Quick,
       test_discretized_frontier_equals_full_rescan);
      ("async: completion time from completing event", `Quick,
       test_async_completion_time_from_completing_event);
      ("async restores hooks on raise", `Quick, test_async_restores_hooks_on_raise);
      ("flood scratch reuse", `Quick, test_flood_scratch_reuse);
      ("flood allocation", `Quick, test_flood_allocation);
    ]
