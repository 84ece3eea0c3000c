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
     rescan loop (expand, churn, prune) on an equal-seeded model and
     demand the identical per-round trace, churn included. *)
  let module Dyngraph = Churnet_graph.Dyngraph in
  let module Bitset = Churnet_util.Bitset in
  let module Intvec = Churnet_util.Intvec in
  let reference_trace m max_rounds =
    let g = Streaming_model.graph m in
    Streaming_model.step m;
    let src = Streaming_model.newest m in
    let informed = Bitset.create (src + 64) in
    Bitset.add informed src;
    let scratch = Intvec.create ~capacity:64 () in
    let log = ref [ (1, Dyngraph.alive_count g) ] in
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
      let newborn = Streaming_model.newest m in
      let newborn_informed =
        newborn < Bitset.capacity informed && Bitset.mem informed newborn
      in
      let uninformed = alive - inf in
      if uninformed = 0 || (uninformed = 1 && not newborn_informed) then finished := true
      else if inf = 0 then finished := true
    done;
    List.rev !log
  in
  let runs =
    [ (fun seed -> sdgr ~seed ~n:200 ()); (fun seed -> sdg ~seed ~n:200 ~d:3 ()) ]
  in
  List.iteri
    (fun kind make ->
      for seed = 101 to 103 do
        let tr = Flood.run_streaming ~max_rounds:150 (make seed) in
        let got =
          Array.to_list
            (Array.mapi
               (fun i inf -> (inf, tr.population_per_round.(i)))
               tr.informed_per_round)
        in
        let expected = reference_trace (make seed) 150 in
        if got <> expected then
          Alcotest.failf "model %d seed %d: frontier trace diverged from full rescan" kind
            seed
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
    (* With [hooked], both graphs carry a counting edge hook from the
       start: the frontier driver must chain to it, so it sees every
       edge the reference's sees, and must put it back after the round. *)
    let seen = ref 0 and ref_seen = ref 0 in
    let hook ~src:_ ~dst:_ = incr seen in
    if hooked then begin
      Dyngraph.set_edge_hook g (Some hook);
      Dyngraph.set_edge_hook ref_g (Some (fun ~src:_ ~dst:_ -> incr ref_seen))
    end;
    let st = Flood.poisson_start ~max_rounds m in
    let src = Poisson_model.step_until_birth ref_m in
    let jumps0 = Poisson_model.round m in
    seen := 0;
    ref_seen := 0;
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
      if hooked then begin
        check_int (label ^ ": hook saw every edge event") !ref_seen !seen;
        check_bool (label ^ ": hook restored") true
          (match Dyngraph.edge_hook g with Some f -> f == hook | None -> false)
      end
    done;
    check_bool (label ^ ": driver finished with the reference") true
      (Flood.state_finished st);
    if hooked then check_bool (label ^ ": hook fired during the rounds") true (!seen > 0);
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
    ]
