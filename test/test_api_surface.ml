(* Exercises exported values that no experiment driver, CLI command or
   example calls.  churnet-lint's dead-export rule counts test
   references, so a reference here keeps an export alive.  The rule for
   adding one: a test references an export that no driver uses only
   when the export is a reference implementation that a test compares a
   fast path against (the full-rescan [Flood.expand_informed] below), or
   when perfbench calls it (the linter does not scan perfbench/).  An
   export with neither reason is deleted, not tested.  The older cases
   here (graph and event-log accessors, small utility entry points)
   predate the rule and are each a candidate for that deletion. *)

open Churnet_util
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Event_log = Churnet_graph.Event_log
module Flood = Churnet_core.Flood

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b

(* --- frontier kernel vs full rescan ---------------------------------- *)

(* On a static graph (no churn, so the frontier invariant is trivially
   maintained) the frontier hop must inform exactly the set the full
   rescan informs, round for round. *)
let test_frontier_matches_full_rescan () =
  let g = Dyngraph.create ~rng:(Prng.create 48) ~d:3 ~regenerate:false () in
  let n = 64 in
  for _ = 1 to n do
    ignore (Dyngraph.add_node g ~birth:0)
  done;
  let informed_a = Bitset.create n and informed_b = Bitset.create n in
  let frontier = Bitset.create n in
  let scratch = Intvec.create () in
  Bitset.add informed_a 0;
  Bitset.add informed_b 0;
  Bitset.add frontier 0;
  for round = 1 to 12 do
    Flood.expand_informed g informed_a scratch;
    Flood.expand_informed_frontier g informed_b frontier scratch;
    check_int
      (Printf.sprintf "round %d cardinal" round)
      (Bitset.cardinal informed_a)
      (Bitset.cardinal informed_b);
    for v = 0 to n - 1 do
      if Bitset.mem informed_a v <> Bitset.mem informed_b v then
        Alcotest.failf "round %d: node %d informed in one kernel only" round v
    done
  done;
  check_bool "flood made progress" true (Bitset.cardinal informed_a > 1)

(* --- graph-side accessors -------------------------------------------- *)

let test_graph_accessors () =
  let g = Dyngraph.create ~rng:(Prng.create 49) ~d:3 ~regenerate:false () in
  for _ = 1 to 10 do
    ignore (Dyngraph.add_node g ~birth:0)
  done;
  let raw = Dyngraph.out_slots_raw g 5 in
  check_int "raw slot array has d entries" 3 (Array.length raw);
  Array.iter
    (fun dst ->
      check_bool "raw slot is -1 or alive" true (dst = -1 || Dyngraph.is_alive g dst))
    raw;
  let snap = Dyngraph.snapshot g in
  let total_out =
    let acc = ref 0 in
    for i = 0 to Snapshot.n snap - 1 do
      acc := !acc + Snapshot.out_degree snap i
    done;
    !acc
  in
  check_bool "out-degrees bounded by d per node" true
    (total_out <= 3 * Snapshot.n snap)

let test_event_log_record () =
  let log = Event_log.create () in
  Event_log.record log (Event_log.Birth { id = 0; birth = 0; targets = [||] });
  Event_log.record log (Event_log.Death { id = 0 });
  check_int "two synthetic events recorded" 2 (Event_log.length log);
  match (Event_log.events log).(1) with
  | Event_log.Death { id } -> check_int "death id" 0 id
  | _ -> Alcotest.fail "expected the death event last"

(* --- utility odds and ends ------------------------------------------- *)

let test_codec_reader_introspection () =
  let r = Codec.reader "abc" in
  check_int "remaining before reads" 3 (Codec.remaining r);
  check_bool "not at end" false (Codec.at_end r);
  ignore (Codec.read_u8 r);
  ignore (Codec.read_u8 r);
  check_int "remaining mid-stream" 1 (Codec.remaining r);
  ignore (Codec.read_u8 r);
  check_bool "at end after consuming" true (Codec.at_end r);
  check_int "nothing remaining" 0 (Codec.remaining r)

let test_acc_interval () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.; 2.; 3.; 4.; 5. ];
  close "stderr of the mean" (Stats.Acc.stddev acc /. sqrt 5.)
    (Stats.Acc.stderr_mean acc);
  let lo, hi = Stats.Acc.ci95 acc in
  check_bool "ci95 brackets the mean" true
    (lo < Stats.Acc.mean acc && Stats.Acc.mean acc < hi)

let suite =
  [
    Alcotest.test_case "frontier kernel = full rescan" `Quick
      test_frontier_matches_full_rescan;
    Alcotest.test_case "graph accessors" `Quick test_graph_accessors;
    Alcotest.test_case "event log record" `Quick test_event_log_record;
    Alcotest.test_case "codec reader introspection" `Quick
      test_codec_reader_introspection;
    Alcotest.test_case "acc stderr and ci95" `Quick test_acc_interval;
  ]
