module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type t = {
  n : int;
  d : int;
  cap : int;
  retries : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  deficient : (int, unit) Hashtbl.t; (* nodes with empty slots to repair *)
  orphans : Intvec.t; (* scratch: a victim's in-neighbours *)
  pending : Intvec.t; (* scratch: the repair pass's queue *)
}

let create ~rng ?(retries = 16) ~n ~d ~cap () =
  if cap < 1 then invalid_arg "Capped_model.create: cap must be >= 1";
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  {
    n;
    d;
    cap;
    retries;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d ~regenerate:false ();
    churn = Poisson_churn.create ~rng:churn_rng ~n ();
    deficient = Hashtbl.create 256;
    orphans = Intvec.create ();
    pending = Intvec.create ();
  }

let n t = t.n
let d t = t.d
let cap t = t.cap
let graph t = t.graph
let time t = Poisson_churn.time t.churn

(* A uniform alive candidate below the in-degree cap (up to [retries]
   draws), or -1. *)
let sample_below_cap t ~self =
  if Dyngraph.alive_count t.graph < 2 then -1
  else begin
    let cand = ref (-1) and tries = ref t.retries in
    while !cand < 0 && !tries > 0 do
      decr tries;
      let c = Dyngraph.random_alive t.graph in
      if c <> self && Dyngraph.in_degree t.graph c < t.cap then cand := c
    done;
    !cand
  end

let try_fill t id =
  if Dyngraph.is_alive t.graph id then begin
    let progress = ref true in
    while Dyngraph.out_degree t.graph id < t.d && !progress do
      let cand = sample_below_cap t ~self:id in
      if cand < 0 || not (Dyngraph.connect t.graph ~src:id ~dst:cand) then progress := false
    done;
    if Dyngraph.out_degree t.graph id < t.d then Hashtbl.replace t.deficient id ()
    else Hashtbl.remove t.deficient id
  end
  else Hashtbl.remove t.deficient id

let step t =
  let alive = Dyngraph.alive_count t.graph in
  if Poisson_churn.decide_birth t.churn ~alive then begin
    let id =
      Dyngraph.add_node_with_targets t.graph ~birth:(Poisson_churn.round t.churn) ~targets:[||]
    in
    Hashtbl.replace t.deficient id ()
  end
  else begin
    let victim = Dyngraph.random_alive t.graph in
    Dyngraph.in_neighbors_into t.graph victim t.orphans;
    Dyngraph.kill t.graph victim;
    Hashtbl.remove t.deficient victim;
    for i = 0 to Intvec.length t.orphans - 1 do
      let u = Intvec.get t.orphans i in
      if Dyngraph.is_alive t.graph u then Hashtbl.replace t.deficient u ()
    done
  end;
  (* Repair pass, last-visited entry first (see DESIGN.md §4). *)
  Intvec.clear t.pending;
  (* lint: allow no-hashtbl-order — repair order follows the table's
     insertion history, itself a pure function of the seed; replays are
     bit-identical. *)
  Hashtbl.iter (fun id () -> Intvec.push t.pending id) t.deficient;
  for i = Intvec.length t.pending - 1 downto 0 do
    try_fill t (Intvec.get t.pending i)
  done

let advance_time t span =
  let deadline = time t +. span in
  while time t < deadline do
    step t
  done

let warm_up t =
  for _ = 1 to 12 * t.n do
    step t
  done

let snapshot t = Dyngraph.snapshot t.graph

(* Ids are monotone with birth, so the arena's birth-list tail is the
   youngest alive node — O(1), no cached id to invalidate. *)
let newest t = Dyngraph.newest_alive t.graph

let flood ?max_rounds t =
  let default = int_of_float (8. *. log (float_of_int t.n)) + 60 in
  let rec until_birth () =
    let before = Dyngraph.alive_count t.graph in
    step t;
    if Dyngraph.alive_count t.graph <= before then until_birth ()
  in
  let first = ref true in
  Flood.run_custom ?max_rounds ~graph:t.graph
    ~step:(fun () ->
      if !first then begin
        first := false;
        until_birth ()
      end
      else advance_time t 1.0)
    ~newest:(fun () -> match newest t with Some id -> id | None -> -1)
    ~default_max_rounds:default ()

let max_in_degree t =
  let worst = ref 0 in
  Dyngraph.iter_alive t.graph (fun id ->
      let x = Dyngraph.in_degree t.graph id in
      if x > !worst then worst := x);
  !worst

let mean_out_degree t =
  let acc = ref 0 and count = ref 0 in
  Dyngraph.iter_alive t.graph (fun id ->
      acc := !acc + Dyngraph.out_degree t.graph id;
      incr count);
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count

let parked_slots t =
  let acc = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun id () ->
      if Dyngraph.is_alive t.graph id then
        acc := !acc + (t.d - Dyngraph.out_degree t.graph id))
    t.deficient;
  !acc
