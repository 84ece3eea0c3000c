module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type t = {
  n : int;
  d : int;
  period : float;
  rng : Prng.t;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  broken : (int, unit) Hashtbl.t; (* nodes with empty slots awaiting repair *)
  mutable next_tick : float;
  orphans : Intvec.t; (* scratch: a victim's in-neighbours *)
  pending : Intvec.t; (* scratch: the repair pass's queue *)
}

let create ~rng ~n ~d ~period () =
  if period <= 0. then invalid_arg "Lazy_regen_model.create: period must be positive";
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  {
    n;
    d;
    period;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d ~regenerate:false ();
    churn = Poisson_churn.create ~rng:churn_rng ~n ();
    broken = Hashtbl.create 256;
    next_tick = period;
    orphans = Intvec.create ();
    pending = Intvec.create ();
  }

let n t = t.n
let d t = t.d
let period t = t.period
let graph t = t.graph
let time t = Poisson_churn.time t.churn

(* A uniform alive node other than [id] (up to 8 draws), or -1. *)
let pick_other t id =
  let cand = ref (-1) and tries = ref 8 in
  while !cand < 0 && !tries > 0 do
    decr tries;
    let c = Dyngraph.random_alive t.graph in
    if c <> id then cand := c
  done;
  !cand

let repair t id =
  if Dyngraph.is_alive t.graph id then begin
    let progress = ref true in
    while Dyngraph.out_degree t.graph id < t.d && !progress do
      if Dyngraph.alive_count t.graph < 2 then progress := false
      else begin
        let cand = pick_other t id in
        if cand < 0 || not (Dyngraph.connect t.graph ~src:id ~dst:cand) then progress := false
      end
    done
  end

(* Repair every broken node, last-visited entry first (see DESIGN.md §4). *)
let maintenance t =
  Intvec.clear t.pending;
  (* lint: allow no-hashtbl-order — repair order follows the table's
     insertion history, itself a pure function of the seed; replays are
     bit-identical. *)
  Hashtbl.iter (fun id () -> Intvec.push t.pending id) t.broken;
  Hashtbl.reset t.broken;
  for i = Intvec.length t.pending - 1 downto 0 do
    repair t (Intvec.get t.pending i)
  done

let step t =
  let alive = Dyngraph.alive_count t.graph in
  if Poisson_churn.decide_birth t.churn ~alive then
    ignore (Dyngraph.add_node t.graph ~birth:(Poisson_churn.round t.churn))
  else begin
    let victim = Dyngraph.random_alive t.graph in
    Dyngraph.in_neighbors_into t.graph victim t.orphans;
    Dyngraph.kill t.graph victim;
    Hashtbl.remove t.broken victim;
    for i = 0 to Intvec.length t.orphans - 1 do
      let u = Intvec.get t.orphans i in
      if Dyngraph.is_alive t.graph u then Hashtbl.replace t.broken u ()
    done
  end;
  while time t >= t.next_tick do
    maintenance t;
    (* lint: allow hot-path-alloc — boxes once per repair period, not per jump. *)
    t.next_tick <- t.next_tick +. t.period
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

let broken_slots t =
  let acc = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun id () ->
      if Dyngraph.is_alive t.graph id then
        acc := !acc + (t.d - Dyngraph.out_degree t.graph id))
    t.broken;
  !acc
