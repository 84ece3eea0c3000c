module Dyngraph = Churnet_graph.Dyngraph
module Intvec = Churnet_util.Intvec

type t = {
  d : int;
  cap : int;
  retries : int;
  base : Repair_churn.t; (* owing = nodes with parked slots *)
}

let create ~rng ?(retries = 16) ~n ~d ~cap () =
  if cap < 1 then invalid_arg "Capped_model.create: cap must be >= 1";
  { d; cap; retries; base = Repair_churn.create ~rng ~n ~d }

let graph t = Repair_churn.graph t.base

(* A uniform alive candidate below the in-degree cap (up to [retries]
   draws), or -1. *)
let sample_below_cap t ~self =
  let g = graph t in
  if Dyngraph.alive_count g < 2 then -1
  else begin
    let cand = ref (-1) and tries = ref t.retries in
    while !cand < 0 && !tries > 0 do
      decr tries;
      let c = Dyngraph.random_alive g in
      if c <> self && Dyngraph.in_degree_below g c t.cap then cand := c
    done;
    !cand
  end

let try_fill t id =
  let g = graph t in
  if Dyngraph.is_alive g id then begin
    let progress = ref true and out = ref (Dyngraph.out_degree g id) in
    while !out < t.d && !progress do
      let cand = sample_below_cap t ~self:id in
      if cand >= 0 && Dyngraph.connect g ~src:id ~dst:cand then incr out else progress := false
    done;
    if !out < t.d then Repair_churn.owe t.base id
    else Repair_churn.settle t.base id
  end
  else Repair_churn.settle t.base id

let step t =
  if Repair_churn.jump t.base < 0 then
    Repair_churn.owe t.base
      (Dyngraph.add_node_with_targets (graph t) ~birth:(Repair_churn.round t.base) ~targets:[||]);
  (* Repair pass, last-visited entry first (see DESIGN.md §4). *)
  let pending = Repair_churn.queue t.base in
  while Intvec.length pending > 0 do
    try_fill t (Intvec.pop pending)
  done

let warm_up t = Repair_churn.warm_up t.base ~step:(fun () -> step t)
let snapshot t = Dyngraph.snapshot (graph t)
let flood ?scratch ?max_rounds t =
  Repair_churn.flood ?scratch ?max_rounds t.base ~step:(fun () -> step t)

let max_in_degree t =
  let g = graph t and worst = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      let x = Dyngraph.in_degree g id in
      if x > !worst then worst := x);
  !worst

let mean_out_degree t = Repair_churn.mean_out_degree t.base
let parked_slots t = Repair_churn.missing_slots t.base
