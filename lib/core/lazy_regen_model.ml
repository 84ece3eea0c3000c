module Dyngraph = Churnet_graph.Dyngraph
module Intvec = Churnet_util.Intvec

type t = {
  d : int;
  period : float;
  base : Repair_churn.t; (* owing = nodes with slots awaiting the next tick *)
  mutable next_tick : float;
}

let create ~rng ~n ~d ~period () =
  if period <= 0. then invalid_arg "Lazy_regen_model.create: period must be positive";
  { d; period; base = Repair_churn.create ~rng ~n ~d; next_tick = period }

let graph t = Repair_churn.graph t.base

(* A uniform alive node other than [id] (up to 8 draws), or -1. *)
let pick_other g id =
  let cand = ref (-1) and tries = ref 8 in
  while !cand < 0 && !tries > 0 do
    decr tries;
    let c = Dyngraph.random_alive g in
    if c <> id then cand := c
  done;
  !cand

let repair t id =
  let g = graph t in
  if Dyngraph.is_alive g id then begin
    let progress = ref true in
    while Dyngraph.out_degree g id < t.d && !progress do
      if Dyngraph.alive_count g < 2 then progress := false
      else begin
        let cand = pick_other g id in
        if cand < 0 || not (Dyngraph.connect g ~src:id ~dst:cand) then progress := false
      end
    done
  end

(* Repair every broken node, last-visited entry first (see DESIGN.md §4). *)
let maintenance t =
  let pending = Repair_churn.queue t.base in
  Repair_churn.forgive_all t.base;
  while Intvec.length pending > 0 do
    repair t (Intvec.pop pending)
  done

let step t =
  if Repair_churn.jump t.base < 0 then
    ignore (Dyngraph.add_node (graph t) ~birth:(Repair_churn.round t.base));
  while Repair_churn.time t.base >= t.next_tick do
    maintenance t;
    (* lint: allow hot-path-alloc — boxes once per repair period, not per jump. *)
    t.next_tick <- t.next_tick +. t.period
  done

let advance_time t span = Repair_churn.advance_time t.base ~step:(fun () -> step t) span
let warm_up t = Repair_churn.warm_up t.base ~step:(fun () -> step t)
let snapshot t = Dyngraph.snapshot (graph t)
let flood ?scratch ?max_rounds t =
  Repair_churn.flood ?scratch ?max_rounds t.base ~step:(fun () -> step t)
let broken_slots t = Repair_churn.missing_slots t.base
