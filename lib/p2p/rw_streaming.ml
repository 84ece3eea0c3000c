module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type t = {
  n : int;
  d : int;
  walk_length : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  mutable round : int;
  birth_ids : int array;
  mutable newest : int;
  neigh : Intvec.t; (* scratch: the walk's current neighbourhood *)
  targets : int array; (* scratch: the newborn's d walk endpoints *)
}

let create ~rng ~n ~d () =
  if n < 2 then invalid_arg "Rw_streaming.create: n must be >= 2";
  let walk_length = 2 * int_of_float (Float.ceil (log (float_of_int n) /. log 2.)) in
  let graph_rng = Prng.split rng in
  {
    n;
    d;
    walk_length;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d ~regenerate:false ();
    round = 0;
    birth_ids = Array.make n (-1);
    newest = -1;
    neigh = Intvec.create ();
    targets = Array.make d (-1);
  }

let n t = t.n
let d t = t.d
let graph t = t.graph

(* One token walk: start uniform, take [walk_length] uniform-neighbor
   steps (restarting from a uniform node when stuck on a degree-0 node). *)
let walk t =
  if Dyngraph.alive_count t.graph = 0 then -1
  else begin
    let pos = ref (Dyngraph.random_alive t.graph) in
    for _ = 1 to t.walk_length do
      Dyngraph.neighbors_into t.graph !pos t.neigh;
      let k = Intvec.length t.neigh in
      if k = 0 then pos := Dyngraph.random_alive t.graph
      else pos := Intvec.get t.neigh (Prng.int t.rng k)
    done;
    !pos
  end

let step t =
  t.round <- t.round + 1;
  let slot = t.round mod t.n in
  let dying = t.birth_ids.(slot) in
  if dying >= 0 && Dyngraph.is_alive t.graph dying then Dyngraph.kill t.graph dying;
  for i = 0 to t.d - 1 do
    t.targets.(i) <- walk t
  done;
  let id = Dyngraph.add_node_with_targets t.graph ~birth:t.round ~targets:t.targets in
  t.birth_ids.(slot) <- id;
  t.newest <- id

let run t k =
  for _ = 1 to k do
    step t
  done

let warm_up t = run t (2 * t.n)

let newest t =
  if t.newest < 0 then invalid_arg "Rw_streaming.newest: no rounds executed";
  t.newest

let snapshot t = Dyngraph.snapshot t.graph

let flood ?max_rounds t =
  Churnet_core.Flood.run_custom ?max_rounds ~graph:t.graph
    ~step:(fun () -> step t)
    ~newest:(fun () -> newest t)
    ~default_max_rounds:(4 * t.n) ()
