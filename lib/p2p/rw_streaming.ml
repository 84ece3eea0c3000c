module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type t = {
  d : int;
  walk_length : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  neigh : Intvec.t; (* scratch: the walk's current neighbourhood *)
  targets : int array; (* scratch: the newborn's d walk endpoints *)
}

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

let policy t ~dying ~birth =
  if dying >= 0 then Dyngraph.kill t.graph dying;
  for i = 0 to t.d - 1 do
    t.targets.(i) <- walk t
  done;
  Dyngraph.add_node_with_targets t.graph ~birth ~targets:t.targets

let create ~rng ~n ~d () =
  if n < 2 then invalid_arg "Rw_streaming.create: n must be >= 2";
  let walk_length = 2 * int_of_float (Float.ceil (log (float_of_int n) /. log 2.)) in
  let graph = Dyngraph.create ~rng:(Prng.split rng) ~d ~regenerate:false () in
  let t =
    { d; walk_length; rng; graph; neigh = Intvec.create (); targets = Array.make d (-1) }
  in
  Churnet_core.Streaming_model.of_policy ~n graph (fun ~dying ~birth -> policy t ~dying ~birth)
