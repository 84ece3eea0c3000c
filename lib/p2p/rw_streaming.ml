module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type t = {
  d : int;
  walk_length : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  targets : int array; (* scratch: the newborn's d walk endpoints *)
}

(* One token walk: start uniform, take [walk_length] uniform-neighbor
   steps (restarting from a uniform node when stuck on a degree-0 node). *)
let walk t =
  if Dyngraph.alive_count t.graph = 0 then -1
  else begin
    let pos = ref (Dyngraph.random_alive t.graph) in
    for _ = 1 to t.walk_length do
      let next = Dyngraph.random_neighbor t.graph !pos t.rng in
      pos := if next < 0 then Dyngraph.random_alive t.graph else next
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
  let t = { d; walk_length; rng; graph; targets = Array.make d (-1) } in
  Churnet_core.Streaming_model.of_policy ~n graph (fun ~dying ~birth -> policy t ~dying ~birth)
