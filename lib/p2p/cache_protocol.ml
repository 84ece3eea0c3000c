module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type t = {
  d : int;
  cache_size : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  cache : int array; (* -1 = empty entry *)
  targets : int array; (* scratch: the newborn's d cache picks *)
}

(* Chance that a newborn takes a uniform cache entry's place. *)
let join_probability = 0.5

let refresh_cache t =
  (* Replace dead (or empty) entries with uniform alive nodes. *)
  if Dyngraph.alive_count t.graph > 0 then
    for i = 0 to t.cache_size - 1 do
      let entry = t.cache.(i) in
      if entry < 0 || not (Dyngraph.is_alive t.graph entry) then
        t.cache.(i) <- Dyngraph.random_alive t.graph
    done

let policy t ~dying ~birth =
  if dying >= 0 then Dyngraph.kill t.graph dying;
  refresh_cache t;
  for i = 0 to t.d - 1 do
    t.targets.(i) <- t.cache.(Prng.int t.rng t.cache_size)
  done;
  let id = Dyngraph.add_node_with_targets t.graph ~birth ~targets:t.targets in
  if Prng.bernoulli t.rng join_probability then
    t.cache.(Prng.int t.rng t.cache_size) <- id;
  id

let create ~rng ?(cache_size = 32) ~n ~d () =
  if n < 2 then invalid_arg "Cache_protocol.create: n must be >= 2";
  let graph = Dyngraph.create ~rng:(Prng.split rng) ~d ~regenerate:false () in
  let t =
    {
      d;
      cache_size;
      rng;
      graph;
      cache = Array.make cache_size (-1);
      targets = Array.make d (-1);
    }
  in
  Churnet_core.Streaming_model.of_policy ~n graph (fun ~dying ~birth -> policy t ~dying ~birth)
