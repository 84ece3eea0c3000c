module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type t = {
  n : int;
  d : int;
  cache_size : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  cache : int array; (* -1 = empty entry *)
  mutable round : int;
  birth_ids : int array;
  mutable newest : int;
  targets : int array; (* scratch: the newborn's d cache picks *)
}

(* Chance that a newborn takes a uniform cache entry's place. *)
let join_probability = 0.5

let create ~rng ?(cache_size = 32) ~n ~d () =
  if n < 2 then invalid_arg "Cache_protocol.create: n must be >= 2";
  let graph_rng = Prng.split rng in
  {
    n;
    d;
    cache_size;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d ~regenerate:false ();
    cache = Array.make cache_size (-1);
    round = 0;
    birth_ids = Array.make n (-1);
    newest = -1;
    targets = Array.make d (-1);
  }

let n t = t.n
let d t = t.d
let graph t = t.graph

let refresh_cache t =
  (* Replace dead (or empty) entries with uniform alive nodes. *)
  if Dyngraph.alive_count t.graph > 0 then
    for i = 0 to t.cache_size - 1 do
      let entry = t.cache.(i) in
      if entry < 0 || not (Dyngraph.is_alive t.graph entry) then
        t.cache.(i) <- Dyngraph.random_alive t.graph
    done

let step t =
  t.round <- t.round + 1;
  let slot = t.round mod t.n in
  let dying = t.birth_ids.(slot) in
  if dying >= 0 && Dyngraph.is_alive t.graph dying then Dyngraph.kill t.graph dying;
  refresh_cache t;
  for i = 0 to t.d - 1 do
    t.targets.(i) <- t.cache.(Prng.int t.rng t.cache_size)
  done;
  let id = Dyngraph.add_node_with_targets t.graph ~birth:t.round ~targets:t.targets in
  if Prng.bernoulli t.rng join_probability then
    t.cache.(Prng.int t.rng t.cache_size) <- id;
  t.birth_ids.(slot) <- id;
  t.newest <- id

let run t k =
  for _ = 1 to k do
    step t
  done

let warm_up t = run t (2 * t.n)

let newest t =
  if t.newest < 0 then invalid_arg "Cache_protocol.newest: no rounds executed";
  t.newest

let snapshot t = Dyngraph.snapshot t.graph

let flood ?max_rounds t =
  Churnet_core.Flood.run_custom ?max_rounds ~graph:t.graph
    ~step:(fun () -> step t)
    ~newest:(fun () -> newest t)
    ~default_max_rounds:(4 * t.n) ()
