module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type t = { n : int; burst_every : int; burst_size : int; graph : Dyngraph.t }

(* A uniform alive node, redrawn (up to 8 times) while it is [newborn]. *)
let rec victim g ~newborn tries =
  let v = Dyngraph.random_alive g in
  if v <> newborn || tries = 0 then v else victim g ~newborn (tries - 1)

(* The adversary removes [burst_size] uniformly random alive nodes
   (excluding this round's newborn so a flooding source cannot be erased
   by the burst that coincides with its birth) and inserts the same
   number of fresh nodes, each creating its d uniform requests. *)
let fire_burst t ~newborn ~birth =
  let g = t.graph in
  for _ = 1 to t.burst_size do
    if Dyngraph.alive_count g > 2 then Dyngraph.kill g (victim g ~newborn 8)
  done;
  for _ = 1 to t.burst_size do
    ignore (Dyngraph.add_node g ~birth)
  done

let policy t ~dying ~birth =
  let g = t.graph in
  if dying >= 0 then Dyngraph.kill g dying;
  let newborn = Dyngraph.add_node g ~birth in
  (* A node killed early by a burst leaves a hole in the deterministic
     death schedule (its scheduled round kills nobody); compensate with a
     uniformly random death so the population stays pinned at n. *)
  while Dyngraph.alive_count g > t.n do
    Dyngraph.kill g (victim g ~newborn 8)
  done;
  if birth mod t.burst_every = 0 && t.burst_size > 0 then fire_burst t ~newborn ~birth;
  newborn

let create ~rng ~n ~d ~burst_every ~burst_size () =
  if burst_every < 1 then invalid_arg "Burst_model.create: burst_every must be >= 1";
  if burst_size < 0 || burst_size >= n then
    invalid_arg "Burst_model.create: burst_size must be in [0, n)";
  let graph = Dyngraph.create ~rng:(Prng.split rng) ~d ~regenerate:true () in
  let t = { n; burst_every; burst_size; graph } in
  Streaming_model.of_policy ~n graph (fun ~dying ~birth -> policy t ~dying ~birth)
