module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type t = {
  n : int;
  graph : Dyngraph.t;
  mutable round : int;
  (* id of the node born at round r is [birth_ids.(r mod (n+1))]; the
     streaming schedule is deterministic so a circular buffer suffices. *)
  birth_ids : int array;
  mutable newest : int;
}

let create ~rng ~n ~d ~regenerate () =
  if n < 2 then invalid_arg "Streaming_model.create: n must be >= 2";
  let graph = Dyngraph.create ~rng ~d ~regenerate () in
  { n; graph; round = 0; birth_ids = Array.make n (-1); newest = -1 }

let n t = t.n
let d t = Dyngraph.d t.graph
let regenerates t = Dyngraph.regenerate t.graph
let round t = t.round
let graph t = t.graph

let step t =
  t.round <- t.round + 1;
  (* Death of the node born n rounds ago happens first, so the newborn
     samples among N_t = nodes born in (t - n, t). *)
  (* The circular buffer has period n: the slot about to be overwritten
     holds the node born exactly n rounds ago, which dies now. *)
  let slot = t.round mod t.n in
  let dying = t.birth_ids.(slot) in
  if dying >= 0 && Dyngraph.is_alive t.graph dying then Dyngraph.kill t.graph dying;
  let id = Dyngraph.add_node t.graph ~birth:t.round in
  t.birth_ids.(slot) <- id;
  t.newest <- id

let run t k =
  for _ = 1 to k do
    step t
  done

let warm_up t = run t (2 * t.n)

let newest t =
  if t.newest < 0 then invalid_arg "Streaming_model.newest: no rounds executed";
  t.newest

let age_of t id = t.round - Dyngraph.birth_of t.graph id
let snapshot t = Dyngraph.snapshot t.graph

module Codec = Churnet_util.Codec

let encode w t =
  Codec.varint w t.n;
  Codec.varint w (d t);
  Dyngraph.encode w t.graph;
  Codec.varint w t.round;
  Codec.int_array w t.birth_ids;
  Codec.varint w t.newest

let decode r =
  let n = Codec.read_varint r in
  let d = Codec.read_varint r in
  let graph = Dyngraph.decode r in
  let round = Codec.read_varint r in
  let birth_ids = Codec.read_int_array r in
  let newest = Codec.read_varint r in
  if n < 2 || d <> Dyngraph.d graph || round < 0 || Array.length birth_ids <> n
  then raise (Codec.Error "Streaming_model.decode: inconsistent fields");
  { n; graph; round; birth_ids; newest }
