module Dyngraph = Churnet_graph.Dyngraph

type policy = dying:Dyngraph.node_id -> birth:int -> Dyngraph.node_id

type t = {
  n : int;
  graph : Dyngraph.t;
  policy : policy;
  encodable : bool; (* SDG/SDGR, the only models [decode] can rebuild *)
  mutable round : int;
  (* id of the node born at round r is [birth_ids.(r mod n)]; the
     streaming schedule is deterministic so a circular buffer suffices. *)
  birth_ids : int array;
  mutable newest : int;
}

(* SDG/SDGR's edge policy: the newborn samples its d requests uniformly
   among the nodes alive after the death. *)
let uniform graph ~dying ~birth =
  if dying >= 0 then Dyngraph.kill graph dying;
  Dyngraph.add_node graph ~birth

let uniform_policy graph : policy = fun ~dying ~birth -> uniform graph ~dying ~birth

let check_n n = if n < 2 then invalid_arg "Streaming_model.create: n must be >= 2"

(* The birth ring is the graph's arena's when it has one. *)
let make ~n ~encodable graph policy =
  check_n n;
  let birth_ids =
    match Dyngraph.arena_of graph with
    | None -> Array.make n (-1)
    | Some a -> Dyngraph.arena_ints a n
  in
  { n; graph; policy; encodable; round = 0; birth_ids; newest = -1 }

(* [n] is checked before the graph takes over the arena ([d] by
   [Dyngraph.create] itself), so a refused create leaves the arena's
   model as it was. *)
let create ?arena ~rng ~n ~d ~regenerate () =
  check_n n;
  let graph = Dyngraph.create ?arena ~rng ~d ~regenerate () in
  make ~n ~encodable:true graph (uniform_policy graph)

let of_policy ~n graph policy = make ~n ~encodable:false graph policy

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
  let dying = if dying >= 0 && Dyngraph.is_alive t.graph dying then dying else -1 in
  let id = t.policy ~dying ~birth:t.round in
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
  if not t.encodable then invalid_arg "Streaming_model.encode: only SDG/SDGR can be encoded";
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
  (* Every recorded id is -1 (no birth yet) or one the arena has issued. *)
  let next_id = Dyngraph.peek_next_id graph in
  let bad_id id = id < -1 || id >= next_id in
  if
    n < 2 || d <> Dyngraph.d graph || round < 0 || Array.length birth_ids <> n
    || (newest = -1 && round > 0)
    || bad_id newest || Array.exists bad_id birth_ids
  then raise (Codec.Error "Streaming_model.decode: inconsistent fields");
  { n; graph; policy = uniform_policy graph; encodable = true; round; birth_ids; newest }
