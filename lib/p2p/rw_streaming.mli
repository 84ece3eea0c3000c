(** A random-walk-token attachment protocol in the streaming churn model,
    in the spirit of Cooper, Dyer and Greenhill [8]: instead of uniform
    sampling, a joining node connects to the endpoints of [d] independent
    random walks (approximating well-mixed ID tokens).  The resulting
    attachment is degree-biased, which is exactly what keeps the topology
    connected without edge regeneration — the algorithmic contrast the
    paper's related-work section draws. *)

type t

val create : rng:Churnet_util.Prng.t -> n:int -> d:int -> unit -> t
(** Each walk takes [2 * ceil(log2 n)] steps — enough mixing on a
    low-diameter graph. *)

val n : t -> int
val d : t -> int
val graph : t -> Churnet_graph.Dyngraph.t
val step : t -> unit
val run : t -> int -> unit
val warm_up : t -> unit
val newest : t -> Churnet_graph.Dyngraph.node_id
val snapshot : t -> Churnet_graph.Snapshot.t
val flood : ?max_rounds:int -> t -> Churnet_core.Flood.trace
