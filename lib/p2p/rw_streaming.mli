(** A random-walk-token attachment protocol in the streaming churn model,
    in the spirit of Cooper, Dyer and Greenhill [8]: instead of uniform
    sampling, a joining node connects to the endpoints of [d] independent
    random walks (approximating well-mixed ID tokens).  The resulting
    attachment is degree-biased, which is exactly what keeps the topology
    connected without edge regeneration — the algorithmic contrast the
    paper's related-work section draws. *)

val create :
  rng:Churnet_util.Prng.t -> n:int -> d:int -> unit -> Churnet_core.Streaming_model.t
(** An edge policy of {!Churnet_core.Streaming_model}.  Each walk takes
    [2 * ceil(log2 n)] steps — enough mixing on a low-diameter graph. *)
