(** A centralized-cache attachment protocol in the streaming churn model,
    in the spirit of Pandurangan, Raghavan and Upfal [23]: the system
    maintains a small cache of node addresses; a joining node connects to
    [d] nodes sampled from the cache, joins the cache with a fixed
    probability, and dead cache entries are replaced by uniform alive
    nodes.  The cache keeps the attachment targets young, which maintains
    connectivity and low diameter with O(1) shared state — the classic
    algorithmic alternative the paper contrasts with its algorithm-free
    models. *)

val create :
  rng:Churnet_util.Prng.t ->
  ?cache_size:int ->
  n:int ->
  d:int ->
  unit ->
  Churnet_core.Streaming_model.t
(** An edge policy of {!Churnet_core.Streaming_model}.  [cache_size]
    defaults to 32; a newborn joins the cache with probability 0.5. *)
