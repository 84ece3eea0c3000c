(** Adversarial burst churn on top of SDGR — a stress test in the spirit
    of the oblivious-adversary churn of Augustine et al. [2, 4] that the
    related-work section contrasts with the paper's random churn.

    The base process is the streaming model with edge regeneration
    (Definition 3.13).  Every [burst_every] rounds an oblivious adversary
    additionally removes [burst_size] uniformly random nodes and inserts
    the same number of newborns within the round, so the population stays
    n while the churn rate spikes to [burst_size] per round.  The X3
    experiment measures how far the O(log n) flooding of Theorem 3.16
    survives as the burst size grows towards n/polylog(n) — the regime
    where [2]'s protocol-based guarantees stop.

    Note on lifetimes: burst-inserted nodes are outside the deterministic
    streaming schedule, so they only leave the network through later
    bursts (which remove uniformly random nodes).  With periodic bursts
    this keeps the population exactly n while mixing deterministic and
    adversarial lifetimes — a strictly harsher regime than
    Definition 3.2. *)

val create :
  rng:Churnet_util.Prng.t ->
  n:int ->
  d:int ->
  burst_every:int ->
  burst_size:int ->
  unit ->
  Streaming_model.t
(** An edge policy of {!Streaming_model}: the uniform SDGR round, then a
    burst whenever the round is a multiple of [burst_every]. *)
