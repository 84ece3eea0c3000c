(** The onion-skin process of Section 3.1.2 — the paper's main proof
    gadget for Theorem 3.8 (flooding informs a large fraction of an SDG
    in O(log n) rounds).

    The process restricts flooding on the snapshot G_{t0} to alternating
    paths: young nodes (age < n/2) connect to old nodes (age in
    [n/2, n - log n]) only, each node's d birth requests being split into
    type-A requests (indices 1..d/2, used young -> newly-reached old) and
    type-B requests (indices d/2+1..d, used young -> previously-reached
    old).  Phase k adds the layer of young nodes whose type-B request hits
    O_{k-1} - O_{k-2} and then the layer of old nodes hit by a type-A
    request of those young nodes — exactly the iteration analyzed by
    Claim 3.10, which predicts multiplicative layer growth ~ d/20.

    Because the process only reveals each request once (deferred
    decisions) and streaming churn is deterministic, it can be simulated
    from ages alone: a node of age a sampled its requests uniformly over
    the nodes of age a+1 .. a+n-1 at time t0 (those still alive have age
    < n).

    {!run} and {!run_poisson} are one engine: the same phase loop, layer
    bookkeeping and growth factors, parameterised by the class bounds,
    the success target, the request sampler and an optional death coin.
    Each draws the source's d requests, then every young node's d in
    ascending order, and keeps only the targets that land in the old
    class, since no other request is ever read; {!run_poisson} also
    draws its death coins in the phase loop, in first-contact order.

    A run's buffers (the old-class targets, their row offsets, the
    per-node class and the current layers) live in a {!scratch}.  Trials
    that share one, such as the trials of one
    {!Churnet_util.Parallel.replicate_with} worker, allocate them once
    and grow them by need; every run resets what it reads, so results do
    not depend on what the scratch held. *)

type scratch
(** Reusable buffers for {!run} and {!run_poisson}.  Not safe to share
    between domains. *)

val scratch : unit -> scratch
(** An empty scratch; it allocates nothing big until a run needs it. *)

type result = {
  phases : int;  (** phases executed before the layers stopped growing *)
  y_layer_sizes : int array;  (** |Y_k - Y_{k-1}| per phase *)
  o_layer_sizes : int array;  (** |O_k - O_{k-1}| per phase, starting with |O_0| *)
  total_young : int;  (** |Y_final| *)
  total_old : int;  (** |O_final| *)
  reached_target : bool;  (** both totals reached n/d (Lemma 3.9's goal) *)
  growth_factors : float array;  (** per-phase layer growth ratios *)
}

val run : ?scratch:scratch -> rng:Churnet_util.Prng.t -> n:int -> d:int -> unit -> result
(** Simulate one realization of the onion-skin process on a fresh SDG
    age structure with parameters [n] (population) and [d] (requests,
    must be even and >= 2).  Lemma 3.9 predicts {!result.reached_target}
    with probability at least [1 - 4 e^{-d/100}] for d >= 200;
    empirically the bound is extremely loose and already holds for much
    smaller d.  [scratch] defaults to a fresh one. *)

val run_poisson :
  ?scratch:scratch -> rng:Churnet_util.Prng.t -> n:int -> d:int -> unit -> result
(** The {e extended} onion-skin process of Section 7.2.4 (the Poisson
    counterpart used to prove Theorem 4.13): the population is split into
    the younger and older half by rank at time t0; requests are uniform
    over the whole population (the paper's near-uniform 1/Theta(n)
    destination probability); and — the key difference — every newly
    informed node immediately dies with probability [ln n / n], modelling
    the worst case where a node that will die within the flooding window
    dies the moment it is reached, informing nobody.  The target for
    {!result.reached_target} is m/20 informed in each class (Lemma 7.8).
    Theorem 4.13 predicts success with probability
    [1 - 2 e^{-d/576} - o(1)] for d >= 1152 — vacuous below d ~ 400;
    empirically the process succeeds from d of a few dozen.  [scratch]
    as in {!run}. *)
