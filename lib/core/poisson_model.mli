(** The Poisson dynamic graphs of Section 4: PDG (Definition 4.9,
    [regenerate = false]) and PDGR (Definition 4.14, [regenerate = true]).

    Node churn follows Definition 4.1 with lambda = 1 and mu = 1/n,
    simulated through the jump chain of Definition 4.5: each step is a
    birth with probability lambda/(N mu + lambda), otherwise the death of
    a uniformly random alive node; inter-event times are
    Exp(N mu + lambda). *)

type t

val create :
  ?arena:Churnet_graph.Dyngraph.arena ->
  rng:Churnet_util.Prng.t -> ?lambda:float -> n:int -> d:int -> regenerate:bool -> unit -> t
(** [lambda] (default 1) is the arrival rate; the death rate is lambda/n
    so the stationary population stays [n].  Message transmission still
    takes one unit of continuous time, so larger [lambda] means more
    churn per flooding round — the S1 experiment measures how behaviour
    rescales.

    Raises [Invalid_argument] if [n < 2], [d <= 0] or [lambda <= 0],
    before anything is built.  With [~arena] the graph and the batch
    buffers are built on the arena's memory, retiring the model built
    on it before (see {!Churnet_graph.Dyngraph.arena}); the model
    equals one made without an arena in every draw and every {!encode}
    byte. *)

val n : t -> int
val d : t -> int
val regenerates : t -> bool
val graph : t -> Churnet_graph.Dyngraph.t
val round : t -> int
(** Jump-chain index r of T_r. *)

val time : t -> float
(** Continuous time elapsed. *)

val population : t -> int

val step : t -> unit
(** Execute one jump (birth or death).  Async flooding, isolated-node
    lifetime watches and source planting move one jump at a time; bulk
    advancing goes through {!run_until_time} / {!run_rounds}. *)

val next_jump_time : t -> float
(** Absolute time at which the next jump will occur.  Drawing is lazy and
    idempotent: the returned value is the one the next [step] executes.
    Used by the asynchronous flooding simulator to interleave message
    deliveries with churn on the real line. *)

val step_until_birth : t -> Churnet_graph.Dyngraph.node_id
(** [step] until a jump is a birth; returns the newborn.  Floods and
    gossip plant their source this way. *)

val run_rounds : t -> int -> unit
(** Execute exactly [k] jumps (a pre-drawn pending jump counts as the
    first). *)

val run_until_time : t -> float -> unit
(** Execute jumps until continuous time reaches the given absolute value.
    The jump that crosses the deadline is {e not} executed (the clock
    advances past it on the next [step]).

    Both runners pre-draw jumps in bulk from the churn PRNG
    ([Poisson_churn.decide_batch]) and apply them through a single arena
    pass ([Dyngraph.churn_batch]).  The churn and graph PRNG streams are
    independent by construction, so the result — PRNG streams included —
    is byte-identical to calling {!step} once per jump. *)

val warm_up : t -> unit
(** Run [12 n] jumps: the population reaches its stationary band
    (Lemma 4.4 needs t >= 3n) and the age distribution mixes (about six
    mean lifetimes). *)

val newest : t -> Churnet_graph.Dyngraph.node_id option
(** The most recently born alive node, if any. *)

val snapshot : t -> Churnet_graph.Snapshot.t

val encode : Churnet_util.Codec.writer -> t -> unit
(** Serialize the model for checkpoints, including the lazily pre-drawn
    pending jump (already taken from the churn PRNG, hence state). *)

val decode : Churnet_util.Codec.reader -> t
(** Inverse of {!encode}.  Raises [Codec.Error] on malformed or
    inconsistent bytes, such as a [d] that disagrees with the decoded
    arena's. *)
