(** The Poisson node-churn process (Definition 4.1) observed through its
    jump chain (Definition 4.5 / Lemma 4.6).

    With [N] nodes alive, the time to the next event is
    Exp(N*mu + lambda); the event is a birth with probability
    lambda / (N*mu + lambda) and otherwise the death of a uniformly random
    alive node.  Throughout the paper (and here) lambda = 1 and mu = 1/n,
    so the stationary population is n. *)

type t

type decision =
  | Birth
  | Death  (** The victim is a uniformly random alive node, chosen by the caller. *)

val create : rng:Churnet_util.Prng.t -> ?lambda:float -> n:int -> unit -> t
(** [create ~n ()] = churn with arrival rate [lambda] (default 1) and
    death rate mu = lambda/n, so the stationary population is [n] for any
    [lambda].  The paper normalizes lambda = 1 "without loss of
    generality"; the S1 experiment uses other values to verify that the
    normalization is indeed harmless. *)

val lambda : t -> float
val mu : t -> float

val decide : t -> alive:int -> decision * float
(** [decide t ~alive] draws the next jump: its type and the elapsed time
    dt ~ Exp(alive * mu + lambda).  When [alive = 0] the only possible
    event is a birth. *)

val decide_birth : t -> alive:int -> bool
(** [decide_birth t ~alive] is [decide] without the result tuple: the
    same draws, returning [true] for a birth.  The elapsed time is only
    added to {!time}, so a caller that keeps its clock there allocates
    nothing per jump. *)

val decide_batch :
  t ->
  alive:int ->
  deadline:float ->
  limit:int ->
  decisions:Bytes.t ->
  dts:float array ->
  int * (decision * float) option
(** [decide_batch t ~alive ~deadline ~limit ~decisions ~dts] draws up to
    [limit] consecutive jumps in one call, writing jump [i]'s type into
    [Bytes.get decisions i] (['\000'] = birth, ['\001'] = death) and its
    elapsed time into [dts.(i)].  The population starts at [alive] and is
    tracked incrementally across the batch, so the PRNG draw sequence is
    byte-identical to calling [decide] once per jump with the graph
    updated in between.  Returns [(count, pending)]: [count] jumps were
    stored, and if the jump after them would cross [deadline] it is
    returned as [pending] instead of stored — its rates were already
    drawn from the PRNG, so the caller must treat it as state exactly
    like the per-jump pre-drawn jump.  [count] is also bounded by the
    capacity of [decisions] and [dts]. *)

val time : t -> float
(** Total continuous time elapsed over all [decide] / [decide_batch]
    draws (including a returned pending jump). *)

val round : t -> int
(** Number of jumps so far (the index r of T_r). *)

val births : t -> int
val deaths : t -> int

val encode : Churnet_util.Codec.writer -> t -> unit
(** Serialize rates, PRNG state, clock and event counters for
    checkpoints. *)

val decode : Churnet_util.Codec.reader -> t
