(** Deterministic pseudo-random number generation.

    All randomness in churnet flows through values of type {!t}, so that
    every simulation is reproducible from a single 64-bit seed.  The
    generator is xoshiro256** seeded through SplitMix64, the standard
    recommendation of Blackman & Vigna; it is fast, has a 2^256 - 1 period
    and passes BigCrush. *)

type t
(** Mutable generator state.

    Allocation: [int], [fill_int], [int_in], [bool], [bernoulli] and
    [unit_float_into] allocate nothing, nor do [shuffle] and [choose] on
    any array but a [float array]; they are safe on the churn hot path.
    Results of type [float] or [int64] ([unit_float], [bits64]) come
    back boxed, as any such value returned across a module boundary
    does in this build; a caller that needs a float draw without the
    box takes it through [unit_float_into], as the Poisson churn clock
    does.  [create], [split], [copy], [decode] and
    [sample_without_replacement] allocate their result. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]
    (any int, including negative values). *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t].  Useful to give each replica of an experiment its own
    stream. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future outputs). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1].  [bound] must be positive. *)

val fill_int : t -> int -> int array -> int -> int -> unit
(** [fill_int t bound a pos len] stores [len] successive [int t bound]
    draws in [a.(pos)], ..., [a.(pos + len - 1)]: value for value the
    draws those calls would return, leaving the generator in the state
    they would leave it in.  It keeps the generator's state in locals
    for the whole run, so a run of a few draws or more at one bound
    costs less than the calls; a run of one costs a little more than
    one [int].  Raises [Invalid_argument] when [bound <= 0] or the range
    is not inside [a]; then it draws nothing. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val unit_float : t -> float
(** Uniform on [0,1) with 53 bits of precision. *)

val unit_float_into : t -> float array -> int -> unit
(** [unit_float_into t a i] stores the next [unit_float t] draw in
    [a.(i)], bit for bit the value [unit_float] would return, without
    boxing it. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values uniformly
    from [0, n-1].  Requires [k <= n]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val encode : Codec.writer -> t -> unit
(** Serialize the generator state for checkpoints: the four xoshiro256**
    words s0, s1, s2, s3, each as 8 little-endian bytes (32 bytes in
    all).  This layout is fixed: existing checkpoints depend on it. *)

val decode : Codec.reader -> t
(** Rebuild a generator with exactly the encoded future output stream. *)
