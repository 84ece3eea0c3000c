(** Minimal fork-join parallelism over OCaml 5 domains.

    Experiments are embarrassingly parallel across trials (each trial owns
    its PRNG, split deterministically up front), so a static block
    partition over a few domains is all that is needed.  Falls back to
    sequential execution when [domains <= 1] or on runtimes with a single
    recommended domain.

    A kernel that needs large buffers per task takes them from a
    per-worker scratch ({!map_with}, {!replicate_with}): each worker
    makes one with [init ()] at the start of its share and hands it to
    every task it runs, so a call allocates buffers once per worker, not
    once per task.  The scratch dies with the call.  It is not kept in
    [Domain.DLS]: a domain-lifetime scratch cuts the same words, but its
    buffers stay live across calls and raise the peak RSS, and DLS keys
    are never freed. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8 (the experiments are
    memory-bandwidth-bound beyond that). *)

val domains_from_env : unit -> int
(** The default worker count: [CHURNET_DOMAINS] if set (must be a positive
    integer, [Invalid_argument] otherwise), else {!recommended_domains}.
    Read at every call, so the environment can be changed between runs. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] with the results in input order.  [f] must be safe to run
    concurrently on distinct elements (no shared mutable state — in
    particular, no shared {!Prng.t}).  If several elements fail, the
    first exception {e reported} wins (later failures are dropped) and is
    re-raised in the caller with its backtrace preserved.

    When a {!Checkpoint} journal is installed, every call allocates the
    next call-site number (in execution order, empty calls included) and
    each element is served from the journal when cached, else computed,
    recorded under (site, index) and counted as one crash-injection
    tick.  Site and index numbering are independent of [domains], so a
    journal resumes identically at any [CHURNET_DOMAINS]. *)

val map_with : ?domains:int -> init:(unit -> 's) -> ('s -> 'a -> 'b) -> 'a array -> 'b array
(** [map_with ~init f xs] is {!map} where each worker first makes a
    scratch with [init ()] and runs [f scratch x] on every element of its
    share.  [init] runs at most once per worker per call (once in the
    serial path, never for an empty [xs]), so it should be cheap and let
    [f] grow the scratch by need: a call whose elements are all served
    from the journal then allocates nothing big.  [f] must leave nothing
    of the scratch in its result, so results do not depend on which
    worker ran an element.  An exception raised by [init] is re-raised
    like one raised by [f].  Site and index numbering are {!map}'s. *)

val words : unit -> float * float
(** Minor and major words allocated so far by the calling domain plus
    those of every {!map} worker that has finished its share, current to
    the word (unlike [Gc.quick_stat]'s, which advance only when the GC
    runs). *)

val init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. *)

val replicate : ?domains:int -> rng:Prng.t -> trials:int -> (Prng.t -> 'a) -> 'a array
(** [replicate ~rng ~trials f] runs [trials] independent replications of
    [f], each on its own generator pre-split from [rng] in trial order
    before any domain starts.  Consequently the result array is
    order-stable and bit-identical across every [domains] setting —
    including the serial [domains:1] path — and identical to the
    historical serial loop [for _ = 1 to trials do ... f (Prng.split rng) ... done].
    [rng] is advanced by exactly [trials] splits. *)

val replicate_with :
  ?domains:int ->
  init:(unit -> 's) ->
  rng:Prng.t ->
  trials:int ->
  ('s -> Prng.t -> 'a) ->
  'a array
(** {!replicate} with a per-worker scratch, as in {!map_with}. *)
