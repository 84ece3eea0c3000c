(** Uniform front-end over the four dynamic-graph models of the paper,
    used by the experiment harness, the examples and the benches.

    | kind | churn (Def) | edges (Def) | regeneration |
    |------|-------------|-------------|--------------|
    | SDG  | streaming 3.2 | 3.4  | no  |
    | SDGR | streaming 3.2 | 3.13 | yes |
    | PDG  | Poisson 4.1   | 4.9  | no  |
    | PDGR | Poisson 4.1   | 4.14 | yes | *)

type kind = SDG | SDGR | PDG | PDGR

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_string : string -> kind option
val is_streaming : kind -> bool
val regenerates : kind -> bool

type t =
  | Streaming of Streaming_model.t
  | Poisson of Poisson_model.t

val create :
  ?arena:Churnet_graph.Dyngraph.arena ->
  rng:Churnet_util.Prng.t -> ?lambda:float -> kind -> n:int -> d:int -> t
(** [lambda] (default 1, the paper's normalization) is the Poisson
    arrival rate, forwarded to {!Poisson_model.create} for PDG/PDGR.
    Streaming models have no rate parameter; [Invalid_argument] when
    [lambda <> 1.0] for SDG/SDGR rather than a silently ignored knob.
    Every argument ([n >= 2], [d > 0], [lambda]) is checked before
    anything is built.

    With [~arena] the model is built on the arena's memory: its graph's
    pages and arrays, and its birth ring or batch buffers.  The model
    equals one made without an arena in every draw, every trace and
    every {!encode} byte.  {b One live model per arena}: the create
    retires the model built on the arena before, whose later use raises
    [Invalid_argument] (see {!Churnet_graph.Dyngraph.arena}). *)

val kind : t -> kind
val n : t -> int
val d : t -> int
val graph : t -> Churnet_graph.Dyngraph.t
val snapshot : t -> Churnet_graph.Snapshot.t

(* The two runners keep their [_batch] names because the benchmark
   driver calls them. *)

val advance_batch : t -> int -> unit
(** Advance churn: [k] rounds for streaming models, [k] time units for
    Poisson models (so one unit is one expected birth in both time
    scales, matching the paper's normalization lambda = 1).  Poisson
    models advance through {!Poisson_model.run_until_time}, which applies
    a whole run of pre-drawn jumps in one arena pass. *)

val warm_up_batch : t -> unit
(** Mix the model to stationarity: {!Streaming_model.warm_up} or
    {!Poisson_model.warm_up}. *)

(** {1 Trial scratch} *)

type scratch = { arena : Churnet_graph.Dyngraph.arena; flood : Flood.scratch }
(** What a trial that builds a model and floods it runs on: an arena for
    the model and a {!Flood.scratch} for the flood.  Give one to each
    worker of a [Parallel] call ([~init:Models.scratch]), so a call
    allocates a graph and flood buffers once per worker and width rather
    than once per trial.  A trial's result must not keep its model,
    which the worker's next trial retires.  Not for [Domain.DLS], for
    the reasons {!Churnet_util.Parallel} gives. *)

val scratch : unit -> scratch
(** An empty trial scratch; both halves grow by need. *)

val flood : ?scratch:Flood.scratch -> ?max_rounds:int -> t -> Flood.trace
(** Flooding in the model's native semantics: synchronous (Def 3.3) for
    streaming, discretized (Def 4.3) for Poisson.  [scratch] is passed
    to the driver (see {!Flood.scratch}). *)

val encode : Churnet_util.Codec.writer -> t -> unit
(** Serialize a model (either semantics) for checkpoints. *)

val decode : Churnet_util.Codec.reader -> t
