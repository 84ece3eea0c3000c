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

val create : rng:Churnet_util.Prng.t -> ?lambda:float -> kind -> n:int -> d:int -> t
(** [lambda] (default 1, the paper's normalization) is the Poisson
    arrival rate, forwarded to {!Poisson_model.create} for PDG/PDGR.
    Streaming models have no rate parameter; [Invalid_argument] when
    [lambda <> 1.0] for SDG/SDGR rather than a silently ignored knob. *)

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

val flood : ?scratch:Flood.scratch -> ?max_rounds:int -> t -> Flood.trace
(** Flooding in the model's native semantics: synchronous (Def 3.3) for
    streaming, discretized (Def 4.3) for Poisson.  [scratch] is passed
    to the driver (see {!Flood.scratch}). *)

val encode : Churnet_util.Codec.writer -> t -> unit
(** Serialize a model (either semantics) for checkpoints. *)

val decode : Churnet_util.Codec.reader -> t
