(** The streaming dynamic graphs of Section 3: SDG (Definition 3.4,
    [regenerate = false]) and SDGR (Definition 3.13, [regenerate = true]).

    Node churn follows Definition 3.2: one node is born per round and
    lives exactly [n] rounds, so after round [n] the population is pinned
    at [n] and every round replaces the oldest node with a fresh one.
    Within a round the dying node leaves {e before} the newborn samples
    its [d] connection requests, matching N_t in the paper. *)

type t

val create :
  rng:Churnet_util.Prng.t -> n:int -> d:int -> regenerate:bool -> unit -> t

val n : t -> int
val d : t -> int
val regenerates : t -> bool
val round : t -> int
(** Rounds executed so far (0 before any {!step}). *)

val graph : t -> Churnet_graph.Dyngraph.t
val step : t -> unit
(** Execute one round: kill the node of age [n] (if any), then insert a
    newborn that issues its [d] requests. *)

val run : t -> int -> unit
(** [run t k] executes [k] rounds. *)

val warm_up : t -> unit
(** Run [2 n] rounds so the population is exactly [n] and the age
    distribution is in its steady state (every theorem assumes
    [t >= n]). *)

val newest : t -> Churnet_graph.Dyngraph.node_id
(** The node born in the latest round (the canonical flooding source). *)

val age_of : t -> Churnet_graph.Dyngraph.node_id -> int
(** Age in rounds (>= 1 right after birth round, matching the paper's
    "age k at round t if it joined at round t - k" plus our convention
    that the newborn of the current round has age 0). *)

val snapshot : t -> Churnet_graph.Snapshot.t

val encode : Churnet_util.Codec.writer -> t -> unit
(** Serialize the model (graph arena included) for checkpoints. *)

val decode : Churnet_util.Codec.reader -> t
(** Inverse of {!encode}.  Raises [Codec.Error] on malformed or
    inconsistent bytes, such as a [d] that disagrees with the decoded
    arena's. *)
