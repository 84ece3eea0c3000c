(** The streaming churn engine of Section 3 and the streaming dynamic
    graphs built on it: SDG (Definition 3.4, [regenerate = false]) and
    SDGR (Definition 3.13, [regenerate = true]).

    Node churn follows Definition 3.2: one node is born per round and
    lives exactly [n] rounds, so after round [n] the population is pinned
    at [n] and every round replaces the oldest node with a fresh one.
    Within a round the dying node leaves {e before} the newborn samples
    its [d] connection requests, matching N_t in the paper.

    The engine owns that schedule (the round counter, the ring of birth
    ids, the newest node); what a birth and a death do to the edges is an
    {!policy}.  SDG/SDGR use the uniform policy; the protocol-driven
    overlays ([Rw_streaming], [Cache_protocol], [Local_update],
    [Burst_model]) are other policies on the same engine. *)

type t

type policy =
  dying:Churnet_graph.Dyngraph.node_id -> birth:int -> Churnet_graph.Dyngraph.node_id
(** Called once per round.  [dying] is the node the schedule retires
    (born [n] rounds ago), or [-1] if it is already dead.  The policy
    removes it, adds the newborn with birth round [birth], and returns
    the newborn's id, which becomes {!newest}. *)

val create :
  ?arena:Churnet_graph.Dyngraph.arena ->
  rng:Churnet_util.Prng.t -> n:int -> d:int -> regenerate:bool -> unit -> t
(** SDG/SDGR: the uniform policy ([kill], then [Dyngraph.add_node]).
    Raises [Invalid_argument] if [n < 2] or [d <= 0], before anything
    is built.  With [~arena] the graph and the birth ring are built on
    the arena's memory, retiring the model built on it before (see
    {!Churnet_graph.Dyngraph.arena}); the model equals one made without
    an arena in every draw and every {!encode} byte. *)

val of_policy : n:int -> Churnet_graph.Dyngraph.t -> policy -> t
(** A streaming model over [graph] (empty, created by the caller) whose
    rounds run [policy].  When [graph] was built on an arena, the birth
    ring is taken from it too.  Raises [Invalid_argument] if [n < 2]:
    a caller building [graph] on an arena checks [n] first. *)

val n : t -> int
val d : t -> int
val regenerates : t -> bool
val round : t -> int
(** Rounds executed so far (0 before any {!step}). *)

val graph : t -> Churnet_graph.Dyngraph.t
val step : t -> unit
(** Execute one round: hand the node of age [n] (if alive) and the round
    to the policy, and record the newborn it returns. *)

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
(** Serialize an SDG/SDGR model (graph arena included) for checkpoints.
    Raises [Invalid_argument] on a model built by {!of_policy}, whose
    policy state the bytes could not carry. *)

val decode : Churnet_util.Codec.reader -> t
(** Inverse of {!encode}.  Raises [Codec.Error] on malformed or
    inconsistent bytes, such as a [d] that disagrees with the decoded
    arena's, or a newest or ring id the arena never issued. *)
