(** The mutable dynamic multigraph underlying all four models of the paper.

    Every node owns [d] {e out-slots}: connection requests whose
    destinations were chosen uniformly at random among the alive nodes at
    request time (Definitions 3.4, 3.13, 4.9, 4.14).  The graph is
    undirected — a node's neighborhood is the union of its out-slot targets
    and its in-neighbors — but, as in the paper's analysis, the out/in
    distinction is kept because only out-slots are (re)generated.

    Deaths remove all incident edges.  With [regenerate = true] (the SDGR /
    PDGR topology dynamics), each alive in-neighbor of a dying node
    immediately re-samples the lost slot uniformly over the current alive
    set, keeping every node's out-degree pinned at [d]. *)

type t

type node_id = int
(** Node identifiers are globally unique, monotonically increasing with
    birth order (so [u < v] iff [u] is older than [v]). *)

val create : rng:Churnet_util.Prng.t -> d:int -> regenerate:bool -> unit -> t
(** [create ~rng ~d ~regenerate ()] makes an empty graph.  [rng] is the
    graph's private generator — every topology draw (slot targets,
    regeneration, victim sampling) consumes it and nothing else, so two
    graphs given independently split generators evolve independently. *)

val d : t -> int
val regenerate : t -> bool

val set_edge_hook : t -> (src:node_id -> dst:node_id -> unit) option -> unit
(** Install a callback fired once per out-slot edge creation (both at node
    birth and at regeneration).  Used by the flooding processes to notice
    fresh edges towards informed nodes. *)

val edge_hook : t -> (src:node_id -> dst:node_id -> unit) option
(** The currently installed edge hook.  Lets a temporary observer (e.g.
    the synchronous flooding frontier) chain to — and later restore — a
    hook installed by someone else instead of silently clobbering it. *)

val set_birth_hook : t -> (node_id -> birth:int -> unit) option -> unit
(** Install a callback fired right after a node is created (before its
    edge hooks fire).  Used by {!Event_log} to capture full runs. *)

val set_death_hook : t -> (node_id -> unit) option -> unit
(** Install a callback fired at the start of every {!kill}, before any
    edge is removed.  Lets observers (e.g. the flooding simulators)
    maintain exact informed/alive counters in O(1). *)

val add_node : t -> birth:int -> node_id
(** Birth: allocate a node stamped [birth] and create its [d] connection
    requests among the currently alive nodes (excluding itself; with
    replacement, so parallel edges are possible).  If no other node is
    alive the slots stay empty. *)

val add_node_with_targets : t -> birth:int -> targets:node_id array -> node_id
(** Birth with caller-chosen destinations (used by the protocol baselines
    in [churnet_p2p], whose connection rules are not uniform sampling).
    At most [d] targets are used; dead or self targets are skipped.  The
    regeneration machinery applies to these slots exactly as to sampled
    ones. *)

val peek_next_id : t -> node_id
(** The id the next [add_node*] call will allocate (lets callers compute
    targets that must exclude the newborn). *)

val connect : t -> src:node_id -> dst:node_id -> bool
(** Point the first empty out-slot of [src] at [dst] (both must be alive,
    [src <> dst]).  Returns [false] — and changes nothing — if [src] has
    no empty slot or the endpoints are invalid.  Fires the edge hook.
    Used by protocol baselines that refill lost connections by their own
    rules instead of uniform regeneration. *)

val disconnect : t -> src:node_id -> dst:node_id -> bool
(** Clear one out-slot of [src] that points at [dst] (and the matching
    in-edge record).  Returns [false] if no such slot exists.  Does not
    trigger regeneration.  Used by takeover-style protocols
    ([churnet_p2p.Local_update]); note that {!Event_log} replay assumes
    edges die only with an endpoint, so do not log runs that disconnect. *)

val in_degree : t -> node_id -> int
(** Number of distinct alive in-neighbors. *)

val kill : t -> node_id -> unit
(** Death: remove the node and all incident edges; trigger regeneration on
    surviving in-neighbors if enabled.  In-neighbors regenerate
    oldest-first (ascending id), slots in increasing index order — a fixed
    part of the interface, so the PRNG draw sequence of a run never
    depends on the graph's internal layout.  (Each in-neighbor's slot scan
    stops once its known multiplicity of edges to the dead node has been
    handled, which changes nothing observable — the draws still happen in
    ascending slot order.)  Raises [Invalid_argument] if the node is not
    alive. *)

val churn_batch : t -> decisions:Bytes.t -> count:int -> birth0:int -> unit
(** [churn_batch t ~decisions ~count ~birth0] applies the first [count]
    pre-drawn churn decisions in one arena pass: byte [i] of [decisions]
    births a node stamped [birth0 + i] when ['\000'], and otherwise kills
    a uniformly random alive node ({!kill} semantics, regeneration
    included) — exactly the equivalent {!add_node} / {!kill} sequence.
    Typically driven by [Poisson_churn.decide_batch], whose decision
    bytes use the same encoding. *)

val alive_count : t -> int
val is_alive : t -> node_id -> bool
val random_alive : t -> node_id
(** Uniform alive node; raises if the graph is empty. *)

val iter_alive : t -> (node_id -> unit) -> unit
val alive_ids : t -> node_id array
(** Fresh array of alive ids in unspecified order. *)

val birth_of : t -> node_id -> int
(** Birth stamp of an alive node. *)

val out_targets : t -> node_id -> node_id list
(** Current non-empty out-slot targets (with multiplicity). *)

val out_slots_raw : t -> node_id -> node_id array
(** Copy of the raw slot array (length [d], -1 = empty slot).  Slot
    indices are stable, which lets the discretized flooding process of
    Definition 4.3 verify that a specific edge survived a whole unit
    time interval. *)

val out_slot : t -> node_id -> int -> node_id
(** [out_slot t id i] is the current target of slot [i] of [id] (-1 =
    empty), without copying the slot array.  Raises [Invalid_argument] on
    a slot index outside [0, d). *)

val in_neighbors : t -> node_id -> node_id list
(** Distinct alive in-neighbors, sorted ascending. *)

val neighbors : t -> node_id -> node_id list
(** Distinct neighbors = out targets U in-neighbors, sorted ascending. *)

val iter_neighbors : t -> node_id -> (node_id -> unit) -> unit
(** [iter_neighbors t id f] calls [f] exactly once per distinct neighbor
    of [id] (same set as {!neighbors}, unspecified order) without
    allocating.  [f] must not mutate the graph. *)

val iter_in_neighbors : t -> node_id -> (node_id -> unit) -> unit
(** Allocation-free {!in_neighbors} (distinct, unspecified order).  [f]
    must not mutate the graph. *)

val degree : t -> node_id -> int
(** Number of distinct neighbors. *)

val out_degree : t -> node_id -> int
(** Number of filled out-slots (<= d). *)

val edge_count : t -> int
(** Number of out-slot edges currently alive (with multiplicity). *)

val oldest_alive : t -> node_id option
(** Minimum id among alive nodes, i.e. the oldest node.  O(1): the arena
    threads a birth-ordered list through the alive slots. *)

val newest_alive : t -> node_id option
(** Maximum id among alive nodes, i.e. the youngest node.  O(1); the
    churn models use it to report the newest vertex without scanning
    the alive set. *)

val snapshot : t -> Snapshot.t
(** Freeze the current topology for analysis. *)

val check_invariants : t -> (unit, string) result
(** Internal-consistency audit used by the test-suite: slot/in-edge
    symmetry, alive-index integrity, degree bounds. *)

val encode : Churnet_util.Codec.writer -> t -> unit
(** Serialize the full arena for checkpoints: topology, PRNG state,
    free-list order (decides slot recycling), dense-alive order (decides
    {!random_alive} indexing) and the id window.  The three hooks and
    internal scratch space are deliberately not state — observers
    re-attach after {!decode}. *)

val decode : Churnet_util.Codec.reader -> t
(** Rebuild a graph that continues bit-identically to the encoded one.
    Total: any malformed input — a size the remaining bytes cannot back,
    an out-of-range slot or id, or a failed {!check_invariants} — raises
    [Churnet_util.Codec.Error]. *)
