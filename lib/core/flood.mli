(** The flooding processes of the paper.

    - {!run_streaming}: the synchronous flooding of Definition 3.3 over a
      streaming model (SDG / SDGR).  The source is the node joining the
      network at the starting round, as in the paper.
    - {!run_poisson_discretized}: the discretized flooding of
      Definition 4.3 over a Poisson model (PDG / PDGR): informed nodes
      transmit at integer times, and a message crosses an edge only if
      that specific edge survived the whole unit interval and the
      receiver is alive at its end.
    - {!Async}: the asynchronous flooding of Definition 4.2, event-driven
      on the real line (a node that is a neighbor of an informed node at
      any instant t is informed at t + 1 if still alive). *)

type trace = {
  rounds : int;  (** flooding rounds executed *)
  informed_per_round : int array;  (** |I_t| after each round, starting with |I_{t0}| = 1 *)
  population_per_round : int array;
  completed : bool;  (** I_t covered every node alive long enough to be reachable *)
  completion_round : int option;
  peak_informed : int;
  peak_coverage : float;  (** max over rounds of |I_t| / |N_t| *)
  final_informed : int;
  final_population : int;
  extinct : bool;
      (** the informed set died out entirely (|I_t| = 0 before coverage);
          the trace ends at that round instead of running to the round
          bound *)
  extinction_round : int option;
}

val coverage_at : trace -> int -> float
(** [coverage_at tr k] = |I_{t0+k}| / |N_{t0+k}|, or the final coverage if
    the flood ended earlier.  [nan] when that round's population is empty
    (post-extinction rounds): coverage of nobody is undefined, and an
    accidental [inf] must never escape into reports. *)

val expand_informed :
  Churnet_graph.Dyngraph.t -> Churnet_util.Bitset.t -> Churnet_util.Intvec.t -> unit
(** One synchronous flooding hop by full rescan: add to [informed] (a
    bitset over node ids) every alive node adjacent to an informed node.
    [scratch] is cleared and reused as staging space; the call allocates
    only when the informed bitset must grow.  Callers must keep
    [informed] pruned to alive ids (see {!run_custom}).  The
    synchronous driver uses it in the rounds where it is cheaper than
    {!expand_informed_frontier}; tests use it as that kernel's
    reference. *)

val expand_informed_frontier :
  Churnet_graph.Dyngraph.t ->
  Churnet_util.Bitset.t ->
  Churnet_util.Bitset.t ->
  Churnet_util.Intvec.t ->
  unit
(** [expand_informed_frontier graph informed frontier scratch]: one
    synchronous hop scanning only [frontier] — the informed nodes that
    may still have uninformed neighbors — instead of the whole informed
    set.  On return [frontier] holds exactly the newly informed nodes.
    Informs the same set as {!expand_informed} provided the caller
    maintains the frontier invariant: between hops, every edge created
    with exactly one informed endpoint re-arms that endpoint into
    [frontier] (the synchronous driver does this from the graph's edge
    hook). *)

(** {1 Resumable flooding state}

    Both round-based drivers (synchronous and discretized) carry the same
    cross-round state, factored into an explicit value so an in-flight
    flood can be checkpointed between rounds and resumed elsewhere.  The
    per-round staging vectors are transient: {!decode_state} recreates
    them empty, which is indistinguishable because every round clears
    them before use. *)

type state

val state_round : state -> int
(** Rounds executed so far. *)

val state_finished : state -> bool
(** The flood has completed, gone extinct, or hit its round bound. *)

val state_informed : state -> Churnet_util.Bitset.t
(** The informed set after the rounds so far, as a bitset over node ids
    pruned to alive nodes.  A live view, not a copy: callers must not
    mutate it. *)

val encode_state : Churnet_util.Codec.writer -> state -> unit

val decode_state : Churnet_util.Codec.reader -> state
(** Inverse of {!encode_state}.  The checkpoint carries no frontier: the
    decoded state's frontier is the whole informed set, a superset of
    the exact one.  Both drivers scan only the frontier, and scanning a
    superset finds the same uninformed neighbors (and, in the
    discretized driver, the same candidate edges), so a resumed flood is
    identical to one that never stopped. *)

val sync_start :
  max_rounds:int ->
  graph:Churnet_graph.Dyngraph.t ->
  step:(unit -> unit) ->
  newest:(unit -> Churnet_graph.Dyngraph.node_id) ->
  state
(** Advance one churn round, inform the newborn source, and return the
    initial state (round 0 logged). *)

val sync_round :
  graph:Churnet_graph.Dyngraph.t ->
  step:(unit -> unit) ->
  newest:(unit -> Churnet_graph.Dyngraph.node_id) ->
  state ->
  unit
(** One synchronous flooding round (Definition 3.3): adaptive expand
    (per round, whichever of {!expand_informed_frontier} and
    {!expand_informed} a cost model predicts is cheaper), churn, prune,
    log, then test completion/extinction.  During [step] the graph's
    edge hook is temporarily chained (and restored after) to keep the
    frontier invariant of {!expand_informed_frontier}; the result is
    byte-identical to a full rescan per hop, only faster. *)

val poisson_start : max_rounds:int -> Poisson_model.t -> state
(** Advance churn until a birth occurs, inform that newborn, and return
    the initial state. *)

val poisson_round : Poisson_model.t -> state -> unit
(** One discretized flooding round (Definition 4.3) over a unit interval
    of model time.  Records the informed-to-uninformed edges present at
    the start of the interval, runs the churn for one time unit, then
    informs the uninformed endpoint of every such edge that survived.
    Only the frontier is scanned: the informed nodes that learned last
    round or gained an edge to an uninformed node during the churn
    (re-armed, as in {!sync_round}, by an edge hook chained to any
    installed one and restored after).  The candidate edges, and hence
    the trace, are exactly those of a scan of the whole informed set;
    a round costs its frontier plus the births of the interval, not the
    whole graph. *)

val finish_state : state -> trace
(** Assemble the final trace from a finished (or abandoned) state. *)

val run_custom :
  ?max_rounds:int ->
  graph:Churnet_graph.Dyngraph.t ->
  step:(unit -> unit) ->
  newest:(unit -> Churnet_graph.Dyngraph.node_id) ->
  default_max_rounds:int ->
  unit ->
  trace
(** Synchronous flooding (Definition 3.3 semantics) over any round-based
    dynamic graph: [step] advances one churn round, [newest] names the
    node born in the latest round.  Used by {!run_streaming} and by the
    protocol baselines in [churnet_p2p]. *)

val run_streaming : ?max_rounds:int -> Streaming_model.t -> trace
(** Inserts the source with the next round's newborn and floods until
    completion (I_t contains all of N_{t-1} /\ N_t), extinction, or
    [max_rounds] (default [4 * n]).  The model must be warmed up. *)

val run_poisson_discretized : ?max_rounds:int -> Poisson_model.t -> trace
(** Discretized flooding from the next newborn.  Completion here means
    every alive node is informed except possibly nodes born during the
    last unit interval (they have not yet had a full interval of
    adjacency, so Definition 4.3 cannot have informed them).  Stops early
    with [extinct = true] when the informed set dies out. *)

module Async : sig
  type result = {
    completed : bool;
    completion_time : float option;
        (** time since the source was informed, stamped with the event
            that completed coverage *)
    informed_total : int;  (** distinct nodes ever informed *)
    final_coverage : float;  (** informed alive / alive at the end *)
    events : int;  (** churn jumps executed during the flood *)
    extinct : bool;  (** no informed node alive and no pending delivery *)
  }

  val run : ?max_time:float -> Poisson_model.t -> result
  (** Event-driven flooding per Definition 4.2 from the next newborn.
      Stops at full coverage of the alive set, at extinction (no informed
      node alive and no pending delivery), or after [max_time] time units
      (default [8 * log n + 50]).  No event past the deadline — delivery
      or churn jump — is processed. *)
end
