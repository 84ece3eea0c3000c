(** The flooding processes of the paper.

    - {!run_streaming}: the synchronous flooding of Definition 3.3 over a
      streaming model (SDG / SDGR, or any other edge policy of
      {!Streaming_model}).  The source is the node joining the network
      at the starting round, as in the paper.
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

(** {1 Scratch}

    A flood stages each round in two buffers: the ids a synchronous hop
    informs, and the discretized driver's candidate edges.  By default a
    flood makes its own.  Floods that run one after another, such as the
    trials of one {!Churnet_util.Parallel.map_with} worker
    ([~init:Flood.scratch]), can share a {!scratch} instead, so the
    buffers grow once per worker and call rather than once per flood.

    The contract:
    - one flood at a time per scratch: it is not safe to share between
      domains, nor between floods that interleave (two
      {!poisson_start} states stepped in turn);
    - every round clears a buffer before writing it, so a flood on a
      used scratch gives exactly the trace, and leaves the model in
      exactly the state, that it would on a fresh one;
    - the trace never aliases the scratch, and neither does
      {!state_informed}: the informed and frontier sets stay each
      flood's own.

    Make one per [Parallel] call and worker, or per serial loop of
    floods, never one per domain in [Domain.DLS]: see
    {!Churnet_util.Parallel} for why. *)

type scratch

val scratch : unit -> scratch
(** An empty scratch; its buffers grow by need and never shrink. *)

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

(** {1 Round-by-round discretized flooding}

    {!run_poisson_discretized} is {!poisson_start} followed by
    {!poisson_round} until {!state_finished}, then {!finish_state}.
    Exposed so a caller can observe or time each round. *)

type state

val state_finished : state -> bool
(** The flood has completed, gone extinct, or hit its round bound. *)

val state_informed : state -> Churnet_util.Bitset.t
(** The informed set after the rounds so far, as a bitset over node ids
    pruned to alive nodes.  A live view, not a copy: callers must not
    mutate it. *)

val poisson_start : ?scratch:scratch -> max_rounds:int -> Poisson_model.t -> state
(** Advance churn until a birth occurs, inform that newborn, and return
    the initial state.  The state stages its rounds in [scratch] when
    given, else in buffers of its own. *)

val poisson_round : Poisson_model.t -> state -> unit
(** One discretized flooding round (Definition 4.3) over a unit interval
    of model time.  Records the informed-to-uninformed edges present at
    the start of the interval, runs the churn for one time unit, then
    informs the uninformed endpoint of every such edge that survived.
    Only the frontier is scanned: the informed nodes that learned last
    round or gained an edge to an uninformed node during the churn
    (re-armed, as in the synchronous driver, by an edge hook chained to
    any installed one); a death hook, chained alike, drops each dying
    node from the informed set, and both are restored after the churn,
    also when it raises.  The trace is exactly that of a scan of the
    whole informed set; a round costs its frontier and its churn. *)

val finish_state : state -> trace
(** Assemble the final trace from a finished (or abandoned) state. *)

val run_custom :
  ?scratch:scratch ->
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
    Poisson repair models ([Repair_churn.flood]).

    Each round expands the informed set by whichever of
    {!expand_informed_frontier} and {!expand_informed} a cost model
    predicts is cheaper, then runs [step] with the graph's edge hook
    chained to keep the frontier invariant and its death hook chained to
    drop dying nodes from the informed set; both are restored after,
    also when [step] raises.  The result is byte-identical to a full
    rescan per hop, only faster. *)

val run_streaming : ?scratch:scratch -> ?max_rounds:int -> Streaming_model.t -> trace
(** Inserts the source with the next round's newborn and floods until
    completion (I_t contains all of N_{t-1} /\ N_t), extinction, or
    [max_rounds] (default [4 * n]).  The model must be warmed up. *)

val run_poisson_discretized : ?scratch:scratch -> ?max_rounds:int -> Poisson_model.t -> trace
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
      or churn jump — is processed.  The graph's edge and death hooks
      are chained for the run and restored after it, also when the churn
      raises. *)
end
