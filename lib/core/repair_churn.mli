(** Poisson node churn over a graph whose nodes refill their own
    out-slots — the base that {!Capped_model}, {!Lazy_regen_model} and
    [Churnet_p2p.Bitcoin_like] share.  Each keeps only its repair rule.

    The base owns the arena (never regenerating by itself), the churn
    clock and the {e owing set}: the nodes that have lost out-slots and
    still have to refill them.  The set is a [Churnet_util.Intset], which
    iterates in the order of a [Stdlib.Hashtbl] with the same history;
    that order, a pure function of the seed, fixes the order of every
    repair pass (DESIGN.md §4), and owing, settling and queueing
    allocate nothing once the set has reached its working size. *)

type t

val create : rng:Churnet_util.Prng.t -> n:int -> d:int -> t
(** Splits [rng] for the graph first and for the churn second.  [n] is
    the stationary population (lambda = 1, mu = 1/n); [d] the out-slots
    per node. *)

val graph : t -> Churnet_graph.Dyngraph.t
val time : t -> float
val round : t -> int
(** Jumps so far; a newborn is stamped with it. *)

val jump : t -> Churnet_graph.Dyngraph.node_id
(** Draw one churn jump.  A birth returns -1 and leaves the graph alone:
    the caller adds the newborn, stamped {!round}.  A death kills a
    uniform alive victim, which stops owing, makes its alive
    in-neighbours owe (in ascending id order), and returns the victim. *)

val owe : t -> Churnet_graph.Dyngraph.node_id -> unit
val settle : t -> Churnet_graph.Dyngraph.node_id -> unit

val forgive_all : t -> unit
(** Empty the owing set, shrinking it back to its initial bucket count
    (as [Hashtbl.reset] does). *)

val queue : t -> Churnet_util.Intvec.t
(** The owing set in table order, in a scratch vector the next call
    reuses.  Serve it with [Intvec.pop] (last-visited entry first);
    owing or settling meanwhile does not change the pass. *)

val missing_slots : t -> int
(** Empty out-slots summed over the alive owing nodes. *)

val mean_out_degree : t -> float
(** nan when no node is alive. *)

val advance_time : t -> step:(unit -> unit) -> float -> unit
(** Run [step] until the churn clock has moved on by the given span. *)

val warm_up : t -> step:(unit -> unit) -> unit
(** [12 n] steps. *)

val flood :
  ?scratch:Flood.scratch -> ?max_rounds:int -> t -> step:(unit -> unit) -> Flood.trace
(** Synchronous flooding with one round per unit of continuous time,
    from the next newborn: [step] runs until a birth, then for one time
    unit per round.  [max_rounds] defaults to [8 ln n + 60]; [scratch]
    is passed to {!Flood.run_custom}. *)
