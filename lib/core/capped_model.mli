(** Bounded-degree dynamics — the paper's open question (Section 5).

    The PDGR model keeps out-degrees at d but lets in-degrees grow to
    Theta(log n); the paper closes by asking whether {e natural,
    fully-random} topology dynamics with bounded-degree snapshots can
    retain good expansion.  This model explores the simplest candidate:
    PDGR whose connection requests are {e rejected} by nodes already at an
    in-degree cap [c].  A request samples uniform alive nodes until it
    finds one below the cap (up to a retry budget; the slot is parked and
    retried at the next repair opportunity otherwise).

    With c = infinity this is exactly PDGR.  The X1 experiment measures
    how expansion and flooding degrade as [c] approaches [d]. *)

type t

val create :
  rng:Churnet_util.Prng.t ->
  ?retries:int ->
  n:int ->
  d:int ->
  cap:int ->
  unit ->
  t
(** [cap] is the maximum in-degree (distinct in-neighbors) a node accepts;
    must be >= 1.  [retries] bounds sampling attempts per request
    (default 16). *)

val graph : t -> Churnet_graph.Dyngraph.t
val step : t -> unit
(** One churn jump plus a repair pass over nodes with parked slots. *)

val warm_up : t -> unit
val snapshot : t -> Churnet_graph.Snapshot.t

val flood : ?scratch:Flood.scratch -> ?max_rounds:int -> t -> Flood.trace
(** Synchronous flooding with one round per unit of time, from the next
    newborn. *)

val max_in_degree : t -> int
val mean_out_degree : t -> float
val parked_slots : t -> int
(** Requests currently waiting because every sampled candidate was at the
    cap. *)
