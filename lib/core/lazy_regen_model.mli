(** Ablation of the edge-regeneration rule (DESIGN.md, ablation A1).

    PDGR regenerates a lost out-slot {e instantly} (Definition 4.14,
    rule 3).  This variant repairs lost slots only at periodic maintenance
    ticks, every [period] time units; between ticks the graph degrades
    towards PDG.  [period -> 0] recovers PDGR; large periods interpolate
    towards the non-regenerating model, showing how much of the expander
    property instant regeneration actually buys. *)

type t

val create :
  rng:Churnet_util.Prng.t -> n:int -> d:int -> period:float -> unit -> t
(** [period] > 0 in continuous-time units. *)

val graph : t -> Churnet_graph.Dyngraph.t
val advance_time : t -> float -> unit
val warm_up : t -> unit
val snapshot : t -> Churnet_graph.Snapshot.t
val flood : ?scratch:Flood.scratch -> ?max_rounds:int -> t -> Flood.trace
val broken_slots : t -> int
(** Out-slots currently awaiting the next maintenance tick. *)
