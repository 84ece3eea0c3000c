(** Adversarial candidate-family search for low-expansion vertex sets.

    Exact h_out is NP-hard; the theorems (3.6, 3.15, 4.11, 4.16) claim
    expansion >= 0.1 w.h.p. over the relevant size ranges.  The probe
    evaluates |boundary(S)|/|S| on a family of candidate sets engineered
    to contain the low-expansion sets these models can have:

    - singletons (catches isolated nodes exactly),
    - unions of small connected components (expansion exactly 0),
    - BFS balls around random and low-degree seeds,
    - age prefixes (oldest-k / youngest-k — the paper's own worst cases),
    - lowest-degree-first prefixes,
    - uniformly random sets across a geometric size ladder,
    - spectral sweep-cut prefixes.

    The minimum found is an {e upper bound} on h_out restricted to the
    size range; finding nothing below epsilon is the empirical evidence
    the benches report. *)

type witness = { family : string; size : int; expansion : float }

type report = {
  min_expansion : float;
  witness : witness;
  per_family : (string * float) list;  (** min expansion per family *)
  candidates_tested : int;
}

val probe :
  rng:Churnet_util.Prng.t ->
  ?min_size:int ->
  ?max_size:int ->
  ?samples_per_size:int ->
  ?sweep_sets:int array list ->
  Churnet_graph.Snapshot.t ->
  report
(** [probe snap] searches sets with [min_size <= |S| <= max_size]
    (defaults 1 and n/2).  [samples_per_size] (default 8) controls the
    random-family effort.  [sweep_sets] are the sweep-cut candidates,
    [Spectral.sweep_sets snap] when absent; a caller that also wants the
    spectral certificate passes those of
    {!Spectral.analyze_with_sweep_sets} and saves a power iteration. *)

val expansion_profile :
  rng:Churnet_util.Prng.t ->
  Churnet_graph.Snapshot.t ->
  sizes:int array ->
  (int * float) array
(** For figure F6: for each requested size, the minimum expansion found
    among that size's candidates (all families restricted to the size). *)
