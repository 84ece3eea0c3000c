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
    the benches report.

    Every family but the random sets is nested: BFS balls are prefixes
    of BFS order, component unions of the components smallest first, and
    the others of an age, degree or sweep order.  The probe scores each
    along its order with an incremental evaluator (per-vertex counts of
    neighbours in S, so adding a vertex u updates |boundary(S)| in
    O(deg u)), at the sizes listed above (BFS balls at layer ends,
    unions at component ends, the others at their size ladders), so a
    family costs one pass over its largest candidate, not one per
    candidate.  Candidates are reported in a fixed order (the families in
    the order listed, the oldest then the youngest age prefix of each
    size), and the witness is the first candidate of least expansion. *)

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
  ?sweep_order:int array ->
  Churnet_graph.Snapshot.t ->
  report
(** [probe snap] searches sets with [min_size <= |S| <= max_size]
    (defaults 1 and n/2).  [samples_per_size] (default 8) controls the
    random-family effort.  The sweep cuts are the prefixes of
    [sweep_order] of sizes 2, 3, 4, 6, 9, ... up to half its length;
    it is [Spectral.sweep_order snap] when absent, and a caller that also
    wants the spectral certificate passes that of
    {!Spectral.analyze_with_sweep_order} and saves a power iteration. *)

val expansion_profile :
  rng:Churnet_util.Prng.t ->
  Churnet_graph.Snapshot.t ->
  sizes:int array ->
  (int * float) array
(** For figure F6: for each requested size, the minimum expansion found
    among that size's candidates (all families restricted to the size). *)

val prefix_boundaries : Churnet_graph.Snapshot.t -> int array -> int array
(** [prefix_boundaries snap order] is [|boundary(S_i)|] for every prefix
    [S_i = {order.(0), ..., order.(i)}], from the incremental evaluator
    every nested family is scored with.  The vertices of [order] must be
    distinct. *)
