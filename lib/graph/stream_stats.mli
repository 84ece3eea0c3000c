(** Snapshot-grade statistics computed directly off the arena.

    {!Snapshot} freezes the topology into a flat CSR before anything can
    be measured — an O(n·d) copy that dominates peak RSS once n reaches
    the XL tier (10⁶ nodes and up).  This module computes the degree
    statistics the experiment checks actually consume by row-local
    iteration ([Dyngraph.iter_alive] + [Dyngraph.iter_neighbors]),
    holding only O(n) counters.  Vertex expansion is not here: [Probe]
    measures it on a snapshot with [Snapshot.expansion].

    Every field is {e bit-identical} to the corresponding CSR-side
    computation ([Snapshot.mean_degree], [Snapshot.degree_histogram],
    [Metrics.degree_gini], …) — the float operations are replayed in the
    same order — and a differential test asserts so on every scale where
    the CSR is still affordable. *)

type t = {
  population : int;  (** [Dyngraph.alive_count]. *)
  isolated : int;  (** Nodes with no distinct neighbor. *)
  max_degree : int;
  mean_degree : float;  (** nan when the graph is empty. *)
  degree_histogram : int array;
      (** Index = distinct-neighbor degree; length [max_degree + 1]
          ([\[|0|\]] for the empty graph), as [Snapshot.degree_histogram]. *)
  degree_gini : float;
      (** Bitwise [Metrics.degree_gini] of the same population: nan when
          empty, 0 when all degrees are 0. *)
}

val collect : Dyngraph.t -> t
(** One pass over the alive set; O(n) time and counters, no CSR. *)
