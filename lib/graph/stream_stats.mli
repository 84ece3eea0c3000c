(** Snapshot-grade statistics computed directly off the arena.

    {!Snapshot} freezes the topology into a flat CSR before anything can
    be measured — an O(n·d) copy that dominates peak RSS once n reaches
    the XL tier (10⁶ nodes and up).  This module computes the degree
    statistics its callers ([Sweep], [Exp_xl]) read in one counting pass
    over the arena's rows, with O(1) extra space.  The degree histogram
    and Gini coefficient are not here: [Snapshot.degree_histogram] and
    [Metrics.degree_gini] compute them on a snapshot, and [Probe]
    measures vertex expansion there with [Snapshot.expansion].

    Every field is {e bit-identical} to the corresponding CSR-side
    computation ([Snapshot.n], [Snapshot.isolated], [Snapshot.max_degree],
    [Snapshot.mean_degree]), and a differential test asserts so on every
    scale where the CSR is still affordable. *)

type t = {
  population : int;  (** [Dyngraph.alive_count]. *)
  isolated : int;  (** Nodes with no distinct neighbor. *)
  max_degree : int;
  mean_degree : float;  (** nan when the graph is empty. *)
}

val collect : Dyngraph.t -> t
(** One pass over the arena's used rows in slot order; O(n) time,
    O(1) space, no CSR. *)
