(** Immutable snapshot G_t = (N_t, E_t) of a dynamic graph, re-indexed to
    0..n-1, with the graph algorithms used by the expansion and flooding
    analyses (BFS, components, set boundaries, degree census).

    Index 0..n-1 ordering follows increasing node id, hence increasing
    birth time: index 0 is the oldest alive node.

    The adjacency is stored in CSR form (flat [offsets]/[neighbors]
    arrays): rows are sorted, distinct, and cache-linear to scan, and the
    analysis kernels (BFS, boundary, triangle counting) should iterate
    with {!iter_neighbors} / {!neighbor} / {!common_neighbors} rather than
    materializing per-row arrays with {!neighbors}. *)

type t

val make :
  ids:int array -> births:int array -> adj:int array array -> out_deg:int array -> t
(** Build a snapshot from raw arrays (used by tests and {!Event_log}
    replay).  [adj] rows must be sorted, symmetric and deduplicated;
    [ids] must be strictly increasing.  The rows are flattened into the
    CSR layout. *)

val of_csr :
  ids:int array ->
  births:int array ->
  offsets:int array ->
  adj:int array ->
  out_deg:int array ->
  t
(** Zero-copy constructor from an already-flat CSR adjacency (used by
    {!Dyngraph.snapshot}): row i is [adj.(offsets.(i)) ..
    adj.(offsets.(i+1) - 1)], sorted and distinct; [offsets] has length
    n+1 with [offsets.(0) = 0] and [offsets.(n) = Array.length adj].
    The arrays are owned by the snapshot afterwards — do not mutate. *)

val of_edges : n:int -> (int * int) list -> t
(** Convenience constructor for tests: nodes 0..n-1 with the given
    undirected edges (ids = indices, births = ids, out_deg = 0). *)

val n : t -> int
val ids : t -> int array
val id_of_index : t -> int -> int
val index_of_id : t -> int -> int option
val birth_of_index : t -> int -> int
val neighbors : t -> int -> int array
(** Adjacency of a snapshot index (distinct, sorted) as a fresh array —
    this copies the CSR row; hot paths should use {!iter_neighbors} or
    {!neighbor} instead. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Apply a function to each neighbor of an index, ascending, without
    allocating. *)

val neighbor : t -> int -> int -> int
(** [neighbor t i k] is the k-th smallest neighbor of index [i]
    (0 <= k < [degree t i]); O(1) CSR access. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge t i j] iff {i, j} is an edge — binary search in row [i],
    O(log degree). *)

val common_neighbors : t -> int -> int -> int
(** Number of shared neighbors of two indices, by sorted-row merge —
    the triangle-counting kernel of {!Metrics}. *)

val degree : t -> int -> int
val out_degree : t -> int -> int
val edge_count : t -> int
(** Number of undirected edges. *)

val max_degree : t -> int
val mean_degree : t -> float
val isolated : t -> int list
(** Snapshot indices with no neighbors. *)

val bfs : t -> int -> int array
(** [bfs t src] = distance array from snapshot index [src]; -1 means
    unreachable. *)

val components : t -> int array * int
(** Component label per index and the number of components. *)

val largest_component : t -> int
(** Size of the largest connected component. *)

val boundary : t -> Churnet_util.Bitset.t -> int array
(** Outer boundary of a set of snapshot indices:
    [∂out(S) = { v ∉ S : ∃ u ∈ S, {u,v} ∈ E }]. *)

val boundary_size : ?scratch:Churnet_util.Bitset.t -> t -> Churnet_util.Bitset.t -> int
(** [scratch], when given, is cleared and used as the dedup set instead of
    allocating a fresh bitset per call (its capacity must be >= [n]), so
    a caller that measures many sets allocates nothing per set. *)

val expansion : ?scratch:Churnet_util.Bitset.t -> t -> Churnet_util.Bitset.t -> float
(** [|∂out(S)| / |S|]; [nan] on the empty set.  [scratch] as in
    {!boundary_size}. *)

val set_of_indices : t -> int array -> Churnet_util.Bitset.t
(** Bitset over snapshot indices. *)

val degree_histogram : t -> int array
(** [h.(k)] = number of vertices with degree [k]. *)

val to_dot : ?name:string -> ?highlight:int list -> t -> string
(** Graphviz DOT rendering (undirected).  Vertices are labelled by node
    id; indices in [highlight] are filled red — handy to visualize
    informed sets or low-expansion witnesses. *)
