(** Spectral certificates for expansion.

    Power iteration estimates the second eigenvalue of the lazy random
    walk on the largest connected component; Cheeger's inequality then
    gives a conductance lower bound, and a sweep cut over the eigenvector
    embedding yields candidate low-expansion sets (the classic way to
    {e find} bad cuts if they exist): the prefixes of {!sweep_order}. *)

type report = {
  lambda2 : float;  (** second eigenvalue of the lazy walk (in [1/2, 1]) *)
  spectral_gap : float;  (** 1 - lambda2 *)
  cheeger_lower : float;  (** conductance >= gap / 2 (edge conductance) *)
  sweep_conductance : float;  (** best conductance found by the sweep cut *)
  sweep_set_size : int;
  component_size : int;  (** vertices in the component analyzed *)
}

val analyze : ?iters:int -> Churnet_graph.Snapshot.t -> report
(** Analyze the largest component.  [iters] defaults to 300 power-iteration
    steps. *)

val sweep_order : Churnet_graph.Snapshot.t -> int array
(** The largest component's vertices (snapshot indices) in the order of
    the eigenvector sweep after 150 power-iteration steps, empty when the
    component has fewer than 4 vertices.  {!Probe} scores its prefixes
    as vertex-expansion candidates. *)

val analyze_with_sweep_order :
  ?iters:int -> Churnet_graph.Snapshot.t -> report * int array
(** [(analyze ~iters snap, sweep_order snap)], bit for bit, from one power
    iteration of [max iters 150] steps instead of two. *)
