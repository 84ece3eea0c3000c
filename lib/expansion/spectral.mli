(** Spectral certificates for expansion.

    Power iteration estimates the second eigenvalue of the lazy random
    walk on the largest connected component; Cheeger's inequality then
    gives a conductance lower bound, and a sweep cut over the eigenvector
    embedding yields candidate low-expansion sets (the classic way to
    {e find} bad cuts if they exist). *)

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

val sweep_sets : Churnet_graph.Snapshot.t -> int array list
(** Prefix sets (component indices, mapped back to snapshot indices) of
    the eigenvector sweep after 150 power-iteration steps, for use as
    vertex-expansion candidates. *)

val analyze_with_sweep_sets :
  ?iters:int -> Churnet_graph.Snapshot.t -> report * int array list
(** [(analyze ~iters snap, sweep_sets snap)], bit for bit, from one power
    iteration of [max iters 150] steps instead of two. *)
