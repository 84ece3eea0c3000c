(** Information-theoretic helpers.

    The paper's key technical tool for the Poisson model with edge
    regeneration (Section 4.3.1) interprets the log-probability that an age
    "demographic" fails to expand as a Kullback-Leibler divergence between
    two distributions over age slices, and applies the KL non-negativity
    inequality (Theorem A.3).  These functions implement that machinery and
    are used by the demographics experiment (F9). *)

val entropy : float array -> float
(** Shannon entropy in nats of a probability vector (0 log 0 = 0). *)

val kl_divergence : float array -> float array -> float
(** [kl_divergence p q] = sum p_i ln (p_i / q_i).  Returns [infinity] when
    [p] puts mass where [q] has none; raises [Invalid_argument] on length
    mismatch. *)

val normalize : float array -> float array
(** Scale a non-negative vector to sum to 1.  Raises on zero or negative
    total mass. *)

val of_counts : int array -> float array
(** Empirical distribution from counts. *)

val total_variation : float array -> float array -> float
(** Total variation distance, (1/2) * L1. *)
