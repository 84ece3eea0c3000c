(** E13: the XL tier — the PDG at populations up to 10⁶ under live churn,
    advanced by the churn runners' one-pass arena batches
    ([Poisson_model.warm_up]) and measured through
    [Churnet_graph.Stream_stats] so no CSR snapshot is ever built.
    Re-checks Lemma 4.4 (stationary band), Lemma 4.10 (isolated nodes)
    and Theorems 4.12/4.13 (fast partial coverage) at scale. *)

val e13 : seed:int -> scale:Scale.t -> Report.t
