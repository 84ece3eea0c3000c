(** A local-update protocol in the streaming churn model, in the spirit of
    Duchon and Duvignau [12]: the network maintains (near-)d-out-regularity
    through {e edge takeover} instead of fresh uniform sampling.

    - Insertion: the newborn [u] picks d uniformly random "donor" nodes;
      each donor redirects one uniformly-chosen out-link to [u], and [u]
      adopts the donor's old target as its own out-link.  Degrees are
      conserved exactly: every insertion moves d link endpoints and
      creates d new ones.
    - Deletion: the dying node's out-targets are handed over to its
      in-neighbors (whose links pointed at it), pairing them up; leftover
      in-neighbors re-sample uniformly.

    Compared to the paper's SDGR (fresh uniform re-sampling) this shows a
    second, equally decentralized way to keep the topology well-connected
    under churn — and its fingerprint differences (F10/F12). *)

val create :
  rng:Churnet_util.Prng.t -> n:int -> d:int -> unit -> Churnet_core.Streaming_model.t
(** An edge policy of {!Churnet_core.Streaming_model}. *)
