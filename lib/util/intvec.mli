(** Growable int vector with O(1) amortized push and O(1) reuse via
    {!clear} (no shrinking).  The simulation kernels keep one per run as
    scratch space, so the per-round hot loops allocate nothing. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16) is the initial backing-store size; must be
    >= 1. *)

val length : t -> int

val clear : t -> unit
(** Logical reset; the backing store is kept for reuse. *)

val push : t -> int -> unit
val get : t -> int -> int

val set : t -> int -> int -> unit
(** [set t i v] overwrites element [i] (which must be below {!length});
    raises [Invalid_argument] otherwise. *)

val pop : t -> int
(** Remove and return the last element; raises [Invalid_argument] when
    empty.  Together with {!push} this makes an [Intvec] a LIFO stack
    (the graph arena's free-slot list). *)

val sort_uniq : t -> unit
(** Sort ascending and remove duplicates, in place and without
    allocating: afterwards the vector holds exactly the elements of
    [List.sort_uniq Int.compare] over its old contents.  Insertion sort,
    meant for the short vectors of the graph's neighbourhood queries. *)

val iter : (int -> unit) -> t -> unit

val encode : Codec.writer -> t -> unit
(** Serialize the live prefix for checkpoints (capacity is not state). *)

val decode : Codec.reader -> t
