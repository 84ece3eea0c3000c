(** A set of ints on flat int arrays that iterates in exactly the order
    of an unrandomized [(int, unit) Stdlib.Hashtbl.t] with the same
    history of {!add} ([Hashtbl.replace]), {!remove} and {!reset}.

    The layout mirrors the stdlib table: a power-of-two array of bucket
    heads indexed by [Hashtbl.hash key], each bucket a chain of cells
    (here int arrays of keys and links, with a free-cell stack instead
    of one heap block per entry).  A new key goes to the head of its
    chain; the table doubles its buckets when the count passes twice
    their number, and the doubling keeps each chain's order; {!reset}
    shrinks back to the initial bucket count.  So a model that used to
    iterate a hash table keeps every draw that follows the table's
    order, while an insertion, a removal or a pass allocates nothing:
    the set allocates only when it grows past its largest size so far. *)

type t

val create : int -> t
(** [create n] holds [Hashtbl.create n]'s bucket count: the least power
    of two that is at least 16 and at least [n]. *)

val length : t -> int
val mem : t -> int -> bool

val add : t -> int -> unit
(** Insert a key at the head of its chain; a no-op if it is present
    (the order of [Hashtbl.replace k ()]). *)

val remove : t -> int -> unit
(** Unlink the key if present; the other keys keep their order. *)

val reset : t -> unit
(** Empty the set and go back to the initial bucket count, as
    [Hashtbl.reset] does; the storage is kept for reuse. *)

val iter : (int -> unit) -> t -> unit
(** Bucket by bucket, each chain from its head: [Hashtbl.iter]'s order.
    [f] must not change the set. *)

val to_intvec : t -> Intvec.t -> unit
(** [to_intvec s v] replaces the contents of [v] with the keys in
    {!iter} order, without a closure. *)
