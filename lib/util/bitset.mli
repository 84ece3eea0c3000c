(** Compact bitset over 0..capacity-1.
    Used for informed-set membership during large floods.

    The capacity is fixed by {!create} but can be raised explicitly with
    {!ensure_capacity} (amortized-O(1) doubling), which lets flooding
    simulations track node ids that keep growing with churn.  All other
    operations raise [Invalid_argument] outside [0, capacity). *)

type t

val create : int -> t
val capacity : t -> int

val ensure_capacity : t -> int -> unit
(** [ensure_capacity t c] grows the index space to at least [c] (to at
    least double the current capacity when growing, so repeated one-id
    extensions stay amortized O(1)).  Existing members are preserved;
    shrinking never happens. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val cardinal : t -> int
val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Ascending order.  The scan is word-level: all-zero 8-byte words are
    skipped with one load, and only set bits pay per-bit work.  [f] may
    remove the element it was just called on (each byte of the underlying
    store is snapshotted before its bits are visited); any other
    concurrent mutation is unspecified. *)

val iter_words : (int -> int64 -> unit) -> t -> unit
(** [iter_words f t] calls [f offset word] for each 64-bit little-endian
    word of the store, [offset] being the index of the word's lowest bit
    (a multiple of 64).  The final word is zero-padded when the store is
    not a multiple of 8 bytes.  Bit [i] of [word] set means
    [mem t (offset + i)]. *)
