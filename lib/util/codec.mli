(** Dependency-free versioned binary codec for checkpoint files.

    Values are written field by field into a {!writer} and read back in
    the same order from a {!reader}.  A complete value is framed as

    {v <schema>\n <payload length : int64 LE> <payload> <CRC-32 : 4 bytes LE> v}

    so that readers reject wrong-schema, truncated and corrupted files
    before decoding a single field.  The current schema tag is
    {!schema} ([churnet-ckpt/1]); bump the suffix on any layout change.

    Integers use zigzag LEB128 varints (small magnitudes are one byte,
    the full native range round-trips); floats are their IEEE-754 bits
    (bit-exact round-trip, NaN payloads included). *)

exception Error of string
(** Raised on any malformed input: bad magic, bad checksum, truncation,
    out-of-range values.  Encoding never raises. *)

val schema : string
(** ["churnet-ckpt/1"] — the schema tag of every checkpoint this build
    writes. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
val contents : writer -> string
(** Raw unframed payload accumulated so far. *)

val u8 : writer -> int -> unit
val varint : writer -> int -> unit
val i64 : writer -> int64 -> unit
val f64 : writer -> float -> unit
val bool : writer -> bool -> unit
val string : writer -> string -> unit
val option : (writer -> 'a -> unit) -> writer -> 'a option -> unit
val array : (writer -> 'a -> unit) -> writer -> 'a array -> unit
val int_array : writer -> int array -> unit

(** {1 Reading} *)

type reader

val reader : ?pos:int -> ?limit:int -> string -> reader
val remaining : reader -> int
val at_end : reader -> bool

val expect_end : reader -> unit
(** Raise {!Error} unless the reader consumed its whole input — catches
    schema drift where a decoder silently ignores trailing fields. *)

val read_u8 : reader -> int
val read_varint : reader -> int
val read_i64 : reader -> int64
val read_f64 : reader -> float
val read_bool : reader -> bool
val read_string : reader -> string
val read_option : (reader -> 'a) -> reader -> 'a option
val read_array : (reader -> 'a) -> reader -> 'a array
val read_int_array : reader -> int array

(** {1 Framing and files} *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, reflected polynomial), as used by the frame
    trailer.  Exposed for tests. *)

val frame : schema:string -> (writer -> unit) -> string
(** [frame ~schema fill] runs [fill] on a fresh writer and wraps the
    payload in the magic/length/CRC envelope. *)

val unframe : schema:string -> string -> reader
(** Validate the envelope and return a reader over the payload. *)

val write_file : schema:string -> string -> (writer -> unit) -> unit
(** Framed {!frame} output written atomically and durably: the bytes go
    to a collision-safe temp sibling (pid + counter suffix, so
    concurrent writers to the same path never share staging files), are
    fsynced, and reach [path] only through [Sys.rename] — a crash at any
    point leaves either the old file or the complete new one, never a
    torn or truncated checkpoint.  A failed write removes the temp file
    and raises {!Error}. *)

val read_file : schema:string -> string -> reader
(** Read and {!unframe} a whole file. *)
