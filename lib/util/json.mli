(** Dependency-free JSON values: a writer (compact and pretty) plus a
    small recursive-descent parser, used by the observability layer
    (report/telemetry serialization, sweep trajectories).

    Non-finite floats have no JSON representation; the writer emits
    [null] for nan/inf, so numeric fields that may be undefined parse
    back as [Null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Construction helpers} *)

val float_opt : float option -> t
(** [Float v] for [Some v], [Null] for [None]. *)

val of_finite : float -> t
(** [Float v] when [v] is finite, [Null] otherwise — what the writer
    would emit anyway, made explicit at construction time. *)

(** {1 Writing} *)

val to_string : ?pretty:bool -> t -> string
(** Serialize. Compact by default ([{"a":1}]); [~pretty:true] indents
    with two spaces. Strings are escaped per RFC 8259; non-finite
    floats become [null]; finite floats round-trip exactly. *)

val write_file : ?pretty:bool -> string -> t -> unit
(** Write to a file (truncating), with a trailing newline. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document. Numbers without ['.'], ['e'] or
    ['E'] parse as [Int] (falling back to [Float] on overflow); the
    error string includes the byte offset of the failure. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Failure] on malformed input. *)

(** {1 Accessors} (all total — [None]/[[]] on shape mismatch) *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val as_string : t -> string option
val as_bool : t -> bool option
val as_int : t -> int option

val as_float : t -> float option
(** Accepts both [Float] and [Int]. *)

val as_list : t -> t list
(** The elements of an [Arr]; [[]] for anything else. *)
