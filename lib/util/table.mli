(** Plain-text table rendering for experiment reports, plus CSV output.
    Every experiment prints its "paper vs measured" rows through
    this module so the output is uniform and machine-greppable. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; short rows are padded with empty cells. *)

val render : t -> string
(** Render with aligned ASCII borders. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines). *)

val to_json : t -> Json.t
(** [{"headers": [...], "rows": [[...], ...]}] — cells stay the strings
    that the text rendering shows, so the JSON mirrors the report. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

(** {1 Cell formatting helpers} *)

val fmt_float : ?digits:int -> float -> string
(** Fixed-point with [digits] decimals (default 4); handles nan/inf. *)

val fmt_pct : float -> string
(** Render a proportion as a percentage with 2 decimals. *)

val fmt_ci : float * float -> string
(** Render an interval as "[lo, hi]". *)

val fmt_sci : float -> string
(** Scientific notation with 3 significant digits. *)
