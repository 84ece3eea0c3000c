(** Uniform experiment output: a set of paper-vs-measured checks plus the
    tables and rendered ASCII figures that regenerate the corresponding
    cell of Table 1 (or a derived figure). *)

type check = {
  claim : string;  (** what the paper asserts, in one line *)
  expected : string;  (** the paper's quantitative prediction, rendered *)
  measured : string;  (** what the simulation produced, rendered *)
  expected_value : float option;
      (** the paper-side number behind [expected], when the check is a
          single scalar comparison (threshold, bound, target) *)
  measured_value : float option;
      (** the measured number behind [measured], when scalar *)
  holds : bool;  (** whether the measured value is on the paper's side *)
}

type t = {
  id : string;
  title : string;
  checks : check list;
  tables : Churnet_util.Table.t list;
  figures : string list;  (** pre-rendered ASCII charts *)
}

val check :
  claim:string -> expected:string -> measured:string -> holds:bool -> check
(** Display-string-only check ([expected_value]/[measured_value] stay
    [None]): for checks over whole distributions or multi-column tables
    where no single scalar pair exists. *)

val check_values :
  claim:string ->
  expected:string ->
  measured:string ->
  expected_value:float ->
  measured_value:float ->
  holds:bool ->
  check
(** Like {!check} but additionally carries the machine-readable scalar
    pair behind the display strings, so JSON consumers can diff the
    numbers across commits instead of parsing formatted text. *)

val make : id:string -> title:string -> ?tables:Churnet_util.Table.t list ->
  ?figures:string list -> check list -> t

val all_hold : t -> bool
val render : t -> string
(** Human-readable block: header, checks with PASS/FAIL markers, tables,
    figures.  Byte-identical to the rendering before the JSON layer
    existed — serialization never changes the text output. *)

val summary_row : t -> string list
(** [id; title; "k/m checks hold"] for the final summary table. *)

val to_json : ?telemetry:Telemetry.t -> t -> Churnet_util.Json.t
(** Object with id, title, all_hold, checks (each with claim / expected /
    measured display strings, nullable expected_value / measured_value
    floats and holds), tables (via {!Churnet_util.Table.to_json}),
    figures, and — when provided — the run's telemetry. *)
