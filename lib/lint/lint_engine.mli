(** churnet-lint driver: file discovery, the shared per-file parse
    cache, suppression pragmas and report assembly.

    Every scanned file is read, lexed and (for [.ml]) structurally
    parsed exactly once; file rules, project rules (symbol index + call
    graph via {!Lint_graph}), pragma parsing and syntax diagnostics all
    consume that one parse, so adding rules does not add file I/O.

    Suppression pragmas live in ordinary comments (in [.ml] {e and}
    [.mli] files):

    {v
    (* lint: allow <rule> — reason *)        suppress on this and the next line
    (* lint: allow-file <rule> — reason *)   suppress in the whole file
    v}

    A pragma must name a known rule and carry a non-empty reason (after
    an optional "—" or "--" separator); otherwise it is itself reported
    under the synthetic rule [bad-pragma].  A pragma that suppresses
    {e nothing} is reported under [unused-pragma], so suppressions
    expire with the code they excused.  A file that does not lex or
    parse is one finding under the synthetic rule [bad-syntax], at the
    compiler's error position (an unterminated comment or string at its
    opener); the rest of the run goes on.

    There is no baseline: every unsuppressed finding fails the run. *)

type config = {
  paths : string list;  (** files or directories to scan *)
  root : string option;
      (** interpret [paths] (and report findings) relative to this
          directory; rules key off repo-relative prefixes like "lib/",
          so fixture trees are linted with their own root *)
  json_path : string option;  (** write a [churnet-lint/3] report here *)
}

type outcome = {
  findings : Lint_rules.finding list;  (** unsuppressed findings, sorted *)
  suppressed : int;  (** findings silenced by pragmas *)
  files_scanned : int;  (** [.ml] and [.mli] files *)
}

val engine_rules : string list
(** The rules the engine reports itself, outside {!Lint_rules.all}:
    [bad-pragma] and [bad-syntax]. *)

val engine_rule_docs : (string * string) list
(** {!engine_rules} with the one-line description that [--list-rules]
    prints and the JSON report gives their findings. *)

val run : config -> (outcome, string) result
(** Scan, lint, apply pragmas, and honor [json_path].  [Error msg]
    reports unusable inputs (a missing path, an unreadable file); it
    never raises. *)

val render_finding : Lint_rules.finding -> string
(** One [file:line:col: [rule] message [path: A -> B]] line, without
    the newline; the path part only for graph rules. *)

val render : outcome -> string
(** Human-readable report: {!render_finding} per finding plus a
    summary line. *)

val to_json : outcome -> Churnet_util.Json.t
(** The [churnet-lint/3] report document: each finding carries its
    rule's one-line doc and (for graph rules) the witness call path. *)

val exit_code : outcome -> int
(** [0] when {!outcome.findings} is empty, [1] otherwise. *)
