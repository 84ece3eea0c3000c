(** The churnet-lint rule catalogue.

    Two rule families share it:

    - {e file rules} are pure functions from one lexed and parsed
      source file to findings, matched on its Parsetree: the names it
      reads (no-stdlib-random, no-polymorphic-sort, no-hashtbl-order,
      no-wallclock, no-print-in-lib) or its constructs
      (no-wildcard-exn's handlers);
    - {e project rules} consume the whole-project semantic pass — the
      {!Lint_tree} structural parse of every unit plus the
      {!Lint_graph} symbol index / call graph — and can therefore see
      dataflow (prng-flow), reachability (no-io-transitive,
      hot-path-alloc) and cross-file reference counts (dead-export).
      Their findings may carry a {e witness}: the call path that proves
      the claim.

    Names resolve through one resolver: a library wrapper ([Stdlib.],
    [Churnet_util.]) is stripped, the head module follows the unit's
    [module A = B] aliases, and a bare name also reads as qualified by
    every module opened where it stands ([open M], [let open M in],
    [M.(...)]), so each banned name is one table entry.  Tokens only
    place findings (and feed dead-export's [.mli] scan), so a banned
    construct mentioned in a comment or inside a string never fires.

    The catalogue guards the determinism contract of the reproduction:
    all randomness flows through [Prng] streams threaded from the
    experiment seed, all orderings are explicit, nothing in [lib/]
    writes to stdout behind the report layer's back, and the kernel hot
    paths stay allocation-lean. *)

type finding = {
  rule : string;  (** rule name, e.g. ["prng-flow"] *)
  file : string;  (** normalized repo-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  message : string;
  witness : string list;
      (** for graph rules: the call path supporting the finding,
          outermost first (e.g.
          [["Flood.expand_informed"; "Bitset.iter"]]); empty for file
          rules *)
}

type context = {
  path : string;  (** normalized repo-relative path, '/'-separated *)
  lex : Lint_lexer.t;
  tree : Lint_tree.t;  (** {!Lint_tree.empty} when the file does not parse *)
  has_mli : bool;  (** a sibling interface file exists for this [.ml] *)
}

type project = {
  p_graph : Lint_graph.t;  (** index over every scanned [.ml] unit *)
  p_interfaces : (string * Lint_lexer.t) list;
      (** every scanned [.mli], as (path, lexed) *)
}

type check =
  | File of (context -> finding list)  (** runs once per file *)
  | Project of (project -> finding list)  (** runs once per lint run *)
  | Synthetic
      (** emitted by the engine itself (unused-pragma needs the
          suppression machinery); listed here so the catalogue, pragmas
          and docs stay complete *)

type rule = {
  name : string;
  doc : string;  (** one-line description for [--list-rules] and JSON *)
  check : check;
}

val all : rule list
(** The full catalogue, in documentation order. *)

val names : string list
(** Names of every rule in {!all}. *)

val is_rule : string -> bool
(** [is_rule name] is true when [name] names a rule in {!all} (used to
    validate suppression pragmas). *)

val compare_findings : finding -> finding -> int
(** Total order: file, then line, then column, then rule name. *)
