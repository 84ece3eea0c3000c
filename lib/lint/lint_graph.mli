(** Cross-file symbol index and call graph for churnet-lint.

    Nodes are top-level bindings (functions {e and} module-level
    values) of every parsed unit; edges are resolved identifier
    references — qualified paths through each unit's module aliases,
    and bare identifiers through same-file bindings and
    [open]/[include] scopes, with shadowing by parameters, nested lets
    and lambda parameters honored.

    Resolution is a total heuristic over tokens: it
    over-approximates edges rather than raising, which is the right
    bias for reachability-style rules (hot-path-alloc,
    no-io-transitive) and reference-counting rules (dead-export). *)

type def = {
  d_id : int;  (** index into {!t.defs} *)
  d_unit : int;  (** index into {!t.units} *)
  d_module : string;  (** file module name, e.g. ["Flood"] *)
  d_submodule : string list;  (** submodule path within the file *)
  d_name : string;
  d_params : Lint_tree.param list;
  d_span : Lint_tree.span;  (** whole binding *)
  d_body : Lint_tree.span;  (** right-hand side *)
  d_line : int;  (** 1-based line of the bound name *)
  d_col : int;  (** 1-based column of the bound name *)
}

type unit_info = {
  u_path : string;
  u_module : string;  (** derived from the basename, e.g. ["Flood"] *)
  u_lex : Lint_lexer.t;
  u_tree : Lint_tree.t;
}

type t = {
  units : unit_info array;
  defs : def array;
  calls : int list array;  (** def id -> callee def ids *)
  callers : int list array;  (** def id -> caller def ids *)
  external_refs : (string * string, int) Hashtbl.t;
      (** (module, name) -> number of references from other units;
          includes qualified references to values without a parsed def
          (pattern bindings, interface-only names) *)
}

val module_of_path : string -> string
(** ["lib/core/flood.ml"] -> ["Flood"]. *)

val build : (string * Lint_lexer.t * Lint_tree.t) list -> t
(** [build units] indexes the given (path, lexed, parsed) units and
    resolves references between them.  Total: never raises. *)

val find_defs : t -> f:(def -> bool) -> int list
(** Def ids satisfying [f], in definition order. *)

val find_def : t -> module_:string -> name:string -> int list
(** Def ids matching exactly (file module, bound name). *)

val bfs : t -> edges:[ `Calls | `Callers ] -> roots:int list -> int array
(** Breadth-first reachability from [roots] over the chosen edge
    direction.  Returns the predecessor array: [pred.(d)] is the node
    through which [d] was first reached, [d] itself for a root, and
    [-1] when unreachable. *)

val path : t -> pred:int array -> int -> def list
(** The witness chain from a root to the given def id under a {!bfs}
    predecessor array, root first; empty when unreachable. *)

val external_ref_count : t -> module_:string -> name:string -> int
(** How many references to [module_.name] were seen from {e other}
    units — the dead-export test. *)
