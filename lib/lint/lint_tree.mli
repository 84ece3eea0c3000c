(** The structural summary churnet-lint's semantic rules read, built
    from the compiler's own Parsetree ([compiler-libs]).

    The call graph needs just enough structure to attribute references:
    which let-bindings exist (with their parameters, module path and
    nesting), which modules a file opens, aliases or includes, and which
    names each lambda binds.  Every construct is recorded as an inclusive
    token-index range into [lex.tokens], so a rule can tell which binding
    a Parsetree node lies in, and its findings land on real tokens (a
    binding's on its [let]/[and]).  Rules that match constructs walk
    {!t.ast} itself.

    Every non-empty span satisfies [0 <= s_first] and
    [s_last <= Array.length lex.tokens - 1]; a binding's name and body
    lie within its binding span, and any two binding spans are either
    disjoint or nested. *)

type span = {
  s_first : int;  (** first token index of the construct (inclusive) *)
  s_last : int;  (** last token index (inclusive) *)
}

type param_kind = Positional | Labelled | Optional

type param = {
  p_name : string;  (** parameter name; ["_"] or ["()"] when patterned *)
  p_kind : param_kind;
}

type binding = {
  b_name : string;  (** bound name; ["_"]/["()"] for pattern bindings *)
  b_params : param list;  (** parameters, in source order *)
  b_module_path : string list;
      (** enclosing submodule path within the file, outermost first *)
  b_toplevel : bool;  (** structure item (no closing [in])? *)
  b_span : span;  (** whole binding, from its [let]/[and] *)
  b_body : span;
      (** the right-hand side after [=]; may be {e empty}
          ([s_first > s_last]) when the body is literal-only, since
          literals contribute no lexer tokens *)
  b_name_index : int;  (** token index of the bound name *)
}

type open_decl = {
  o_module : string;  (** last segment of the opened path *)
  o_scope : span;  (** tokens where the open is in force *)
}

type lambda = {
  l_span : span;  (** the [fun]/[function] expression *)
  l_params : string list;
      (** variables its parameter patterns bind; none for [function],
          whose cases bind per case *)
}

type t = {
  bindings : binding array;
  opens : open_decl array;
  aliases : (string * string) array;
      (** [module A = B] aliases: (alias, last segment of target) *)
  includes : string array;  (** last segments of [include]d paths *)
  lambdas : lambda array;  (** [fun]/[function] expressions *)
  ast : Parsetree.structure;  (** the parse itself, for rules that match on it *)
}

val empty : t
(** The summary of a file that does not parse: nothing in it. *)

val parse : string -> Lint_lexer.t -> (t, Lint_lexer.diagnostic) result
(** [parse source lex] parses [source] (whose tokens are [lex]) as an
    implementation.  Malformed input never raises: a file that does not
    lex or parse is [Error] with the compiler's message and position. *)

val first_token_at : Lint_lexer.t -> Lexing.position -> int
(** Index of the first token that starts at or after the position;
    [Array.length lex.tokens] when none does. *)

val span_contains : span -> int -> bool
(** [span_contains s i] is true when token index [i] lies in [s]. *)

val span_within : span -> span -> bool
(** [span_within inner outer]: does [inner] lie entirely in [outer]? *)

val enclosing_toplevel : t -> int -> binding option
(** Innermost {e top-level} binding whose span contains token [i] — the
    unit of the call graph. *)
