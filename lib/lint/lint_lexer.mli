(** The token stream churnet-lint's rules read, cut by the compiler's
    own lexer ([compiler-libs]).

    [lex] splits a source file into its {e code tokens} and its
    {e comments}, which is exactly the distinction the lint rules need:
    token rules must never fire on text inside a comment, a string
    literal, a quoted string or a character literal, while suppression
    pragmas live inside comments.

    Token text is the source slice of each compiler token, so [->]
    arrives as one token and [Foo.bar] as three.  Two conventions differ
    from the compiler's tokens, because the rules read them this way:
    a label [~x:] / [?x:] arrives as three tokens ([~], [x], [:]), and
    a type variable ['a] as [a] alone.

    String, quoted-string and character literals produce no tokens at
    all: lint rules only ever see real code. *)

type token = {
  text : string;  (** the lexeme, e.g. ["Hashtbl"], ["."], ["->"] *)
  line : int;  (** 1-based line of the first character *)
  col : int;  (** 1-based column of the first character *)
}

type comment = {
  c_text : string;  (** comment body without the outer [(*]/[*)] *)
  c_line : int;  (** 1-based line where the comment opens *)
  c_end_line : int;  (** 1-based line where the comment closes *)
}

type diagnostic = {
  d_message : string;  (** what is malformed, e.g. unterminated comment *)
  d_line : int;  (** 1-based line of the offending construct *)
  d_col : int;  (** 1-based column of the offending construct *)
}

type t = {
  tokens : token array;  (** code tokens, in source order *)
  comments : comment array;  (** comments, in source order *)
  diagnostics : diagnostic array;
      (** at most one: the lexical error that stopped the scan
          (unterminated comment or string, illegal character),
          positioned at the opener of an unterminated construct, so a
          silent truncation of the tail of a file is never invisible *)
}

val lex : string -> t
(** [lex source] tokenizes [source].  Malformed input never raises:
    scanning stops at the first lexical error, the tokens and comments
    before it are kept, and the error is reported in {!t.diagnostics}.
    Line endings are the compiler's: LF or CRLF. *)

val lexbuf : string -> Lexing.lexbuf
(** A lexing buffer over [source], set up the way {!lex} reads it:
    documentation comments arrive as plain comments and the compiler's
    lexer warnings stay quiet.  {!Lint_tree.parse} parses through it. *)

val diagnose : string -> exn -> diagnostic option
(** [diagnose source e] turns a compiler-libs [Lexer.Error] or
    [Syntaxerr.Error] raised on [source] into a diagnostic at the
    compiler's position; [None] for any other exception. *)
