type token = { text : string; line : int; col : int }
type comment = { c_text : string; c_line : int; c_end_line : int }
type diagnostic = { d_message : string; d_line : int; d_col : int }

type t = {
  tokens : token array;
  comments : comment array;
  diagnostics : diagnostic array;
}

let line_col (p : Lexing.position) = (p.pos_lnum, p.pos_cnum - p.pos_bol + 1)

(* The compiler's own messages, except for the three that reach end of
   file: those keep the wording the reports have always used. *)
let diagnose src exn =
  let at (loc : Location.t) message =
    let d_line, d_col = line_col loc.loc_start in
    Some { d_message = message; d_line; d_col }
  in
  let compiler_text () =
    match Location.error_of_exn exn with
    | Some (`Ok report) -> Format.asprintf "%t" report.Location.main.txt
    | Some `Already_displayed | None -> Printexc.to_string exn
  in
  match exn with
  | Lexer.Error (Lexer.Unterminated_comment _, loc) ->
      at loc "unterminated comment (reaches end of file)"
  | Lexer.Error (Lexer.Unterminated_string, loc) ->
      if src.[loc.loc_start.pos_cnum] = '{' then
        at loc "unterminated quoted string literal (reaches end of file)"
      else at loc "unterminated string literal (reaches end of file)"
  | Lexer.Error (_, loc) -> at loc (compiler_text ())
  | Syntaxerr.Error e -> at (Syntaxerr.location_of_error e) (compiler_text ())
  | _ -> None

(* Documentation comments arrive as plain comments, and the lexer's
   own warnings (a comment opener that may be a mistyped operator) stay
   quiet: the linter reports, it does not compile. *)
let lexbuf src =
  Lexer.init ();
  Lexer.handle_docstrings := false;
  Lexer.print_warnings := false;
  Lexing.from_string src

let lex src =
  let lb = lexbuf src in
  let tokens = ref [] and comments = ref [] and diagnostics = ref [] in
  let emit text (p : Lexing.position) =
    let line, col = line_col p in
    tokens := { text; line; col } :: !tokens
  in
  (* [~x:] and [?x:] arrive as one token; the rules read the prefix,
     the name and the colon separately, as they appear in the source. *)
  let emit_label prefix name (p : Lexing.position) =
    emit prefix p;
    emit name { p with pos_cnum = p.pos_cnum + 1 };
    emit ":" { p with pos_cnum = p.pos_cnum + 1 + String.length name }
  in
  let rec go () =
    match Lexer.token_with_comments lb with
    | Parser.EOF -> ()
    | Parser.COMMENT (c_text, loc) ->
        comments :=
          { c_text; c_line = loc.loc_start.pos_lnum; c_end_line = loc.loc_end.pos_lnum }
          :: !comments;
        go ()
    (* Literals are not code, and a type variable's quote is dropped so
       ['a] reads as [a]. *)
    | Parser.STRING _ | Parser.CHAR _ | Parser.QUOTED_STRING_EXPR _
    | Parser.QUOTED_STRING_ITEM _ | Parser.DOCSTRING _ | Parser.EOL | Parser.QUOTE ->
        go ()
    | Parser.LABEL name -> emit_label "~" name lb.lex_start_p; go ()
    | Parser.OPTLABEL name -> emit_label "?" name lb.lex_start_p; go ()
    | _ ->
        let p = lb.lex_start_p in
        emit (String.sub src p.pos_cnum (lb.lex_curr_p.pos_cnum - p.pos_cnum)) p;
        go ()
    | exception exn -> (
        match diagnose src exn with
        | Some d -> diagnostics := [ d ]
        | None -> raise exn)
  in
  go ();
  {
    tokens = Array.of_list (List.rev !tokens);
    comments = Array.of_list (List.rev !comments);
    diagnostics = Array.of_list !diagnostics;
  }
