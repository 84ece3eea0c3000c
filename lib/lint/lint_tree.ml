(* The structural summary churnet-lint's semantic rules read, built from
   the compiler's own Parsetree.

   Every construct is recorded as an inclusive token-index span into the
   Lint_lexer token array: a Location.t maps to the tokens that start
   inside it, found by binary search over the token positions (both come
   from the compiler's lexer over the same source, so they agree). *)

type span = { s_first : int; s_last : int }

type param_kind = Positional | Labelled | Optional

type param = { p_name : string; p_kind : param_kind }

type binding = {
  b_name : string;
  b_params : param list;
  b_module_path : string list;
  b_toplevel : bool;
  b_span : span;
  b_body : span;
  b_name_index : int;
}

type open_decl = { o_module : string; o_scope : span }

type lambda = { l_span : span; l_params : string list }

type t = {
  bindings : binding array;
  opens : open_decl array;
  aliases : (string * string) array;
  includes : string array;
  lambdas : lambda array;
  ast : Parsetree.structure;
}

let empty =
  {
    bindings = [||];
    opens = [||];
    aliases = [||];
    includes = [||];
    lambdas = [||];
    ast = [];
  }

let span_contains outer i = i >= outer.s_first && i <= outer.s_last
let span_within inner outer =
  inner.s_first >= outer.s_first && inner.s_last <= outer.s_last

let first_token_at (lex : Lint_lexer.t) (p : Lexing.position) =
  let tks = lex.Lint_lexer.tokens in
  let line = p.pos_lnum and col = p.pos_cnum - p.pos_bol + 1 in
  let before (tk : Lint_lexer.token) =
    tk.line < line || (tk.line = line && tk.col < col)
  in
  let lo = ref 0 and hi = ref (Array.length tks) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if before tks.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

let span_of lex (loc : Location.t) =
  { s_first = first_token_at lex loc.loc_start;
    s_last = first_token_at lex loc.loc_end - 1 }

(* The variables a pattern binds, in source order. *)
let pattern_vars (p : Parsetree.pattern) =
  let vars = ref [] in
  let pat it (q : Parsetree.pattern) =
    (match q.ppat_desc with Ppat_var v -> vars := v :: !vars | _ -> ());
    Ast_iterator.default_iterator.pat it q
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  List.rev !vars

(* The name a pattern binds, as the rules know it: its first variable,
   ["()"] for unit, ["_"] when it binds nothing; and where that is. *)
let binder (p : Parsetree.pattern) =
  match (pattern_vars p, p.ppat_desc) with
  | v :: _, _ -> (v.txt, v.loc.loc_start)
  | [], Ppat_construct ({ txt = Lident "()"; _ }, None) -> ("()", p.ppat_loc.loc_start)
  | [], _ -> ("_", p.ppat_loc.loc_start)

let rec alias_target (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident lid -> Some (Longident.last lid.txt)
  | Pmod_apply (f, _) | Pmod_constraint (f, _) -> alias_target f
  | _ -> None

let summarize (lex : Lint_lexer.t) ast =
  let bindings = ref [] and opens = ref [] and aliases = ref [] in
  let includes = ref [] and lambdas = ref [] in
  let span = span_of lex in
  (* enclosing submodules, innermost first, and the last token of the
     structure an open there stays in force for *)
  let path = ref [] and scope_end = ref (Array.length lex.Lint_lexer.tokens - 1) in
  (* A binding's parameters are the compiler's ghost [fun] nodes for
     [let f x ~y = ...]; a return annotation [let f x : t = ...] is a
     constraint whose type precedes its body.  What remains is the body. *)
  let record ~toplevel (vb : Parsetree.value_binding) =
    let rec peel params (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_fun (label, _, pat, body) when e.pexp_loc.loc_ghost ->
          let p_name, p_kind =
            match label with
            | Nolabel -> (fst (binder pat), Positional)
            | Labelled l -> (l, Labelled)
            | Optional l -> (l, Optional)
          in
          peel ({ p_name; p_kind } :: params) body
      | Pexp_newtype (_, body) when e.pexp_loc.loc_ghost -> peel params body
      | Pexp_constraint (body, ty)
        when ty.ptyp_loc.loc_start.pos_cnum < body.pexp_loc.loc_start.pos_cnum ->
          peel params body
      | _ -> (List.rev params, e)
    in
    let params, body = peel [] vb.pvb_expr in
    let b_name, at = binder vb.pvb_pat in
    let b_span = span vb.pvb_loc in
    bindings :=
      {
        b_name;
        b_params = params;
        b_module_path = List.rev !path;
        b_toplevel = toplevel;
        b_span;
        b_body =
          { s_first = first_token_at lex body.pexp_loc.loc_start; s_last = b_span.s_last };
        b_name_index = first_token_at lex at;
      }
      :: !bindings
  in
  let default = Ast_iterator.default_iterator in
  let structure_item it (item : Parsetree.structure_item) =
    (match item.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter (record ~toplevel:true) vbs
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        let s_first = first_token_at lex item.pstr_loc.loc_start in
        opens :=
          { o_module = Longident.last lid.txt; o_scope = { s_first; s_last = !scope_end } }
          :: !opens
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        includes := Longident.last lid.txt :: !includes
    | _ -> ());
    default.structure_item it item
  in
  let module_binding it (mb : Parsetree.module_binding) =
    let saved = !path in
    (match mb.pmb_name.txt with
    | Some name ->
        Option.iter (fun target -> aliases := (name, target) :: !aliases)
          (alias_target mb.pmb_expr);
        path := name :: saved
    | None -> ());
    default.module_binding it mb;
    path := saved
  in
  let module_expr it (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_structure _ ->
        let saved = !scope_end in
        scope_end := (span me.pmod_loc).s_last;
        default.module_expr it me;
        scope_end := saved
    | _ -> default.module_expr it me
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) -> List.iter (record ~toplevel:false) vbs
    | (Pexp_fun _ | Pexp_function _) when not e.pexp_loc.loc_ghost ->
        (* [fun x y -> ...] is one lambda whose later parameters are the
           compiler's ghost [fun]s; a [function]'s cases bind per case *)
        let rec params (e : Parsetree.expression) =
          match e.pexp_desc with
          | Pexp_fun (_, _, pat, body) ->
              List.map (fun (v : string Location.loc) -> v.txt) (pattern_vars pat)
              @ if body.pexp_loc.loc_ghost then params body else []
          | _ -> []
        in
        lambdas := { l_span = span e.pexp_loc; l_params = params e } :: !lambdas
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, _) ->
        opens := { o_module = Longident.last lid.txt; o_scope = span e.pexp_loc } :: !opens
    | _ -> ());
    default.expr it e
  in
  let it = { default with structure_item; module_binding; module_expr; expr } in
  it.structure it ast;
  (* source order: a chain's [and] bindings are recorded before the
     bodies of its earlier members are walked *)
  let by_start a b = Int.compare a.b_span.s_first b.b_span.s_first in
  {
    bindings = Array.of_list (List.stable_sort by_start (List.rev !bindings));
    opens = Array.of_list (List.rev !opens);
    aliases = Array.of_list (List.rev !aliases);
    includes = Array.of_list (List.rev !includes);
    lambdas = Array.of_list (List.rev !lambdas);
    ast;
  }

let parse src lex =
  match Parse.implementation (Lint_lexer.lexbuf src) with
  | ast -> Ok (summarize lex ast)
  | exception exn -> (
      match Lint_lexer.diagnose src exn with
      | Some d -> Error d
      | None -> raise exn)

(* The innermost toplevel binding containing token [i], preferring later
   (more deeply nested) bindings on ties. *)
let enclosing_toplevel t i =
  let best = ref None in
  Array.iter
    (fun bd ->
      if bd.b_toplevel && span_contains bd.b_span i then
        match !best with
        | None -> best := Some bd
        | Some prev ->
            let w b = b.b_span.s_last - b.b_span.s_first in
            if w bd <= w prev then best := Some bd)
    t.bindings;
  !best
