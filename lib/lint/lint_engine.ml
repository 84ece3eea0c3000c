module Json = Churnet_util.Json

type config = {
  paths : string list;
  root : string option;
  json_path : string option;
}

type outcome = {
  findings : Lint_rules.finding list;
  suppressed : int;
  files_scanned : int;
}

(* Rules implemented by the engine itself rather than the catalogue:
   bad-pragma (a malformed suppression) and bad-syntax (the file does not
   lex or parse).  They are valid pragma targets. *)
let bad_pragma_rule = "bad-pragma"
let bad_syntax_rule = "bad-syntax"
let engine_rule_docs =
  [
    (bad_pragma_rule, "malformed or unreasoned lint suppression pragma");
    ( bad_syntax_rule,
      "the file does not lex or parse as OCaml; rules that read its structure did not check it, \
       nor token rules past a lexical error" );
  ]

let engine_rules = List.map fst engine_rule_docs

let known_rule name = Lint_rules.is_rule name || List.mem name engine_rules

(* ------------------------------------------------------------------ *)
(* Paths and file discovery                                            *)
(* ------------------------------------------------------------------ *)

let normalize_path p =
  let p = String.map (fun c -> if c = '\\' then '/' else c) p in
  let absolute = String.length p > 0 && p.[0] = '/' in
  let parts =
    List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' p)
  in
  (if absolute then "/" else "") ^ String.concat "/" parts

let has_suffix suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Depth-first walk in sorted order (determinism: findings must not
   depend on readdir order).  Hidden and build directories and files
   ('.'- or '_'-prefixed) are skipped. *)
let rec walk acc path =
  if Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry.[0] = '_' then acc
        else walk acc (path ^ "/" ^ entry))
      acc entries
  end
  else if has_suffix ".ml" path || has_suffix ".mli" path then
    normalize_path path :: acc
  else acc

(* Reported paths are always relative to [root] (the repo root by
   default), because the rule set keys off repo-relative prefixes like
   "lib/". *)
let collect_files ~root paths =
  let fs_of p =
    match root with
    | None -> normalize_path p
    | Some r -> normalize_path (r ^ "/" ^ p)
  in
  let rel_of fs =
    match root with
    | None -> fs
    | Some r ->
        let prefix = normalize_path r ^ "/" in
        let lp = String.length prefix in
        if String.length fs >= lp && String.sub fs 0 lp = prefix then
          String.sub fs lp (String.length fs - lp)
        else fs
  in
  let missing = List.filter (fun p -> not (Sys.file_exists (fs_of p))) paths in
  if missing <> [] then
    Error ("no such file or directory: " ^ String.concat ", " missing)
  else
    let all = List.fold_left (fun acc p -> walk acc (fs_of p)) [] paths in
    let all = List.sort_uniq String.compare all in
    let all = List.map (fun fs -> (rel_of fs, fs)) all in
    let mls = List.filter (fun (rel, _) -> has_suffix ".ml" rel) all in
    let mlis = List.filter (fun (rel, _) -> has_suffix ".mli" rel) all in
    Ok (mls, mlis)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Suppression pragmas                                                 *)
(* ------------------------------------------------------------------ *)

type pragma_kind =
  | Allow_lines of int * int  (* from line, to line inclusive *)
  | Allow_file

(* One parsed pragma, with a mutable hit count so stale ones can be
   reported under unused-pragma. *)
type pragma = {
  pg_rule : string;
  pg_kind : pragma_kind;
  pg_file : string;
  pg_line : int;
  mutable pg_hits : int;
}

let em_dash = "\xe2\x80\x94"

(* A "dash word" is any run of ASCII dashes and/or em-dashes: the
   decorative separator between a pragma's rule name and its reason. *)
let is_dash_word w =
  let n = String.length w in
  let rec go i =
    if i >= n then true
    else if w.[i] = '-' then go (i + 1)
    else if n - i >= 3 && String.sub w i 3 = em_dash then go (i + 3)
    else false
  in
  n > 0 && go 0

let split_words s =
  List.filter
    (fun w -> w <> "")
    (String.split_on_char ' '
       (String.map
          (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c)
          s))

(* Parse one comment.  Returns a pragma, a bad-pragma finding, or
   nothing when the comment is not a lint directive at all. *)
let parse_pragma ~path (c : Lint_lexer.comment) =
  let text = String.trim c.Lint_lexer.c_text in
  if not (String.length text >= 5 && String.sub text 0 5 = "lint:") then `None
  else
    let bad message =
      `Bad
        {
          Lint_rules.rule = bad_pragma_rule;
          file = path;
          line = c.Lint_lexer.c_line;
          col = 1;
          message;
          witness = [];
        }
    in
    let directive = String.trim (String.sub text 5 (String.length text - 5)) in
    match split_words directive with
    | keyword :: rule :: rest when keyword = "allow" || keyword = "allow-file"
      ->
        if not (known_rule rule) then
          bad
            (Printf.sprintf "unknown rule %S in lint pragma (known: %s)" rule
               (String.concat ", " (Lint_rules.names @ engine_rules)))
        else
          let reason =
            let rec drop_dashes words =
              match words with
              | w :: tl when is_dash_word w -> drop_dashes tl
              | _ -> words
            in
            String.concat " " (drop_dashes rest)
          in
          if String.trim reason = "" then
            bad
              (Printf.sprintf
                 "lint pragma for %S has no reason; write `(* lint: %s %s \
                  \xe2\x80\x94 why this is safe *)'"
                 rule keyword rule)
          else
            let kind =
              if keyword = "allow-file" then Allow_file
              else
                Allow_lines (c.Lint_lexer.c_line, c.Lint_lexer.c_end_line + 1)
            in
            `Pragma
              {
                pg_rule = rule;
                pg_kind = kind;
                pg_file = path;
                pg_line = c.Lint_lexer.c_line;
                pg_hits = 0;
              }
    | _ ->
        bad
          "malformed lint pragma; expected `lint: allow <rule> \xe2\x80\x94 \
           reason' or `lint: allow-file <rule> \xe2\x80\x94 reason'"

let pragmas_of ~path (lex : Lint_lexer.t) =
  Array.fold_left
    (fun (pragmas, bad) c ->
      match parse_pragma ~path c with
      | `None -> (pragmas, bad)
      | `Pragma p -> (p :: pragmas, bad)
      | `Bad f -> (pragmas, f :: bad))
    ([], []) lex.Lint_lexer.comments

(* Find the pragma suppressing [f], if any, and record the hit. *)
let suppressing_pragma pragmas (f : Lint_rules.finding) =
  match
    List.find_opt
      (fun p ->
        p.pg_file = f.Lint_rules.file
        && p.pg_rule = f.Lint_rules.rule
        &&
        match p.pg_kind with
        | Allow_file -> true
        | Allow_lines (lo, hi) ->
            f.Lint_rules.line >= lo && f.Lint_rules.line <= hi)
      pragmas
  with
  | Some p ->
      p.pg_hits <- p.pg_hits + 1;
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* One scanned source file, read / lexed / parsed exactly once and
   shared by every consumer (file rules, project rules, pragmas,
   diagnostics): the per-file parse cache that keeps @runtest latency
   flat as the rule count grows. *)
type parsed = {
  ps_rel : string;
  ps_lex : Lint_lexer.t;
  ps_tree : Lint_tree.t;  (* Lint_tree.empty for interfaces *)
  ps_diagnostics : Lint_lexer.diagnostic list;
  ps_has_mli : bool;
}

(* An implementation is parsed as well as lexed.  The parse re-reads the
   file through the same lexer, so a lexical error surfaces there again:
   its one diagnostic stands for both. *)
let load_parsed ~is_ml (rel, fs) =
  match read_file fs with
  | exception Sys_error msg -> Error msg
  | src ->
      let lex = Lint_lexer.lex src in
      let tree, diagnostics =
        if not is_ml then (Lint_tree.empty, Array.to_list lex.Lint_lexer.diagnostics)
        else
          match Lint_tree.parse src lex with
          | Ok tree -> (tree, [])
          | Error d -> (Lint_tree.empty, [ d ])
      in
      Ok
        {
          ps_rel = rel;
          ps_lex = lex;
          ps_tree = tree;
          ps_diagnostics = diagnostics;
          ps_has_mli = is_ml && Sys.file_exists (fs ^ "i");
        }

let diagnostics_findings (p : parsed) =
  List.map
    (fun (d : Lint_lexer.diagnostic) ->
      {
        Lint_rules.rule = bad_syntax_rule;
        file = p.ps_rel;
        line = d.Lint_lexer.d_line;
        col = d.Lint_lexer.d_col;
        message = d.Lint_lexer.d_message;
        witness = [];
      })
    p.ps_diagnostics

let to_json outcome =
  let finding_json (f : Lint_rules.finding) =
    let doc =
      match
        List.find_opt
          (fun (r : Lint_rules.rule) -> r.Lint_rules.name = f.Lint_rules.rule)
          Lint_rules.all
      with
      | Some r -> r.Lint_rules.doc
      | None -> Option.value ~default:"" (List.assoc_opt f.Lint_rules.rule engine_rule_docs)
    in
    Json.Obj
      [
        ("rule", Json.String f.Lint_rules.rule);
        ("doc", Json.String doc);
        ("file", Json.String f.Lint_rules.file);
        ("line", Json.Int f.Lint_rules.line);
        ("col", Json.Int f.Lint_rules.col);
        ("message", Json.String f.Lint_rules.message);
        ( "witness",
          Json.Arr
            (List.map (fun w -> Json.String w) f.Lint_rules.witness) );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "churnet-lint/3");
      ("files_scanned", Json.Int outcome.files_scanned);
      ( "rules",
        Json.Arr
          (List.map
             (fun (r : Lint_rules.rule) ->
               Json.Obj
                 [
                   ("name", Json.String r.Lint_rules.name);
                   ("doc", Json.String r.Lint_rules.doc);
                 ])
             Lint_rules.all) );
      ("findings", Json.Arr (List.map finding_json outcome.findings));
      ("suppressed", Json.Int outcome.suppressed);
    ]

let run config =
  match collect_files ~root:config.root config.paths with
  | Error _ as e -> e
  | Ok (mls, mlis) -> (
      (* Phase 1: read, lex and parse every file exactly once. *)
      let rec load_all acc ~is_ml files =
        match files with
        | [] -> Ok (List.rev acc)
        | f :: tl -> (
            match load_parsed ~is_ml f with
            | Error _ as e -> e
            | Ok p -> load_all (p :: acc) ~is_ml tl)
      in
      match load_all [] ~is_ml:true mls with
      | Error _ as e -> e
      | Ok ml_parsed -> (
          match load_all [] ~is_ml:false mlis with
          | Error _ as e -> e
          | Ok mli_parsed ->
              let all_parsed = ml_parsed @ mli_parsed in
              (* Phase 2: rules.  File rules per unit; project rules
                 once over the shared parse. *)
              let file_findings =
                List.concat_map
                  (fun p ->
                    let ctx =
                      {
                        Lint_rules.path = p.ps_rel;
                        lex = p.ps_lex;
                        tree = p.ps_tree;
                        has_mli = p.ps_has_mli;
                      }
                    in
                    List.concat_map
                      (fun (r : Lint_rules.rule) ->
                        match r.Lint_rules.check with
                        | Lint_rules.File check -> check ctx
                        | Lint_rules.Project _ | Lint_rules.Synthetic -> [])
                      Lint_rules.all)
                  ml_parsed
              in
              let project =
                {
                  Lint_rules.p_graph =
                    Lint_graph.build
                      (List.map (fun p -> (p.ps_rel, p.ps_lex, p.ps_tree)) ml_parsed);
                  p_interfaces =
                    List.map (fun p -> (p.ps_rel, p.ps_lex)) mli_parsed;
                }
              in
              let project_findings =
                List.concat_map
                  (fun (r : Lint_rules.rule) ->
                    match r.Lint_rules.check with
                    | Lint_rules.Project check -> check project
                    | Lint_rules.File _ | Lint_rules.Synthetic -> [])
                  Lint_rules.all
              in
              let syntax_findings =
                List.concat_map diagnostics_findings all_parsed
              in
              let pragmas, bad_pragma_findings =
                List.fold_left
                  (fun (ps, bad) p ->
                    let ps', bad' =
                      pragmas_of ~path:p.ps_rel p.ps_lex
                    in
                    (ps @ ps', bad @ bad'))
                  ([], []) all_parsed
              in
              (* Phase 3: suppression, then stale-pragma detection.
                 Hits are counted by [suppressing_pragma]; a pragma
                 allowing unused-pragma earns its keep by
                 suppressing one. *)
              let raw =
                file_findings @ project_findings @ syntax_findings
              in
              let kept, dropped =
                List.partition
                  (fun f -> not (suppressing_pragma pragmas f))
                  raw
              in
              let unused0 =
                List.filter
                  (fun p ->
                    p.pg_hits = 0 && p.pg_rule <> "unused-pragma")
                  pragmas
              in
              let unused_findings0 =
                List.map
                  (fun p ->
                    {
                      Lint_rules.rule = "unused-pragma";
                      file = p.pg_file;
                      line = p.pg_line;
                      col = 1;
                      message =
                        Printf.sprintf
                          "pragma allows %S but suppresses nothing; the \
                           code it excused is gone, so remove it"
                          p.pg_rule;
                      witness = [];
                    })
                  unused0
              in
              let unused_kept, unused_dropped =
                List.partition
                  (fun f -> not (suppressing_pragma pragmas f))
                  unused_findings0
              in
              (* unused-pragma pragmas that themselves suppressed
                 nothing (no second level: kept deliberately simple) *)
              let stale_meta =
                List.filter
                  (fun p ->
                    p.pg_hits = 0 && p.pg_rule = "unused-pragma")
                  pragmas
                |> List.map (fun p ->
                       {
                         Lint_rules.rule = "unused-pragma";
                         file = p.pg_file;
                         line = p.pg_line;
                         col = 1;
                         message =
                           "pragma allows \"unused-pragma\" but \
                            suppresses nothing; remove it";
                         witness = [];
                       })
              in
              let outcome =
                {
                  findings =
                    List.sort Lint_rules.compare_findings
                      (bad_pragma_findings @ kept @ unused_kept @ stale_meta);
                  suppressed = List.length dropped + List.length unused_dropped;
                  files_scanned = List.length all_parsed;
                }
              in
              (match config.json_path with
              | Some p -> Json.write_file p (to_json outcome)
              | None -> ());
              Ok outcome))

let render_finding (f : Lint_rules.finding) =
  let base =
    Printf.sprintf "%s:%d:%d: [%s] %s" f.Lint_rules.file f.Lint_rules.line
      f.Lint_rules.col f.Lint_rules.rule f.Lint_rules.message
  in
  match f.Lint_rules.witness with
  | [] -> base
  | w -> base ^ " [path: " ^ String.concat " -> " w ^ "]"

let render outcome =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (render_finding f);
      Buffer.add_char buf '\n')
    outcome.findings;
  Buffer.add_string buf
    (Printf.sprintf
       "churnet-lint: %d finding(s), %d suppressed, %d file(s) scanned\n"
       (List.length outcome.findings)
       outcome.suppressed outcome.files_scanned);
  Buffer.contents buf

let exit_code outcome = if outcome.findings = [] then 0 else 1
