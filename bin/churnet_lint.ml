(* churnet-lint: determinism & hygiene linter for the churnet sources.

   Usage: churnet-lint [--root DIR] [--json FILE] [--list-rules] [--quiet]
                       [PATHS...]

   Exit status: 0 when no findings, 1 when any rule fires outside a
   suppression pragma, 2 on usage or I/O errors.  Dependency-free by
   design (stdlib [Arg], and compiler-libs, which ships with the
   compiler): the linter is part of the correctness gate and must never
   be the thing that fails to build. *)

module Lint_engine = Churnet_lint.Lint_engine
module Lint_rules = Churnet_lint.Lint_rules

let default_paths = [ "lib"; "bin"; "test"; "examples" ]

let usage =
  "churnet-lint [--root DIR] [--json FILE] [--list-rules] [--quiet] \
   [PATHS...]\n\
   Static determinism & hygiene checks over the churnet OCaml sources."

let () =
  let json = ref None in
  let root = ref None in
  let list_rules = ref false in
  let quiet = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--root",
        Arg.String (fun s -> root := Some s),
        "DIR interpret PATHS (and report findings) relative to DIR; rules \
         key off repo-relative prefixes like lib/, so fixture trees lint \
         with their own root" );
      ( "--json",
        Arg.String (fun s -> json := Some s),
        "FILE write a churnet-lint/3 JSON report to FILE" );
      ( "--list-rules",
        Arg.Set list_rules,
        " print the rule catalogue and exit" );
      ("--quiet", Arg.Set quiet, " only print findings, no summary line");
    ]
  in
  (try Arg.parse spec (fun p -> paths := p :: !paths) usage
   with Arg.Bad msg ->
     prerr_string msg;
     exit 2);
  if !list_rules then begin
    List.iter
      (fun (name, doc) -> print_endline (Printf.sprintf "%-22s %s" name doc))
      (List.map (fun (r : Lint_rules.rule) -> (r.Lint_rules.name, r.Lint_rules.doc)) Lint_rules.all
      @ Lint_engine.engine_rule_docs);
    exit 0
  end;
  let exists p =
    Sys.file_exists
      (match !root with Some r -> Filename.concat r p | None -> p)
  in
  let paths =
    match List.rev !paths with
    | [] ->
        let found = List.filter exists default_paths in
        if found = [] then begin
          prerr_endline
            "churnet-lint: no paths given and none of lib/ bin/ test/ \
             examples/ exist here";
          exit 2
        end
        else found
    | ps -> ps
  in
  match
    Lint_engine.run { Lint_engine.paths; root = !root; json_path = !json }
  with
  | Error msg ->
      prerr_endline ("churnet-lint: " ^ msg);
      exit 2
  | Ok outcome ->
      if !quiet then
        List.iter
          (fun f -> print_endline (Lint_engine.render_finding f))
          outcome.Lint_engine.findings
      else print_string (Lint_engine.render outcome);
      exit (Lint_engine.exit_code outcome)
