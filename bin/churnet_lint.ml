(* churnet-lint: determinism & hygiene linter for the churnet sources.

   Usage: churnet-lint [--root DIR] [--baseline FILE] [--json FILE]
                       [--update-baseline] [--list-rules] [--quiet]
                       [PATHS...]

   Exit status: 0 when no new findings, 1 when any rule fires outside
   the baseline, 2 on usage or I/O errors.  Dependency-free by design
   (stdlib [Arg] only): the linter is part of the correctness gate and
   must never be the thing that fails to build. *)

module Lint_engine = Churnet_util.Lint_engine
module Lint_rules = Churnet_util.Lint_rules

let default_paths = [ "lib"; "bin"; "test"; "examples" ]

let usage =
  "churnet-lint [--root DIR] [--baseline FILE] [--json FILE] \
   [--update-baseline] [--list-rules] [--quiet] [PATHS...]\n\
   Static determinism & hygiene checks over the churnet OCaml sources."

let () =
  let baseline = ref None in
  let json = ref None in
  let root = ref None in
  let update_baseline = ref false in
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
      ( "--baseline",
        Arg.String (fun s -> baseline := Some s),
        "FILE baseline of grandfathered findings (they do not fail the run)" );
      ( "--json",
        Arg.String (fun s -> json := Some s),
        "FILE write a churnet-lint/2 JSON report to FILE" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the baseline file to the current findings and exit 0" );
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
      (fun (r : Lint_rules.rule) ->
        print_endline (Printf.sprintf "%-22s %s" r.Lint_rules.name r.Lint_rules.doc))
      Lint_rules.all;
    exit 0
  end;
  if !update_baseline && !baseline = None then begin
    prerr_endline "churnet-lint: --update-baseline requires --baseline FILE";
    exit 2
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
  let config =
    {
      Lint_engine.paths;
      root = !root;
      baseline_path = !baseline;
      json_path = !json;
      update_baseline = !update_baseline;
    }
  in
  match Lint_engine.run config with
  | Error msg ->
      prerr_endline ("churnet-lint: " ^ msg);
      exit 2
  | Ok outcome ->
      let report = Lint_engine.render outcome in
      if !quiet then
        List.iter
          (fun (f : Lint_rules.finding) ->
            let base =
              Printf.sprintf "%s:%d:%d: [%s] %s" f.Lint_rules.file
                f.Lint_rules.line f.Lint_rules.col f.Lint_rules.rule
                f.Lint_rules.message
            in
            print_endline
              (match f.Lint_rules.witness with
              | [] -> base
              | w -> base ^ " [path: " ^ String.concat " -> " w ^ "]"))
          outcome.Lint_engine.findings
      else print_string report;
      exit (Lint_engine.exit_code outcome)
