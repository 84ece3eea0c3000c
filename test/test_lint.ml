(* churnet-lint: lexer corner cases, rule detection, pragma suppression
   and the engine's report.  Every synthetic bad sample lives inside a
   string literal, so the repo's own lint pass (which scans test/ too)
   never sees it as code. *)

open Churnet_util
open Churnet_lint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_strings = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let texts src =
  let lex = Lint_lexer.lex src in
  Array.to_list (Array.map (fun t -> t.Lint_lexer.text) lex.Lint_lexer.tokens)

let comments src =
  let lex = Lint_lexer.lex src in
  Array.to_list
    (Array.map (fun c -> c.Lint_lexer.c_text) lex.Lint_lexer.comments)

let rule name =
  List.find (fun r -> r.Lint_rules.name = name) Lint_rules.all

(* Run one file rule over a synthetic file at a chosen fake path. *)
let run_rule ?(has_mli = true) name ~path src =
  let ctx = { Lint_rules.path; lex = Lint_lexer.lex src; has_mli } in
  match (rule name).Lint_rules.check with
  | Lint_rules.File check -> check ctx
  | Lint_rules.Project _ | Lint_rules.Synthetic ->
      Alcotest.failf "%s is not a file rule" name

(* Run one project rule over a set of synthetic (path, source) units
   and (path, source) interfaces. *)
let run_project_rule name ~units ~interfaces =
  let parsed =
    List.map
      (fun (path, src) ->
        let lex = Lint_lexer.lex src in
        (path, lex, Lint_tree.parse lex))
      units
  in
  let project =
    {
      Lint_rules.p_graph = Lint_graph.build parsed;
      p_interfaces =
        List.map (fun (path, src) -> (path, Lint_lexer.lex src)) interfaces;
    }
  in
  match (rule name).Lint_rules.check with
  | Lint_rules.Project check -> check project
  | Lint_rules.File _ | Lint_rules.Synthetic ->
      Alcotest.failf "%s is not a project rule" name

let rules_fired ?has_mli name ~path src =
  List.length (run_rule ?has_mli name ~path src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_nested_comments () =
  let src = "(* a (* b (* c *) *) d *) let x = 1" in
  check_strings "code tokens only" [ "let"; "x"; "="; "1" ] (texts src);
  match comments src with
  | [ body ] ->
      check_bool "inner comment kept in body" true
        (String.length body > 0
        && body = " a (* b (* c *) *) d ")
  | other -> Alcotest.failf "expected 1 comment, got %d" (List.length other)

let test_strings_hide_code () =
  let src = "let s = \"Hashtbl.iter (* not a comment *) compare\" let t = 2" in
  check_strings "string content invisible"
    [ "let"; "s"; "="; "let"; "t"; "="; "2" ]
    (texts src);
  check_int "no comments from string" 0 (List.length (comments src))

let test_quoted_strings () =
  let src = "let s = {|no (* comment *) \"quotes\" compare|} let u = 4" in
  check_strings "quoted string invisible"
    [ "let"; "s"; "="; "let"; "u"; "="; "4" ]
    (texts src);
  let src2 = "let s = {foo|bar |} still inside|foo} let v = 5" in
  check_strings "custom delimiter respected"
    [ "let"; "s"; "="; "let"; "v"; "="; "5" ]
    (texts src2);
  check_int "no comments in quoted strings" 0 (List.length (comments src2))

let test_char_literals () =
  (* A double-quote char literal must not open a string... *)
  let src = "let c = '\"' let d = 1 (* real *) let e = 2" in
  check_strings "quote char literal"
    [ "let"; "c"; "="; "let"; "d"; "="; "1"; "let"; "e"; "="; "2" ]
    (texts src);
  check_int "comment after char literal found" 1 (List.length (comments src));
  (* ...nor must parenthesis/star char literals open a comment. *)
  let src2 = "let p = '(' let q = '*' let r = 3" in
  check_strings "paren and star char literals"
    [ "let"; "p"; "="; "let"; "q"; "="; "let"; "r"; "="; "3" ]
    (texts src2);
  (* Escapes: newline, escaped quote, decimal escape. *)
  let src3 = "let a = '\\n' let b = '\\'' let c = '\\065' let d = 4" in
  check_strings "escaped char literals"
    [ "let"; "a"; "="; "let"; "b"; "="; "let"; "c"; "="; "let"; "d"; "="; "4" ]
    (texts src3)

let test_type_variables () =
  let src = "let f (x : 'a) (y : 'b) = x let x' = 1 let g = x' + 2" in
  check_strings "type vars and primed idents"
    [ "let"; "f"; "("; "x"; ":"; "a"; ")"; "("; "y"; ":"; "b"; ")"; "="; "x";
      "let"; "x'"; "="; "1"; "let"; "g"; "="; "x'"; "+"; "2" ]
    (texts src)

let test_comment_with_string_containing_closer () =
  let src = "(* has \"*)\" inside *) let ok = 1" in
  check_strings "string inside comment protects closer"
    [ "let"; "ok"; "="; "1" ]
    (texts src)

let test_token_positions () =
  let lex = Lint_lexer.lex "let x = 1\n  let y = 2" in
  let tk i = lex.Lint_lexer.tokens.(i) in
  check_int "line of first token" 1 (tk 0).Lint_lexer.line;
  check_int "col of first token" 1 (tk 0).Lint_lexer.col;
  check_int "line after newline" 2 (tk 4).Lint_lexer.line;
  check_int "col respects indent" 3 (tk 4).Lint_lexer.col

let test_crlf_positions () =
  (* CRLF line endings must produce exactly the same lines and columns
     as LF: the \r is part of the terminator, not a column. *)
  let unix = Lint_lexer.lex "let x = 1\nlet y = 2\n" in
  let dos = Lint_lexer.lex "let x = 1\r\nlet y = 2\r\n" in
  check_int "same token count" (Array.length unix.Lint_lexer.tokens)
    (Array.length dos.Lint_lexer.tokens);
  Array.iteri
    (fun i (u : Lint_lexer.token) ->
      let d = dos.Lint_lexer.tokens.(i) in
      check_int "same line" u.Lint_lexer.line d.Lint_lexer.line;
      check_int "same col" u.Lint_lexer.col d.Lint_lexer.col)
    unix.Lint_lexer.tokens;
  (* A bare \r (legacy Mac ending) still separates lines. *)
  let mac = Lint_lexer.lex "let x = 1\rlet y = 2" in
  check_int "bare CR counts as a newline" 2
    mac.Lint_lexer.tokens.(4).Lint_lexer.line

let test_unterminated_diagnostics () =
  let lex = Lint_lexer.lex "let x = 1\n(* never closed" in
  (match lex.Lint_lexer.diagnostics with
  | [| d |] ->
      check_int "comment diagnostic line" 2 d.Lint_lexer.d_line;
      check_int "comment diagnostic col" 1 d.Lint_lexer.d_col
  | other ->
      Alcotest.failf "expected 1 diagnostic, got %d" (Array.length other));
  let lex2 = Lint_lexer.lex "let s = \"runs off the end" in
  (match lex2.Lint_lexer.diagnostics with
  | [| d |] ->
      check_int "string diagnostic line" 1 d.Lint_lexer.d_line;
      check_int "string diagnostic col" 9 d.Lint_lexer.d_col
  | other ->
      Alcotest.failf "expected 1 diagnostic, got %d" (Array.length other));
  let clean = Lint_lexer.lex "let s = \"closed\" (* fine *)" in
  check_int "clean input has no diagnostics" 0
    (Array.length clean.Lint_lexer.diagnostics)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_polymorphic_sort_detected () =
  (* The regression the issue asks for: a synthetic Array.sort compare
     sample must be caught. *)
  let bad = "let xs = [| 3; 1 |] let () = Array.sort compare xs" in
  check_int "Array.sort compare caught" 1
    (rules_fired "no-polymorphic-sort" ~path:"lib/core/fake.ml" bad);
  let bad2 = "let ys = List.sort compare [ 2; 1 ]" in
  check_int "List.sort compare caught" 1
    (rules_fired "no-polymorphic-sort" ~path:"test/fake.ml" bad2);
  let bad3 = "let o = Stdlib.compare a b" in
  check_int "Stdlib.compare caught" 1
    (rules_fired "no-polymorphic-sort" ~path:"lib/core/fake.ml" bad3);
  let bad4 = "let s = Array.sort (fun a b -> compare a.x b.x) arr" in
  check_int "bare compare in lambda caught" 1
    (rules_fired "no-polymorphic-sort" ~path:"lib/core/fake.ml" bad4)

let test_polymorphic_sort_clean_code () =
  let ok = "let () = Array.sort Int.compare xs" in
  check_int "Int.compare fine" 0
    (rules_fired "no-polymorphic-sort" ~path:"lib/core/fake.ml" ok);
  let ok2 = "module M = struct type t = int let compare = Int.compare end" in
  check_int "defining compare fine" 0
    (rules_fired "no-polymorphic-sort" ~path:"lib/core/fake.ml" ok2);
  let ok3 = "let c = String.compare a b" in
  check_int "qualified compare fine" 0
    (rules_fired "no-polymorphic-sort" ~path:"lib/core/fake.ml" ok3);
  let ok4 = "(* mentions Array.sort compare in prose *) let x = 1" in
  check_int "comment mention fine" 0
    (rules_fired "no-polymorphic-sort" ~path:"lib/core/fake.ml" ok4)

let test_stdlib_random () =
  let bad = "let r = Random.int 5" in
  check_int "Random.int caught" 1
    (rules_fired "no-stdlib-random" ~path:"lib/core/fake.ml" bad);
  check_int "prng.ml exempt" 0
    (rules_fired "no-stdlib-random" ~path:"lib/util/prng.ml" bad);
  let bad2 = "let r = Stdlib.Random.bits ()" in
  check_int "Stdlib.Random caught" 1
    (rules_fired "no-stdlib-random" ~path:"lib/core/fake.ml" bad2);
  let ok = "let r = Myapp.Random.next st" in
  check_int "non-Stdlib qualifier fine" 0
    (rules_fired "no-stdlib-random" ~path:"lib/core/fake.ml" ok)

let test_hashtbl_order () =
  let bad = "let () = Hashtbl.iter f tbl" in
  check_int "Hashtbl.iter caught in lib/graph" 1
    (rules_fired "no-hashtbl-order" ~path:"lib/graph/fake.ml" bad);
  check_int "Hashtbl.iter caught in lib/core" 1
    (rules_fired "no-hashtbl-order" ~path:"lib/core/fake.ml" bad);
  check_int "Hashtbl.iter caught in lib/p2p" 1
    (rules_fired "no-hashtbl-order" ~path:"lib/p2p/fake.ml" bad);
  check_int "lib/util not restricted" 0
    (rules_fired "no-hashtbl-order" ~path:"lib/util/fake.ml" bad);
  let ok = "let v = Hashtbl.find_opt tbl k" in
  check_int "lookups fine" 0
    (rules_fired "no-hashtbl-order" ~path:"lib/graph/fake.ml" ok)

let test_wildcard_exn () =
  let bad = "let f () = try g () with _ -> 0" in
  check_int "try-with wildcard caught" 1
    (rules_fired "no-wildcard-exn" ~path:"lib/util/fake.ml" bad);
  let ok = "let f x = match x with _ -> 0" in
  check_int "match wildcard fine" 0
    (rules_fired "no-wildcard-exn" ~path:"lib/util/fake.ml" ok);
  let ok2 = "let f () = try g () with Not_found -> 0" in
  check_int "named exception fine" 0
    (rules_fired "no-wildcard-exn" ~path:"lib/util/fake.ml" ok2);
  (* A match nested inside the try body must not steal the pop. *)
  let bad2 = "let f x = try (match x with [] -> 0 | _ -> 1) with _ -> 2" in
  check_int "nested match, outer wildcard caught" 1
    (rules_fired "no-wildcard-exn" ~path:"lib/util/fake.ml" bad2);
  (* Record update inside a try body must not steal the pop either. *)
  let bad3 = "let f r = try { r with n = r.n + 1 } with _ -> r" in
  check_int "record update then wildcard caught" 1
    (rules_fired "no-wildcard-exn" ~path:"lib/util/fake.ml" bad3)

let test_wallclock () =
  let bad = "let t = Unix.gettimeofday ()" in
  check_int "gettimeofday caught" 1
    (rules_fired "no-wallclock" ~path:"lib/core/fake.ml" bad);
  check_int "telemetry exempt" 0
    (rules_fired "no-wallclock" ~path:"lib/experiments/telemetry.ml" bad);
  let bad2 = "let t = Sys.time ()" in
  check_int "Sys.time caught" 1
    (rules_fired "no-wallclock" ~path:"lib/core/fake.ml" bad2);
  let ok = "let a = Sys.argv" in
  check_int "other Sys fine" 0
    (rules_fired "no-wallclock" ~path:"lib/core/fake.ml" ok)

let test_mli_coverage () =
  check_int "missing mli caught" 1
    (rules_fired ~has_mli:false "mli-coverage" ~path:"lib/core/fake.ml" "let x = 1");
  check_int "mli present fine" 0
    (rules_fired ~has_mli:true "mli-coverage" ~path:"lib/core/fake.ml" "let x = 1");
  check_int "outside lib fine" 0
    (rules_fired ~has_mli:false "mli-coverage" ~path:"bin/fake.ml" "let x = 1")

let test_print_in_lib () =
  let bad = "let () = print_endline msg" in
  check_int "print_endline caught in lib" 1
    (rules_fired "no-print-in-lib" ~path:"lib/core/fake.ml" bad);
  check_int "table.ml exempt" 0
    (rules_fired "no-print-in-lib" ~path:"lib/util/table.ml" bad);
  check_int "outside lib fine" 0
    (rules_fired "no-print-in-lib" ~path:"bin/fake.ml" bad);
  let bad2 = "let () = Printf.printf \"%d\" n" in
  check_int "Printf.printf caught" 1
    (rules_fired "no-print-in-lib" ~path:"lib/core/fake.ml" bad2);
  let ok = "let s = Printf.sprintf \"%d\" n" in
  check_int "sprintf fine" 0
    (rules_fired "no-print-in-lib" ~path:"lib/core/fake.ml" ok);
  let ok2 = "let print_alloc x = x" in
  check_int "unrelated identifier fine" 0
    (rules_fired "no-print-in-lib" ~path:"lib/core/fake.ml" ok2)

(* ------------------------------------------------------------------ *)
(* Project rules: the semantic pass                                    *)
(* ------------------------------------------------------------------ *)

let finding_rules fs = List.map (fun f -> f.Lint_rules.rule) fs

let test_prng_flow_literal () =
  let src =
    "let simulate () =\n  let rng = Prng.create 0xBAD in\n  Prng.int rng 10\n"
  in
  match
    run_project_rule "prng-flow"
      ~units:[ ("lib/core/trial.ml", src) ]
      ~interfaces:[]
  with
  | [ f ] ->
      check_int "finding on the create line" 2 f.Lint_rules.line;
      check_strings "witness names the enclosing function"
        [ "Trial.simulate" ] f.Lint_rules.witness
  | other ->
      Alcotest.failf "expected 1 prng-flow finding, got %d" (List.length other)

let test_prng_flow_module_level () =
  (* The PR 5 Gossip.run bug class: a module-level stream shared by
     every caller.  Both the literal seed and the module-level sharing
     must be reported, and the witness must walk from the stream to its
     consumer. *)
  let src =
    "let rng = Prng.create 0x9055\nlet run () =\n  Prng.int rng 8\n"
  in
  let fs =
    run_project_rule "prng-flow"
      ~units:[ ("lib/core/gossip.ml", src) ]
      ~interfaces:[]
  in
  check_int "literal + module-level findings" 2 (List.length fs);
  let module_level =
    List.find
      (fun f ->
        String.length f.Lint_rules.message > 5
        && String.sub f.Lint_rules.message 0 6 = "module")
      fs
  in
  check_strings "witness walks stream -> consumer"
    [ "Gossip.rng"; "Gossip.run" ]
    module_level.Lint_rules.witness

let test_prng_flow_clean_threading () =
  let src = "let simulate ~rng n =\n  Prng.int rng n\n" in
  check_int "threaded rng is clean" 0
    (List.length
       (run_project_rule "prng-flow"
          ~units:[ ("lib/core/trial.ml", src) ]
          ~interfaces:[]));
  (* Outside lib/ the rule does not apply (examples may pin seeds). *)
  let bad = "let rng = Prng.create 0x1\nlet go () = Prng.int rng 2\n" in
  check_int "examples exempt" 0
    (List.length
       (run_project_rule "prng-flow" ~units:[ ("examples/fake.ml", bad) ]
          ~interfaces:[]))

let test_no_io_transitive () =
  let helper = "let log m =\n  print_endline m\n" in
  let engine = "let advance x =\n  Helper.log x\n" in
  let fs =
    run_project_rule "no-io-transitive"
      ~units:[ ("lib/core/helper.ml", helper); ("lib/core/engine.ml", engine) ]
      ~interfaces:[]
  in
  match fs with
  | [ f ] ->
      check_bool "the transitive caller is flagged" true
        (f.Lint_rules.file = "lib/core/engine.ml");
      check_strings "witness reads caller -> writer"
        [ "Engine.advance"; "Helper.log" ]
        f.Lint_rules.witness
  | other ->
      Alcotest.failf "expected 1 no-io-transitive finding, got %d"
        (List.length other)

let test_no_io_transitive_report_layer_ok () =
  (* Reaching the report layer is the sanctioned way to print. *)
  let report = "let emit m =\n  print_endline m\n" in
  let engine = "let advance x =\n  Report.emit x\n" in
  check_int "report layer is not a taint root" 0
    (List.length
       (run_project_rule "no-io-transitive"
          ~units:
            [
              ("lib/experiments/report.ml", report);
              ("lib/core/engine.ml", engine);
            ]
          ~interfaces:[]))

let test_hot_path_alloc () =
  let src =
    "let helper xs =\n  List.map succ xs\nlet pair a b =\n  (a, b)\n\
     let expand_informed g =\n  ignore (helper g);\n  pair g g\n"
  in
  let fs =
    run_project_rule "hot-path-alloc"
      ~units:[ ("lib/core/flood.ml", src) ]
      ~interfaces:[]
  in
  let rules = List.sort_uniq String.compare (finding_rules fs) in
  check_strings "only hot-path-alloc fires" [ "hot-path-alloc" ] rules;
  check_bool "List.map in a reachable helper flagged" true
    (List.exists (fun f -> f.Lint_rules.line = 2) fs);
  check_bool "tuple construction flagged" true
    (List.exists (fun f -> f.Lint_rules.line = 4) fs);
  check_bool "witness starts at the kernel entry" true
    (List.for_all
       (fun f ->
         match f.Lint_rules.witness with
         | first :: _ -> first = "Flood.expand_informed"
         | [] -> false)
       fs)

let test_hot_path_alloc_unreachable_ok () =
  (* The same allocation patterns outside the kernel cone are fine. *)
  let src = "let report xs =\n  List.map succ xs\n" in
  check_int "unreachable code not flagged" 0
    (List.length
       (run_project_rule "hot-path-alloc"
          ~units:[ ("lib/core/flood.ml", src) ]
          ~interfaces:[]))

let test_hot_path_protocol_steps () =
  (* The per-jump step of every protocol-driven model is a kernel entry;
     another function of the same module is not. *)
  let src = "let step t =\n  (t, t)\nlet report t =\n  (t, t)\n" in
  List.iter
    (fun path ->
      let fs = run_project_rule "hot-path-alloc" ~units:[ (path, src) ] ~interfaces:[] in
      Alcotest.(check (list int))
        (path ^ ": step flagged, report not")
        [ 2 ]
        (List.map (fun f -> f.Lint_rules.line) fs))
    [
      "lib/p2p/bitcoin_like.ml";
      "lib/p2p/rw_streaming.ml";
      "lib/core/capped_model.ml";
      "lib/core/lazy_regen_model.ml";
    ];
  check_int "a step outside the registered models is not an entry" 0
    (List.length
       (run_project_rule "hot-path-alloc"
          ~units:[ ("lib/p2p/cache_protocol.ml", src) ]
          ~interfaces:[]));
  (* The cone crosses units: a step's callee in another module is
     checked too, and the witness walks there from the step. *)
  let fs =
    run_project_rule "hot-path-alloc"
      ~units:
        [
          ("lib/core/capped_model.ml", "let step t =\n  Repair_churn.jump t\n");
          ("lib/core/repair_churn.ml", "let jump t =\n  (t, t)\nlet report t =\n  (t, t)\n");
        ]
      ~interfaces:[]
  in
  match fs with
  | [ f ] ->
      Alcotest.(check string) "file" "lib/core/repair_churn.ml" f.Lint_rules.file;
      check_int "line" 2 f.Lint_rules.line;
      check_strings "witness" [ "Capped_model.step"; "Repair_churn.jump" ] f.Lint_rules.witness
  | other -> Alcotest.failf "expected 1 cross-unit finding, got %d" (List.length other)

let test_hot_path_discretized_round () =
  (* The discretized flooding round is a kernel entry; its driver loop,
     which only calls it, is not. *)
  let src =
    "let poisson_round m st =\n  (m, st)\nlet run_poisson_discretized m =\n  (m, m)\n"
  in
  let fs =
    run_project_rule "hot-path-alloc" ~units:[ ("lib/core/flood.ml", src) ] ~interfaces:[]
  in
  Alcotest.(check (list int)) "poisson_round flagged, its driver not" [ 2 ]
    (List.map (fun f -> f.Lint_rules.line) fs);
  check_bool "witness starts at the round" true
    (List.for_all (fun f -> f.Lint_rules.witness = [ "Flood.poisson_round" ]) fs)

let test_hot_path_local_function () =
  let src =
    "let step t =\n  t + 1\n\
     let add_node t =\n  let rec go k = if k > 0 then go (k - 1) else k in\n\
     \  let a, b = (t, t) in\n  ignore b;\n  step (go a)\n"
  in
  let fs =
    run_project_rule "hot-path-alloc"
      ~units:[ ("lib/graph/dyngraph.ml", src) ]
      ~interfaces:[]
  in
  check_bool "local function flagged" true
    (List.exists (fun f -> f.Lint_rules.line = 4) fs);
  check_bool "a tuple pattern is not a local function" false
    (List.exists (fun f -> f.Lint_rules.line = 5 && f.Lint_rules.col = 7) fs);
  check_bool "a top-level helper is not flagged" false
    (List.exists (fun f -> f.Lint_rules.line <= 2) fs)

let test_hot_path_boxed_store () =
  let src =
    "type clock = { mutable time : float }\n\
     type t = { mutable n : int; mutable w : float; clock : clock }\n\
     type s = { mutable s0 : int64 }\n\
     let kill t s =\n  t.n <- t.n + 1;\n  t.clock.time <- 1.;\n\
     \  t.w <- 2.;\n  s.s0 <- 3L\n\
     let report t =\n  t.w <- 0.\n"
  in
  let fs =
    run_project_rule "hot-path-alloc"
      ~units:[ ("lib/graph/dyngraph.ml", src) ]
      ~interfaces:[]
  in
  let lines = List.sort_uniq Int.compare (List.map (fun f -> f.Lint_rules.line) fs) in
  Alcotest.(check (list int))
    "float field of a mixed record and int64 field flagged; int field, \
     all-float record and code outside the kernel cone not"
    [ 7; 8 ] lines

let test_dead_export () =
  let thing = "let used x = x\nlet unused x = x\n" in
  let user = "let go x =\n  Thing.used x\n" in
  let fs =
    run_project_rule "dead-export"
      ~units:[ ("lib/util/thing.ml", thing); ("lib/core/user.ml", user) ]
      ~interfaces:
        [ ("lib/util/thing.mli", "val used : int -> int\nval unused : int -> int\n") ]
  in
  match fs with
  | [ f ] ->
      check_bool "unused export flagged in the mli" true
        (f.Lint_rules.file = "lib/util/thing.mli");
      check_int "at the val keyword" 2 f.Lint_rules.line
  | other ->
      Alcotest.failf "expected 1 dead-export finding, got %d"
        (List.length other)

(* ------------------------------------------------------------------ *)
(* Engine: temp trees, pragmas, reports                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write_file path content =
  let rec ensure dir =
    if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      ensure (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  ensure (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let scratch_counter = ref 0

(* Engine rules key off repo-relative paths (lib/..., test/...), so each
   scenario builds a scratch tree and chdirs into it. *)
let in_temp_tree f =
  incr scratch_counter;
  let root = Printf.sprintf "lint_scratch_%d" !scratch_counter in
  if Sys.file_exists root then rm_rf root;
  Sys.mkdir root 0o755;
  let home = Sys.getcwd () in
  Sys.chdir root;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir home;
      rm_rf root)
    f

let run_engine ?json ?root paths =
  match Lint_engine.run { Lint_engine.paths; root; json_path = json } with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "engine error: %s" msg

let bad_sort_ml = "let xs = [| 3; 1 |]\nlet () = Array.sort compare xs\n"
let good_sort_ml = "let xs = [| 3; 1 |]\nlet () = Array.sort Int.compare xs\n"

let test_engine_finds_and_sorts () =
  in_temp_tree (fun () ->
      write_file "lib/core/bad.ml" bad_sort_ml;
      write_file "lib/core/bad.mli" "";
      let outcome = run_engine [ "lib" ] in
      check_int "one finding" 1 (List.length outcome.Lint_engine.findings);
      match outcome.Lint_engine.findings with
      | [ f ] ->
          check_bool "rule name" true (f.Lint_rules.rule = "no-polymorphic-sort");
          check_bool "file path" true (f.Lint_rules.file = "lib/core/bad.ml");
          check_int "line" 2 f.Lint_rules.line
      | _ -> Alcotest.fail "expected exactly one finding")

let test_pragma_suppression () =
  in_temp_tree (fun () ->
      write_file "lib/core/bad.ml"
        ("let xs = [| 3; 1 |]\n"
        ^ "(* lint: allow no-polymorphic-sort -- ints, order irrelevant *)\n"
        ^ "let () = Array.sort compare xs\n");
      write_file "lib/core/bad.mli" "";
      let outcome = run_engine [ "lib" ] in
      check_int "suppressed by preceding-line pragma" 0
        (List.length outcome.Lint_engine.findings);
      check_int "counted as suppressed" 1 outcome.Lint_engine.suppressed)

let test_pragma_allow_file () =
  in_temp_tree (fun () ->
      write_file "lib/core/bad.ml"
        ("(* lint: allow-file no-polymorphic-sort -- synthetic fixture *)\n"
        ^ bad_sort_ml ^ "let () = Array.sort compare xs\n");
      write_file "lib/core/bad.mli" "";
      let outcome = run_engine [ "lib" ] in
      check_int "file pragma suppresses all" 0
        (List.length outcome.Lint_engine.findings);
      check_int "both occurrences suppressed" 2 outcome.Lint_engine.suppressed)

let test_pragma_needs_reason () =
  in_temp_tree (fun () ->
      write_file "lib/core/bad.ml"
        ("let xs = [| 3; 1 |]\n"
        ^ "(* lint: allow no-polymorphic-sort *)\n"
        ^ "let () = Array.sort compare xs\n");
      write_file "lib/core/bad.mli" "";
      let outcome = run_engine [ "lib" ] in
      let rules =
        List.map (fun f -> f.Lint_rules.rule) outcome.Lint_engine.findings
      in
      check_bool "bad-pragma reported" true (List.mem "bad-pragma" rules);
      check_bool "finding not suppressed" true
        (List.mem "no-polymorphic-sort" rules))

let test_pragma_unknown_rule () =
  in_temp_tree (fun () ->
      write_file "lib/core/ok.ml"
        "(* lint: allow no-such-rule -- whatever *)\nlet x = 1\n";
      write_file "lib/core/ok.mli" "";
      let outcome = run_engine [ "lib" ] in
      match outcome.Lint_engine.findings with
      | [ f ] -> check_bool "bad-pragma" true (f.Lint_rules.rule = "bad-pragma")
      | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other))

let test_json_report () =
  in_temp_tree (fun () ->
      write_file "lib/core/bad.ml" bad_sort_ml;
      write_file "lib/core/bad.mli" "";
      let _ = run_engine ~json:"lint-report.json" [ "lib" ] in
      let doc =
        Json.of_string_exn
          (In_channel.with_open_bin "lint-report.json" In_channel.input_all)
      in
      check_bool "schema tag" true
        (Json.member "schema" doc
         |> Option.map Json.as_string
         |> Option.join
         = Some "churnet-lint/3");
      match Json.member "findings" doc with
      | Some (Json.Arr [ f ]) ->
          check_bool "finding rule in json" true
            (Json.member "rule" f |> Option.map Json.as_string |> Option.join
            = Some "no-polymorphic-sort")
      | _ -> Alcotest.fail "expected one finding in json")

let test_exit_codes () =
  in_temp_tree (fun () ->
      write_file "lib/core/bad.ml" bad_sort_ml;
      write_file "lib/core/bad.mli" "";
      let dirty = run_engine [ "lib" ] in
      check_int "dirty tree exits 1" 1 (Lint_engine.exit_code dirty);
      write_file "lib/core/bad.ml" good_sort_ml;
      let clean = run_engine [ "lib" ] in
      check_int "clean tree exits 0" 0 (Lint_engine.exit_code clean))

let test_unused_pragma () =
  in_temp_tree (fun () ->
      (* A pragma above clean code suppresses nothing: stale. *)
      write_file "lib/core/ok.ml"
        ("(* lint: allow no-polymorphic-sort -- fixed long ago *)\n"
        ^ "let x = 1\n");
      write_file "lib/core/ok.mli" "";
      let outcome = run_engine [ "lib" ] in
      (match outcome.Lint_engine.findings with
      | [ f ] ->
          check_bool "unused-pragma reported" true
            (f.Lint_rules.rule = "unused-pragma");
          check_int "at the pragma line" 1 f.Lint_rules.line
      | other ->
          Alcotest.failf "expected 1 finding, got %d" (List.length other));
      (* The same pragma above an actual finding earns its keep. *)
      write_file "lib/core/ok.ml"
        ("(* lint: allow no-polymorphic-sort -- ints, order irrelevant *)\n"
        ^ "let () = Array.sort compare [| 2; 1 |]\n");
      let outcome = run_engine [ "lib" ] in
      check_int "pragma that suppresses is not stale" 0
        (List.length outcome.Lint_engine.findings))

let test_unused_pragma_in_mli () =
  in_temp_tree (fun () ->
      write_file "lib/core/ok.ml" "let x = 1\n";
      write_file "lib/core/ok.mli"
        "(* lint: allow dead-export -- reserved for callers *)\nval x : int\n";
      let outcome = run_engine [ "lib" ] in
      (* x IS dead (nothing references it), so the pragma suppresses a
         real finding and must not be reported as stale. *)
      check_int "mli pragma suppresses dead-export" 0
        (List.length outcome.Lint_engine.findings);
      check_int "counted as suppressed" 1 outcome.Lint_engine.suppressed)

let test_bad_syntax () =
  in_temp_tree (fun () ->
      write_file "lib/core/broken.ml" "let x = 1\n(* never closed\n";
      write_file "lib/core/broken.mli" "";
      let outcome = run_engine [ "lib" ] in
      match outcome.Lint_engine.findings with
      | [ f ] ->
          check_bool "bad-syntax reported" true
            (f.Lint_rules.rule = "bad-syntax");
          check_int "positioned at the opener" 2 f.Lint_rules.line;
          check_int "exit 1" 1 (Lint_engine.exit_code outcome)
      | other ->
          Alcotest.failf "expected 1 finding, got %d" (List.length other))

let test_root_flag () =
  in_temp_tree (fun () ->
      (* The tree lives under fixture/, not the cwd; --root makes paths
         inside it resolve as repo-relative (lib/...), so lib-only rules
         apply to the fixture's own lib/. *)
      write_file "fixture/lib/core/bad.ml" bad_sort_ml;
      write_file "fixture/lib/core/bad.mli" "";
      let outcome = run_engine ~root:"fixture" [ "lib" ] in
      match outcome.Lint_engine.findings with
      | [ f ] ->
          check_bool "findings reported root-relative" true
            (f.Lint_rules.file = "lib/core/bad.ml")
      | other ->
          Alcotest.failf "expected 1 finding, got %d" (List.length other))

let test_to_json_witness_and_doc () =
  in_temp_tree (fun () ->
      write_file "lib/core/gossip.ml"
        "let rng = Prng.create 0x9055\nlet run () =\n  Prng.int rng 8\n";
      write_file "lib/core/gossip.mli" "";
      let outcome = run_engine [ "lib" ] in
      let doc = Lint_engine.to_json outcome in
      check_bool "schema is churnet-lint/3" true
        (Json.member "schema" doc
         |> Option.map Json.as_string
         |> Option.join
        = Some "churnet-lint/3");
      match Json.member "findings" doc with
      | Some (Json.Arr fs) ->
          check_bool "at least one finding serialized" true (fs <> []);
          List.iter
            (fun f ->
              check_bool "every finding carries its rule doc" true
                (match Json.member "doc" f with
                | Some (Json.String s) -> String.length s > 0
                | _ -> false))
            fs;
          check_bool "some finding carries a witness path" true
            (List.exists
               (fun f ->
                 match Json.member "witness" f with
                 | Some (Json.Arr (_ :: _)) -> true
                 | _ -> false)
               fs)
      | _ -> Alcotest.fail "expected findings array in json")

let suite =
  [
    ("lexer: nested comments", `Quick, test_nested_comments);
    ("lexer: strings hide code", `Quick, test_strings_hide_code);
    ("lexer: quoted strings", `Quick, test_quoted_strings);
    ("lexer: char literals", `Quick, test_char_literals);
    ("lexer: type variables", `Quick, test_type_variables);
    ( "lexer: comment-with-closer string",
      `Quick,
      test_comment_with_string_containing_closer );
    ("lexer: token positions", `Quick, test_token_positions);
    ("lexer: crlf positions", `Quick, test_crlf_positions);
    ("lexer: unterminated diagnostics", `Quick, test_unterminated_diagnostics);
    ("rule: polymorphic sort detected", `Quick, test_polymorphic_sort_detected);
    ("rule: clean code passes", `Quick, test_polymorphic_sort_clean_code);
    ("rule: stdlib random", `Quick, test_stdlib_random);
    ("rule: hashtbl order", `Quick, test_hashtbl_order);
    ("rule: wildcard exn", `Quick, test_wildcard_exn);
    ("rule: wallclock", `Quick, test_wallclock);
    ("rule: mli coverage", `Quick, test_mli_coverage);
    ("rule: print in lib", `Quick, test_print_in_lib);
    ("rule: prng-flow literal", `Quick, test_prng_flow_literal);
    ("rule: prng-flow module-level", `Quick, test_prng_flow_module_level);
    ("rule: prng-flow clean threading", `Quick, test_prng_flow_clean_threading);
    ("rule: no-io-transitive", `Quick, test_no_io_transitive);
    ( "rule: no-io-transitive report layer",
      `Quick,
      test_no_io_transitive_report_layer_ok );
    ("rule: hot-path-alloc", `Quick, test_hot_path_alloc);
    ("rule: hot-path-alloc unreachable", `Quick, test_hot_path_alloc_unreachable_ok);
    ("rule: hot-path-alloc protocol steps", `Quick, test_hot_path_protocol_steps);
    ("rule: hot-path-alloc discretized round", `Quick, test_hot_path_discretized_round);
    ("rule: hot-path-alloc local function", `Quick, test_hot_path_local_function);
    ("rule: hot-path-alloc boxed store", `Quick, test_hot_path_boxed_store);
    ("rule: dead-export", `Quick, test_dead_export);
    ("engine: finds and locates", `Quick, test_engine_finds_and_sorts);
    ("engine: pragma suppression", `Quick, test_pragma_suppression);
    ("engine: allow-file pragma", `Quick, test_pragma_allow_file);
    ("engine: pragma needs reason", `Quick, test_pragma_needs_reason);
    ("engine: unknown rule pragma", `Quick, test_pragma_unknown_rule);
    ("engine: json report", `Quick, test_json_report);
    ("engine: exit codes", `Quick, test_exit_codes);
    ("engine: unused pragma", `Quick, test_unused_pragma);
    ("engine: mli pragma", `Quick, test_unused_pragma_in_mli);
    ("engine: bad syntax", `Quick, test_bad_syntax);
    ("engine: root flag", `Quick, test_root_flag);
    ("engine: json witness and doc", `Quick, test_to_json_witness_and_doc);
  ]
