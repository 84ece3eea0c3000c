(* Property tests for the churnet-lint structural parser (Lint_tree):
   the two guarantees its interface promises.

   - Totality: [parse] never raises, on arbitrary token soup generated
     from the OCaml keyword vocabulary (qcheck) and on every real [.ml]
     file in the repository (self-host sweep).
   - Validity: every recorded span is a well-formed inclusive range into
     the lexer's token array, a binding's name and body lie inside its
     binding span, and any two binding spans are either disjoint or
     properly nested — the invariant the call graph's innermost-wins
     attribution rests on. *)

open Churnet_lint

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Shared invariant checker                                            *)
(* ------------------------------------------------------------------ *)

let span_ok n (s : Lint_tree.span) =
  s.Lint_tree.s_first >= 0 && s.Lint_tree.s_last < n

let spans_nest (a : Lint_tree.span) (b : Lint_tree.span) =
  Lint_tree.span_within a b
  || Lint_tree.span_within b a
  || a.Lint_tree.s_last < b.Lint_tree.s_first
  || b.Lint_tree.s_last < a.Lint_tree.s_first

(* Raises [Failure] with a description when an invariant is violated;
   used both by the qcheck properties and the repo sweep. *)
let check_invariants ~what (lex : Lint_lexer.t) (tree : Lint_tree.t) =
  let tks = lex.Lint_lexer.tokens in
  let n = Array.length tks in
  let fail fmt = Printf.ksprintf (fun m -> failwith (what ^ ": " ^ m)) fmt in
  let check_span label (s : Lint_tree.span) =
    if s.Lint_tree.s_first <= s.Lint_tree.s_last && not (span_ok n s) then
      fail "%s span %d..%d outside 0..%d" label s.Lint_tree.s_first
        s.Lint_tree.s_last (n - 1)
  in
  Array.iter
    (fun (b : Lint_tree.binding) ->
      let sp = b.Lint_tree.b_span in
      check_span ("binding " ^ b.Lint_tree.b_name) sp;
      if sp.Lint_tree.s_first > sp.Lint_tree.s_last then
        fail "binding %s has an empty binding span" b.Lint_tree.b_name;
      if
        b.Lint_tree.b_name_index >= 0
        && not (Lint_tree.span_contains sp b.Lint_tree.b_name_index)
      then
        fail "binding %s: name index %d outside span %d..%d"
          b.Lint_tree.b_name b.Lint_tree.b_name_index sp.Lint_tree.s_first
          sp.Lint_tree.s_last;
      let body = b.Lint_tree.b_body in
      if
        body.Lint_tree.s_first <= body.Lint_tree.s_last
        && not (Lint_tree.span_within body sp)
      then
        fail "binding %s: body %d..%d escapes span %d..%d" b.Lint_tree.b_name
          body.Lint_tree.s_first body.Lint_tree.s_last sp.Lint_tree.s_first
          sp.Lint_tree.s_last;
      (* Spans map back to exact lexer positions. *)
      if n > 0 then begin
        let first = tks.(sp.Lint_tree.s_first) in
        if first.Lint_lexer.line < 1 || first.Lint_lexer.col < 1 then
          fail "binding %s: span start has no lexer position"
            b.Lint_tree.b_name
      end)
    tree.Lint_tree.bindings;
  Array.iter (check_span "lambda") tree.Lint_tree.lambdas;
  Array.iter (check_span "loop") tree.Lint_tree.loops;
  Array.iter
    (fun (o : Lint_tree.open_decl) -> check_span "open scope" o.Lint_tree.o_scope)
    tree.Lint_tree.opens;
  (* Binding spans form a forest: disjoint or nested, never partially
     overlapping. *)
  let bs = tree.Lint_tree.bindings in
  Array.iteri
    (fun i (a : Lint_tree.binding) ->
      for j = i + 1 to Array.length bs - 1 do
        let b = bs.(j) in
        if not (spans_nest a.Lint_tree.b_span b.Lint_tree.b_span) then
          fail "bindings %s (%d..%d) and %s (%d..%d) partially overlap"
            a.Lint_tree.b_name a.Lint_tree.b_span.Lint_tree.s_first
            a.Lint_tree.b_span.Lint_tree.s_last b.Lint_tree.b_name
            b.Lint_tree.b_span.Lint_tree.s_first
            b.Lint_tree.b_span.Lint_tree.s_last
      done)
    bs

(* ------------------------------------------------------------------ *)
(* qcheck: token soup                                                  *)
(* ------------------------------------------------------------------ *)

let vocab =
  [|
    "let"; "in"; "="; "fun"; "function"; "->"; "("; ")"; "match"; "with";
    "|"; "x"; "f"; "g"; "1"; "if"; "then"; "else"; "module"; "open";
    "struct"; "sig"; "end"; "["; "]"; "{"; "}"; ";"; ";;"; "and"; "rec";
    "type"; "*"; ","; ":"; "B"; "M"; "."; "begin"; "done"; "do"; "for";
    "while"; "to"; "~rng"; "?opt"; "try"; "exception"; "include"; "'";
  |]

let gen_source =
  QCheck.Gen.(
    let word = map (fun i -> vocab.(i)) (int_bound (Array.length vocab - 1)) in
    map (String.concat " ") (list_size (int_bound 200) word))

let arb_source =
  QCheck.make ~print:(fun s -> s) gen_source

let prop_parse_total =
  QCheck.Test.make ~name:"parse is total and spans are valid" ~count:1000
    arb_source (fun src ->
      let lex = Lint_lexer.lex src in
      let tree = Lint_tree.parse lex in
      check_invariants ~what:"fuzz" lex tree;
      true)

let prop_helpers_consistent =
  QCheck.Test.make ~name:"helper queries agree with recorded spans" ~count:300
    arb_source (fun src ->
      let lex = Lint_lexer.lex src in
      let tree = Lint_tree.parse lex in
      let n = Array.length lex.Lint_lexer.tokens in
      for i = 0 to n - 1 do
        (* enclosing_binding must return a span containing i, and be the
           innermost such binding *)
        (match Lint_tree.enclosing_binding tree i with
        | Some b ->
            if not (Lint_tree.span_contains b.Lint_tree.b_span i) then
              failwith "enclosing_binding returned a non-containing span"
        | None ->
            if
              Array.exists
                (fun (b : Lint_tree.binding) ->
                  Lint_tree.span_contains b.Lint_tree.b_span i)
                tree.Lint_tree.bindings
            then failwith "enclosing_binding missed a containing binding");
        (* in_lambda / in_loop must agree with the recorded spans *)
        let some_lambda =
          Array.exists (fun s -> Lint_tree.span_contains s i) tree.Lint_tree.lambdas
        in
        if Lint_tree.in_lambda tree i <> some_lambda then
          failwith "in_lambda disagrees with lambda spans";
        let some_loop =
          Array.exists (fun s -> Lint_tree.span_contains s i) tree.Lint_tree.loops
        in
        if Lint_tree.in_loop tree i <> some_loop then
          failwith "in_loop disagrees with loop spans"
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Self-host sweep: every .ml in the repository                        *)
(* ------------------------------------------------------------------ *)

let rec ml_files_under dir =
  match Sys.readdir dir with
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if String.length entry > 0 && (entry.[0] = '.' || entry.[0] = '_')
          then acc
          else if Sys.is_directory path then acc @ ml_files_under path
          else if Filename.check_suffix entry ".ml" then acc @ [ path ]
          else acc)
        [] entries
  | exception Sys_error _ -> []

let test_selfhost_sweep () =
  (* Under [dune runtest] the binary runs from _build/default/test/ and
     the dune deps materialize the source trees as siblings; under
     [dune exec] from the project root they are direct children. *)
  let prefix = if Sys.file_exists "../lib" then ".." else "." in
  let roots = List.map (Filename.concat prefix) [ "lib"; "bin" ] in
  let files = List.concat_map ml_files_under roots in
  check_bool
    (Printf.sprintf "sweep found a real source tree (%d files)"
       (List.length files))
    true
    (List.length files > 50);
  List.iter
    (fun path ->
      let src = In_channel.with_open_bin path In_channel.input_all in
      let lex = Lint_lexer.lex src in
      match Lint_tree.parse lex with
      | tree -> check_invariants ~what:path lex tree
      | exception e ->
          Alcotest.failf "parse raised on %s: %s" path (Printexc.to_string e))
    files

let suite =
  [ Alcotest.test_case "self-host sweep" `Quick test_selfhost_sweep ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~verbose:false)
      [ prop_parse_total; prop_helpers_consistent ]
