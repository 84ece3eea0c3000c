type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  witness : string list;
}

type context = {
  path : string;
  lex : Lint_lexer.t;
  tree : Lint_tree.t;
  has_mli : bool;
}

type project = {
  p_graph : Lint_graph.t;
  p_interfaces : (string * Lint_lexer.t) list;
}

type check =
  | File of (context -> finding list)
  | Project of (project -> finding list)
  | Synthetic

type rule = { name : string; doc : string; check : check }

(* ------------------------------------------------------------------ *)
(* Path and token helpers                                              *)
(* ------------------------------------------------------------------ *)

let under dir path =
  let ld = String.length dir and lp = String.length path in
  lp > ld + 1 && String.sub path 0 (ld + 1) = dir ^ "/"

(* Text of token [i], or "" out of range: lets scans look at neighbors
   without bounds noise. *)
let tok (tks : Lint_lexer.token array) i =
  if i >= 0 && i < Array.length tks then tks.(i).Lint_lexer.text else ""

let finding ~rule ~path ~(at : Lint_lexer.token) ?(witness = []) message =
  {
    rule;
    file = path;
    line = at.Lint_lexer.line;
    col = at.Lint_lexer.col;
    message;
    witness;
  }

(* Shared scan: call [f i tks] on every token index, collect findings. *)
let scan_tokens ctx f =
  let tks = ctx.lex.Lint_lexer.tokens in
  let out = ref [] in
  Array.iteri
    (fun i _ -> match f tks i with Some fd -> out := fd :: !out | None -> ())
    tks;
  List.rev !out

let definition_keywords = [ "let"; "and"; "rec"; "val"; "external"; "method" ]

let has_prefix prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

(* ------------------------------------------------------------------ *)
(* no-stdlib-random                                                    *)
(* ------------------------------------------------------------------ *)

let prng_home = "lib/util/prng.ml"

let no_stdlib_random =
  let name = "no-stdlib-random" in
  {
    name;
    doc =
      "all randomness flows through Prng; only lib/util/prng.ml may touch \
       Stdlib.Random";
    check =
      File
        (fun ctx ->
          if ctx.path = prng_home then []
          else
            scan_tokens ctx (fun tks i ->
                let prev = tok tks (i - 1) and prev2 = tok tks (i - 2) in
                if
                  tok tks i = "Random"
                  && (prev <> "." || prev2 = "Stdlib")
                  && not (List.mem prev definition_keywords)
                  && prev <> "module"
                then
                  Some
                    (finding ~rule:name ~path:ctx.path ~at:tks.(i)
                       "Stdlib.Random breaks seed-reproducibility; draw from a \
                        Prng.t threaded from the experiment seed")
                else None));
  }

(* ------------------------------------------------------------------ *)
(* no-polymorphic-sort                                                 *)
(* ------------------------------------------------------------------ *)

let no_polymorphic_sort =
  let name = "no-polymorphic-sort" in
  {
    name;
    doc =
      "bare polymorphic `compare' is banned (sorts included); use \
       Int.compare / Float.compare / String.compare";
    check =
      File
        (fun ctx ->
          scan_tokens ctx (fun tks i ->
              if tok tks i <> "compare" then None
              else
                let prev = tok tks (i - 1)
                and prev2 = tok tks (i - 2)
                and next = tok tks (i + 1) in
                let qualified = prev = "." in
                let poly_qualified =
                  qualified && (prev2 = "Stdlib" || prev2 = "Poly")
                in
                let is_definition = List.mem prev definition_keywords in
                let is_label = prev = "~" || next = ":" in
                if
                  poly_qualified
                  || ((not qualified) && (not is_definition) && not is_label)
                then
                  Some
                    (finding ~rule:name ~path:ctx.path ~at:tks.(i)
                       "polymorphic compare: ordering silently depends on \
                        runtime representation; use a monomorphic comparator \
                        (Int.compare, Float.compare, String.compare, ...)")
                else None));
  }

(* ------------------------------------------------------------------ *)
(* no-hashtbl-order                                                    *)
(* ------------------------------------------------------------------ *)

let hashtbl_restricted_dirs = [ "lib/graph"; "lib/core"; "lib/p2p"; "lib/experiments" ]

let hashtbl_order_sensitive =
  [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let no_hashtbl_order =
  let name = "no-hashtbl-order" in
  {
    name;
    doc =
      "Hashtbl.iter/fold leak table order into results in lib/graph, \
       lib/core, lib/p2p, lib/experiments; rewrite order-insensitively or \
       suppress with a reason";
    check =
      File
        (fun ctx ->
          if
            not (List.exists (fun d -> under d ctx.path) hashtbl_restricted_dirs)
          then []
          else
            scan_tokens ctx (fun tks i ->
                if
                  tok tks i = "Hashtbl"
                  && tok tks (i + 1) = "."
                  && List.mem (tok tks (i + 2)) hashtbl_order_sensitive
                  && tok tks (i - 1) <> "."
                then
                  Some
                    (finding ~rule:name ~path:ctx.path ~at:tks.(i)
                       (Printf.sprintf
                          "Hashtbl.%s iterates in table order, which depends \
                           on insertion history; sort the result or suppress \
                           with a written reason if order provably cannot leak"
                          (tok tks (i + 2))))
                else None));
  }

(* ------------------------------------------------------------------ *)
(* no-wildcard-exn                                                     *)
(* ------------------------------------------------------------------ *)

(* A handler that catches everything: a [try] case whose pattern is [_]
   (guarded or not), reported at the [try]'s [with], and a [match] case
   [exception _], reported at its [exception]. *)
let no_wildcard_exn =
  let name = "no-wildcard-exn" in
  {
    name;
    doc =
      "`try ... with _ ->' and `match ... with exception _ ->' swallow \
       Out_of_memory, Stack_overflow and programming errors alike; match \
       the exceptions you mean";
    check =
      File
        (fun ctx ->
          let tks = ctx.lex.Lint_lexer.tokens in
          let out = ref [] in
          let report (p : Lexing.position) =
            let i = Lint_tree.first_token_at ctx.lex p in
            if i < Array.length tks then
              out :=
                finding ~rule:name ~path:ctx.path ~at:tks.(i)
                  "wildcard exception handler: catches \
                   Out_of_memory/Stack_overflow/Assert_failure; name the \
                   exception constructors instead"
                :: !out
          in
          let expr it (e : Parsetree.expression) =
            (match e.pexp_desc with
            | Pexp_try (body, cases)
              when List.exists
                     (fun (c : Parsetree.case) -> c.pc_lhs.ppat_desc = Ppat_any)
                     cases ->
                report body.pexp_loc.loc_end
            | Pexp_match (_, cases) ->
                List.iter
                  (fun (c : Parsetree.case) ->
                    match c.pc_lhs.ppat_desc with
                    | Ppat_exception { ppat_desc = Ppat_any; _ } ->
                        report c.pc_lhs.ppat_loc.loc_start
                    | _ -> ())
                  cases
            | _ -> ());
            Ast_iterator.default_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with expr } in
          it.structure it ctx.tree.Lint_tree.ast;
          List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* no-wallclock                                                        *)
(* ------------------------------------------------------------------ *)

let wallclock_calls =
  [ ("Unix", "gettimeofday"); ("Unix", "time"); ("Sys", "time") ]

let no_wallclock =
  let name = "no-wallclock" in
  {
    name;
    doc =
      "wall-clock reads belong in lib/experiments/telemetry.ml only; \
       simulation results must not observe real time";
    check =
      File
        (fun ctx ->
          if ctx.path = "lib/experiments/telemetry.ml" then []
          else
            scan_tokens ctx (fun tks i ->
                let here = (tok tks i, tok tks (i + 2)) in
                if
                  tok tks (i + 1) = "."
                  && tok tks (i - 1) <> "."
                  && List.exists (fun c -> c = here) wallclock_calls
                then
                  Some
                    (finding ~rule:name ~path:ctx.path ~at:tks.(i)
                       (Printf.sprintf
                          "%s.%s observes wall-clock time; route timing \
                           through Telemetry so simulations stay a pure \
                           function of the seed"
                          (fst here) (snd here)))
                else None));
  }

(* ------------------------------------------------------------------ *)
(* mli-coverage                                                        *)
(* ------------------------------------------------------------------ *)

let mli_coverage =
  let name = "mli-coverage" in
  {
    name;
    doc = "every lib/**/*.ml must have a matching .mli interface";
    check =
      File
        (fun ctx ->
          if under "lib" ctx.path && not ctx.has_mli then
            [
              {
                rule = name;
                file = ctx.path;
                line = 1;
                col = 1;
                message =
                  "missing interface file: add a .mli so the module's public \
                   surface is explicit";
                witness = [];
              };
            ]
          else []);
  }

(* ------------------------------------------------------------------ *)
(* no-print-in-lib                                                     *)
(* ------------------------------------------------------------------ *)

let print_allowed =
  [ "lib/experiments/report.ml"; "lib/util/table.ml"; "lib/util/asciiplot.ml" ]

(* The Stdlib console writers, by name: a prefix match would also catch
   unrelated identifiers that merely start with print_. *)
let stdlib_printers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_bytes"; "print_int"; "print_float"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_bytes";
    "prerr_int"; "prerr_float";
  ]

(* Is the token at [i] a direct console write?  Shared between
   no-print-in-lib (direct uses in lib/) and no-io-transitive (callers
   that reach one). *)
let is_print_site tks i =
  let t = tok tks i in
  let prev = tok tks (i - 1) in
  let direct_print =
    List.mem t stdlib_printers
    && prev <> "."
    && not (List.mem prev definition_keywords)
  in
  let formatted_print =
    (t = "Printf" || t = "Format")
    && tok tks (i + 1) = "."
    && (tok tks (i + 2) = "printf" || tok tks (i + 2) = "eprintf")
    && prev <> "."
  in
  direct_print || formatted_print

let no_print_in_lib =
  let name = "no-print-in-lib" in
  {
    name;
    doc =
      "stdout writes in lib/ must go through Report/Table/Asciiplot so text \
       output stays byte-reproducible";
    check =
      File
        (fun ctx ->
          if (not (under "lib" ctx.path)) || List.mem ctx.path print_allowed
          then []
          else
            scan_tokens ctx (fun tks i ->
                if is_print_site tks i then
                  Some
                    (finding ~rule:name ~path:ctx.path ~at:tks.(i)
                       "direct console output from lib/; emit through \
                        Report/Table/Asciiplot (or return the string) so \
                        experiment output stays controlled")
                else None));
  }

(* ------------------------------------------------------------------ *)
(* Shared semantic-pass helpers                                        *)
(* ------------------------------------------------------------------ *)

let def_label (d : Lint_graph.def) =
  d.Lint_graph.d_module ^ "." ^ d.Lint_graph.d_name

let witness_of_path defs = List.map def_label defs

let unit_of p (d : Lint_graph.def) = p.p_graph.Lint_graph.units.(d.Lint_graph.d_unit)

let def_token p (d : Lint_graph.def) =
  let u = unit_of p d in
  let tks = u.Lint_graph.u_lex.Lint_lexer.tokens in
  let k = d.Lint_graph.d_span.Lint_tree.s_first in
  if k >= 0 && k < Array.length tks then Some tks.(k) else None

(* Does the unit's token at [i] name the module [target] (directly or
   through one of the unit's `module X = Lib.X' aliases)? *)
let resolves_to (tree : Lint_tree.t) name target =
  name = target
  || Array.exists
       (fun (a, tgt) -> a = name && tgt = target)
       tree.Lint_tree.aliases

(* ------------------------------------------------------------------ *)
(* prng-flow                                                           *)
(* ------------------------------------------------------------------ *)

(* The PR 5 `Gossip.run' bug class: a stream created from a literal (or
   shared at module level) makes every trial draw the same randomness,
   invisibly.  Every draw must reach its call site through a function
   parameter or a Prng.split of one, so streams in lib/ may only be
   *created* from data that flowed in. *)
let prng_flow =
  let name = "prng-flow" in
  {
    name;
    doc =
      "Prng streams in lib/ must be threaded through parameters or split; \
       literal-seeded or module-level streams repeat randomness across \
       trials";
    check =
      Project
        (fun p ->
          let g = p.p_graph in
          let out = ref [] in
          Array.iteri
            (fun ui (u : Lint_graph.unit_info) ->
              let path = u.Lint_graph.u_path in
              if under "lib" path && path <> prng_home then begin
                let lex = u.Lint_graph.u_lex in
                let tree = u.Lint_graph.u_tree in
                let tks = lex.Lint_lexer.tokens in
                (* literal-seeded streams: Prng.create <literal> *)
                Array.iteri
                  (fun i _ ->
                    if
                      tok tks i = "create"
                      && tok tks (i - 1) = "."
                      && resolves_to tree (tok tks (i - 2)) "Prng"
                    then begin
                      let arg = tok tks (i + 1) in
                      if String.length arg > 0 && arg.[0] >= '0' && arg.[0] <= '9'
                      then
                        let witness =
                          match Lint_tree.enclosing_toplevel tree i with
                          | Some bd ->
                              [ u.Lint_graph.u_module ^ "."
                                ^ bd.Lint_tree.b_name ]
                          | None -> []
                        in
                        out :=
                          finding ~rule:name ~path ~at:tks.(i - 2) ~witness
                            (Printf.sprintf
                               "Prng.create %s: a literal-seeded stream draws \
                                the same randomness on every trial; thread \
                                ~rng from the experiment seed (or Prng.split \
                                a threaded stream)"
                               arg)
                          :: !out
                    end)
                  tks;
                (* module-level streams: a zero-parameter top-level value
                   whose body creates a stream is shared by every caller *)
                Array.iter
                  (fun (d : Lint_graph.def) ->
                    if d.Lint_graph.d_unit = ui && d.Lint_graph.d_params = []
                    then begin
                      let body = d.Lint_graph.d_body in
                      let creates = ref false in
                      for i = body.Lint_tree.s_first to body.Lint_tree.s_last do
                        if
                          tok tks i = "create"
                          && tok tks (i - 1) = "."
                          && resolves_to tree (tok tks (i - 2)) "Prng"
                        then creates := true
                      done;
                      if !creates then begin
                        (* witness: the first function that consumes the
                           shared stream, via the caller edges *)
                        let pred =
                          Lint_graph.bfs g ~edges:`Callers
                            ~roots:[ d.Lint_graph.d_id ]
                        in
                        let consumer =
                          Lint_graph.find_defs g ~f:(fun c ->
                              c.Lint_graph.d_id <> d.Lint_graph.d_id
                              && pred.(c.Lint_graph.d_id) >= 0)
                        in
                        let witness =
                          match consumer with
                          | c :: _ ->
                              witness_of_path (Lint_graph.path g ~pred c)
                          | [] -> [ def_label d ]
                        in
                        match def_token p d with
                        | Some at ->
                            out :=
                              finding ~rule:name ~path ~at ~witness
                                (Printf.sprintf
                                   "module-level Prng stream `%s' is shared \
                                    by every caller; accept ~rng as a \
                                    parameter so each trial draws from its \
                                    own split"
                                   d.Lint_graph.d_name)
                              :: !out
                        | None -> ()
                      end
                    end)
                  g.Lint_graph.defs
              end)
            g.Lint_graph.units;
          List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* no-io-transitive                                                    *)
(* ------------------------------------------------------------------ *)

let no_io_transitive =
  let name = "no-io-transitive" in
  {
    name;
    doc =
      "nothing in lib/ may transitively reach a stdout/stderr writer \
       outside the report layer; the witness shows the call chain";
    check =
      Project
        (fun p ->
          let g = p.p_graph in
          (* direct writers outside the report layer are the taint roots *)
          let direct d =
            let u = unit_of p d in
            if List.mem u.Lint_graph.u_path print_allowed then false
            else begin
              let tks = u.Lint_graph.u_lex.Lint_lexer.tokens in
              let body = d.Lint_graph.d_body in
              let found = ref false in
              for i = body.Lint_tree.s_first to body.Lint_tree.s_last do
                if is_print_site tks i then found := true
              done;
              !found
            end
          in
          let roots =
            Lint_graph.find_defs g ~f:(fun d -> direct d)
          in
          let root_set = List.sort_uniq Int.compare roots in
          let pred = Lint_graph.bfs g ~edges:`Callers ~roots:root_set in
          let out = ref [] in
          Array.iter
            (fun (d : Lint_graph.def) ->
              let u = unit_of p d in
              let path = u.Lint_graph.u_path in
              if
                under "lib" path
                && (not (List.mem path print_allowed))
                && pred.(d.Lint_graph.d_id) >= 0
                && not (List.mem d.Lint_graph.d_id root_set)
              then begin
                (* path from the writer up to [d]; reverse it so the
                   witness reads caller -> ... -> writer *)
                let chain =
                  List.rev (Lint_graph.path g ~pred d.Lint_graph.d_id)
                in
                match def_token p d with
                | Some at ->
                    out :=
                      finding ~rule:name ~path ~at
                        ~witness:(witness_of_path chain)
                        (Printf.sprintf
                           "`%s' reaches a console writer outside the report \
                            layer; return the text (or route through \
                            Report/Table/Asciiplot) instead"
                           d.Lint_graph.d_name)
                      :: !out
                | None -> ()
              end)
            g.Lint_graph.defs;
          List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* hot-path-alloc                                                      *)
(* ------------------------------------------------------------------ *)

(* The registered kernel entry points: the flooding round kernels, the
   churn jump kernels (add_node + kill ARE the jump: the paper's churn
   process replaces a killed node by a fresh birth), the runners that
   drive them once per round or per batch of Poisson jumps (whose churn
   draws happen there), the per-jump steps of the protocol-driven models
   (their neighbour picks and repair loops), the edge policies the
   streaming engine's step runs once per round (through a closure, which
   the call graph cannot follow, so each is an entry of its own), the
   per-candidate expansion scorer, the spectral power step, run up to
   300 times per snapshot over the whole component, and the streaming
   degree census, one pass over every alive node per statistics sample. *)
let kernel_steps = [ "Streaming_model"; "Bitcoin_like"; "Capped_model"; "Lazy_regen_model" ]
let kernel_policies = [ "Rw_streaming"; "Cache_protocol"; "Local_update"; "Burst_model" ]

let kernel_entries (d : Lint_graph.def) =
  let m = d.Lint_graph.d_module and x = d.Lint_graph.d_name in
  (m = "Flood" && (has_prefix "expand_informed" x || x = "poisson_round"))
  || (m = "Dyngraph" && (x = "add_node" || x = "kill"))
  || (x = "step" && List.mem m kernel_steps)
  || (m = "Streaming_model" && x = "uniform")
  || (x = "policy" && List.mem m kernel_policies)
  || (m = "Poisson_model" && x = "run_batch")
  || (m = "Probe" && x = "consider")
  || (m = "Spectral" && x = "power_step")
  || (m = "Stream_stats" && x = "collect")

(* [tks.(k)] names a type being defined: [type]/[and]/[nonrec], then
   optional type parameters (the lexer drops their quotes), then [k]. *)
let is_type_head tks k =
  let j = ref (k - 1) in
  let is_keyword t = t = "type" || t = "and" || t = "nonrec" in
  while
    match tok tks !j with
    | "(" | ")" | "," -> true
    | t -> String.length t > 0 && t.[0] >= 'a' && t.[0] <= 'z' && not (is_keyword t)
  do
    decr j
  done;
  is_keyword (tok tks !j)

(* The record fields declared in [tks], as [(field, boxed)] where
   [boxed = Some (record, type)] marks a mutable field whose every store
   boxes: an [int64] field always, and a [float] field unless all fields
   of its record are floats (OCaml stores an all-float record flat). *)
let record_fields (tks : Lint_lexer.token array) =
  let ntk = Array.length tks in
  let out = ref [] in
  let is_float ty = ty = [ "float" ] || ty = [ "Float"; "."; "t" ] in
  let is_int64 ty = ty = [ "int64" ] || ty = [ "Int64"; "."; "t" ] in
  for i = 0 to ntk - 1 do
    if tok tks i = "{" && tok tks (i - 1) = "=" && is_type_head tks (i - 2) then begin
      (* fields are the depth-0 `;'-separated runs up to the `}' *)
      let fields = ref [] and cur = ref [] in
      let j = ref (i + 1) and depth = ref 0 and stop = ref false in
      while (not !stop) && !j < ntk do
        let t = tok tks !j in
        if !depth = 0 && (t = ";" || t = "}") then begin
          (match List.rev !cur with
          | "mutable" :: name :: ":" :: ty -> fields := (true, name, ty) :: !fields
          | name :: ":" :: ty -> fields := (false, name, ty) :: !fields
          | _ -> ());
          cur := [];
          stop := t = "}"
        end
        else begin
          (match t with
          | "(" | "[" | "{" -> incr depth
          | ")" | "]" | "}" -> decr depth
          | _ -> ());
          cur := t :: !cur
        end;
        incr j
      done;
      let all_float = List.for_all (fun (_, _, ty) -> is_float ty) !fields in
      let record = tok tks (i - 2) in
      List.iter
        (fun (mut, name, ty) ->
          let boxed =
            if mut && is_int64 ty then Some (record, "int64")
            else if mut && is_float ty && not all_float then Some (record, "float")
            else None
          in
          out := (name, boxed) :: !out)
        !fields
    end
  done;
  !out

let alloc_list_combinators =
  [
    "map"; "mapi"; "map2"; "filter"; "filter_map"; "concat"; "concat_map";
    "append"; "rev"; "rev_append"; "rev_map"; "init"; "sort"; "stable_sort";
    "fast_sort"; "merge"; "split"; "combine"; "flatten"; "of_seq"; "to_seq";
  ]

let hot_path_alloc =
  let name = "hot-path-alloc" in
  {
    name;
    doc =
      "functions reachable from the kernel entry points \
       (Flood.expand_informed*, Flood.poisson_round, \
       Dyngraph.add_node/kill, the step of \
       Streaming_model, Bitcoin_like, Capped_model and Lazy_regen_model, \
       Streaming_model.uniform and the policy of Rw_streaming, \
       Cache_protocol, Local_update and Burst_model, \
       Poisson_model.run_batch, Probe.consider, Spectral.power_step, \
       Stream_stats.collect) \
       must not allocate per element: no List combinators, per-iteration \
       closures, local functions, tuples, partial applications or stores \
       to boxed mutable float/int64 fields";
    check =
      Project
        (fun p ->
          let g = p.p_graph in
          let roots = Lint_graph.find_defs g ~f:kernel_entries in
          let pred = Lint_graph.bfs g ~edges:`Calls ~roots in
          (* A field resolves to its own unit's declaration when there
             is one (records are mostly private to their module), else
             to any lib/ declaration that boxes. *)
          let fields_of =
            Array.map
              (fun (u : Lint_graph.unit_info) ->
                record_fields u.Lint_graph.u_lex.Lint_lexer.tokens)
              g.Lint_graph.units
          in
          let global_boxed =
            List.concat
              (List.filteri
                 (fun i _ -> under "lib" g.Lint_graph.units.(i).Lint_graph.u_path)
                 (Array.to_list fields_of))
          in
          let boxed_field unit_id field =
            let local = fields_of.(unit_id) in
            let from = if List.mem_assoc field local then local else global_boxed in
            List.find_map
              (fun (f, boxed) -> if f = field then boxed else None)
              from
          in
          let out = ref [] in
          Array.iter
            (fun (d : Lint_graph.def) ->
              let u = unit_of p d in
              let path = u.Lint_graph.u_path in
              if under "lib" path && pred.(d.Lint_graph.d_id) >= 0 then begin
                let witness =
                  witness_of_path (Lint_graph.path g ~pred d.Lint_graph.d_id)
                in
                let lex = u.Lint_graph.u_lex in
                let tree = u.Lint_graph.u_tree in
                let tks = lex.Lint_lexer.tokens in
                let body = d.Lint_graph.d_body in
                let emit ~at msg =
                  out := finding ~rule:name ~path ~at ~witness msg :: !out
                in
                (* pattern/type regions where a `,' is not a tuple
                   construction: let/and..=, fun..->, |..->, with..->,
                   :..terminator *)
                let ntk = Array.length tks in
                let masked = Array.make (max 1 ntk) false in
                let mask_from i stops =
                  let j = ref (i + 1) in
                  while
                    !j < ntk
                    && (not (List.mem (tok tks !j) stops))
                    && !j <= body.Lint_tree.s_last + 1
                  do
                    if !j < ntk then masked.(!j) <- true;
                    incr j
                  done
                in
                for i = max 0 body.Lint_tree.s_first
                    to min (ntk - 1) body.Lint_tree.s_last do
                  match tok tks i with
                  | "let" | "and" -> mask_from i [ "=" ]
                  | "fun" -> mask_from i [ "->" ]
                  | "|" | "with" -> mask_from i [ "->" ]
                  | ":" -> mask_from i [ "="; ")"; "->"; ";" ]
                  | _ -> ()
                done;
                (* local functions: a closure is allocated per call
                   (and its free variables captured) *)
                Array.iter
                  (fun (b : Lint_tree.binding) ->
                    if
                      (not b.Lint_tree.b_toplevel)
                      && b.Lint_tree.b_params <> []
                      && tok tks (b.Lint_tree.b_name_index + 1) <> ","
                      && Lint_tree.span_within b.Lint_tree.b_span body
                    then
                      emit ~at:tks.(b.Lint_tree.b_name_index)
                        (Printf.sprintf
                           "local function `%s' allocates a closure on every \
                            call in a kernel hot path; use a while loop or \
                            lift it to the top level"
                           b.Lint_tree.b_name))
                  tree.Lint_tree.bindings;
                let depth = ref 0 in
                for i = max 0 body.Lint_tree.s_first
                    to min (ntk - 1) body.Lint_tree.s_last do
                  let t = tok tks i in
                  (match t with
                  | "(" -> incr depth
                  | ")" -> decr depth
                  | _ -> ());
                  (* List combinators allocate per element *)
                  if
                    t = "List"
                    && tok tks (i + 1) = "."
                    && List.mem (tok tks (i + 2)) alloc_list_combinators
                    && tok tks (i - 1) <> "."
                  then
                    emit ~at:tks.(i)
                      (Printf.sprintf
                         "List.%s allocates a cons cell per element in a \
                          kernel hot path; use an array, Intvec or an index \
                          loop"
                         (tok tks (i + 2)))
                  (* list append allocates the whole left spine *)
                  else if t = "@" && i > body.Lint_tree.s_first then
                    emit ~at:tks.(i)
                      "list append (@) copies its left operand in a kernel \
                       hot path; use Intvec.push or preallocated arrays"
                  (* tuple construction outside pattern/type position *)
                  else if
                    t = "," && !depth >= 1 && i < ntk && not masked.(i)
                  then
                    emit ~at:tks.(i)
                      "tuple construction in a kernel hot path allocates per \
                       call; return components separately or use a \
                       preallocated record"
                  (* a store that boxes its float/int64 value *)
                  else if t = "<-" && tok tks (i - 2) = "." then begin
                    match boxed_field d.Lint_graph.d_unit (tok tks (i - 1)) with
                    | None -> ()
                    | Some (record, ty) ->
                        emit ~at:tks.(i - 1)
                          (Printf.sprintf
                             "store to mutable %s field `%s' of record `%s' \
                              boxes a fresh value on every write in a kernel \
                              hot path; keep it in an all-float record or sum \
                              into a local ref and store once"
                             ty (tok tks (i - 1)) record)
                  end
                  (* per-iteration closures *)
                  else if
                    (t = "fun" || t = "function")
                    && Lint_tree.in_nested_lambda_or_loop tree i
                  then
                    emit ~at:tks.(i)
                      "closure allocated per iteration of an enclosing \
                       loop/lambda in a kernel hot path; hoist it or inline \
                       the loop"
                done
              end)
            g.Lint_graph.defs;
          (* partial applications: a parenthesized application of a known
             def with fewer arguments than parameters *)
          Array.iter
            (fun (d : Lint_graph.def) ->
              let u = unit_of p d in
              let path = u.Lint_graph.u_path in
              if under "lib" path && pred.(d.Lint_graph.d_id) >= 0 then begin
                let witness =
                  witness_of_path (Lint_graph.path g ~pred d.Lint_graph.d_id)
                in
                let lex = u.Lint_graph.u_lex in
                let tks = lex.Lint_lexer.tokens in
                let ntk = Array.length tks in
                let body = d.Lint_graph.d_body in
                for i = max 0 body.Lint_tree.s_first
                    to min (ntk - 1) body.Lint_tree.s_last do
                  if tok tks (i - 1) = "(" && tok tks (i + 1) = "." then begin
                    (* (M.f a1 .. am): resolve f's arity and count args *)
                    let m = tok tks i and x = tok tks (i + 2) in
                    let target =
                      let u_tree = u.Lint_graph.u_tree in
                      let resolved =
                        match
                          Array.find_opt
                            (fun (a, _) -> a = m)
                            u_tree.Lint_tree.aliases
                        with
                        | Some (_, t) -> t
                        | None -> m
                      in
                      match Lint_graph.find_def g ~module_:resolved ~name:x with
                      | id :: _ -> Some g.Lint_graph.defs.(id)
                      | [] -> None
                    in
                    match target with
                    | Some callee
                      when List.length callee.Lint_graph.d_params >= 1 -> (
                        let arity = List.length callee.Lint_graph.d_params in
                        (* count simple argument atoms up to the `)' *)
                        let args = ref 0 in
                        let j = ref (i + 3) in
                        let ok = ref true in
                        let stop = ref false in
                        while (not !stop) && !ok && !j < ntk do
                          let t = tok tks !j in
                          if t = ")" then stop := true
                          else if t = "(" then begin
                            (* a parenthesized argument counts once *)
                            let dep = ref 1 in
                            incr j;
                            while !dep > 0 && !j < ntk do
                              (match tok tks !j with
                              | "(" -> incr dep
                              | ")" -> decr dep
                              | _ -> ());
                              incr j
                            done;
                            decr j;
                            incr args
                          end
                          else if t = "~" || t = "?" then begin
                            (* labelled argument: ~l:v *)
                            incr args;
                            j := !j + 2;
                            if tok tks !j = ":" then incr j
                          end
                          else if t = "." then ()
                          else if
                            String.length t > 0
                            && (t.[0] = '_'
                               || (t.[0] >= 'a' && t.[0] <= 'z')
                               || (t.[0] >= 'A' && t.[0] <= 'Z')
                               || (t.[0] >= '0' && t.[0] <= '9'))
                          then begin
                            (* qualified atoms M.x count once: skip the
                               dotted tail *)
                            while tok tks (!j + 1) = "." do
                              j := !j + 2
                            done;
                            incr args
                          end
                          else ok := false;
                          if (not !stop) && !ok then incr j
                        done;
                        if !ok && !stop && !args >= 1 && !args < arity then
                          out :=
                            finding ~rule:name ~path ~at:tks.(i) ~witness
                              (Printf.sprintf
                                 "partial application of %s.%s (%d of %d \
                                  arguments) allocates a closure in a kernel \
                                  hot path; apply it fully or hoist the \
                                  partial application"
                                 m x !args arity)
                            :: !out)
                    | _ -> ()
                  end
                done
              end)
            g.Lint_graph.defs;
          List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* dead-export                                                         *)
(* ------------------------------------------------------------------ *)

let dead_export =
  let name = "dead-export" in
  {
    name;
    doc =
      ".mli-declared values never referenced outside their own module are \
       dead surface; delete them or move them under test-only interfaces";
    check =
      Project
        (fun p ->
          let g = p.p_graph in
          let out = ref [] in
          List.iter
            (fun (path, (lex : Lint_lexer.t)) ->
              if under "lib" path then begin
                let module_ = Lint_graph.module_of_path path in
                let tks = lex.Lint_lexer.tokens in
                let ntk = Array.length tks in
                for i = 0 to ntk - 1 do
                  if
                    (tok tks i = "val" || tok tks i = "external")
                    && tok tks (i - 1) <> "."
                  then begin
                    let vname = tok tks (i + 1) in
                    (* skip operators (val ( + ) : ...): their uses are
                       not reliably trackable *)
                    if
                      String.length vname > 0
                      && (vname.[0] = '_'
                         || (vname.[0] >= 'a' && vname.[0] <= 'z'))
                    then
                      if
                        Lint_graph.external_ref_count g ~module_ ~name:vname
                        = 0
                      then
                        out :=
                          finding ~rule:name ~path ~at:tks.(i)
                            (Printf.sprintf
                               "val %s is never referenced outside %s; drop \
                                it from the interface or delete the \
                                implementation"
                               vname module_)
                          :: !out
                  end
                done
              end)
            p.p_interfaces;
          List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* unused-pragma (engine-implemented)                                  *)
(* ------------------------------------------------------------------ *)

let unused_pragma =
  {
    name = "unused-pragma";
    doc =
      "a `(* lint: allow *)' pragma that suppresses nothing is stale; \
       pragmas must expire with the code they excused";
    check = Synthetic;
  }

(* ------------------------------------------------------------------ *)
(* Catalogue                                                           *)
(* ------------------------------------------------------------------ *)

let all =
  [
    no_stdlib_random;
    no_polymorphic_sort;
    no_hashtbl_order;
    no_wildcard_exn;
    no_wallclock;
    mli_coverage;
    no_print_in_lib;
    prng_flow;
    no_io_transitive;
    hot_path_alloc;
    dead_export;
    unused_pragma;
  ]

let names = List.map (fun r -> r.name) all
let is_rule name = List.mem name names

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule
