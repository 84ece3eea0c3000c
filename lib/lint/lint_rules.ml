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
(* Paths, findings and names                                           *)
(* ------------------------------------------------------------------ *)

let under dir path =
  let ld = String.length dir and lp = String.length path in
  lp > ld + 1 && String.sub path 0 (ld + 1) = dir ^ "/"

let finding ~rule ~path ~(at : Lint_lexer.token) ?(witness = []) message =
  {
    rule;
    file = path;
    line = at.Lint_lexer.line;
    col = at.Lint_lexer.col;
    message;
    witness;
  }

let has_prefix prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

(* A place where a unit names something: the paths it may denote, their
   common last segment, and the token a finding about it lands on. *)
type site = { at : int; last : string; paths : string list list }

(* What an expression matcher sees besides the node itself. *)
type scope = {
  resolve : Longident.t Location.loc -> site;
  nesting : int;  (* enclosing lambdas and loops, the node itself included *)
}

let rec segments : Longident.t -> string list = function
  | Lident x -> [ x ]
  | Ldot (m, x) -> segments m @ [ x ]
  | Lapply (f, _) -> segments f

(* The modules that only wrap a library: the standard library's and
   dune's for each of churnet's own. *)
let is_wrapper m = m = "Stdlib" || has_prefix "Churnet_" m

(* [walk lex tree ~on_name ~on_expr ()] visits the unit's Parsetree once:
   [on_name] sees every value, type and module path it names, [on_expr]
   every expression.  Names resolve as far as they can without types: a
   library wrapper ([Stdlib.], [Churnet_util.]) is stripped, the head
   module follows the unit's [module A = B] aliases, and a bare name also
   reads as qualified by every module opened where it stands ([open M],
   [let open M in], [M.(...)]).  So [Stdlib.Hashtbl.fold], [H.fold]
   under [module H = Hashtbl] and [fold] in [Hashtbl.(...)] all name
   [["Hashtbl"; "fold"]], and each banned name is one table entry.  A
   site lands on the head module's token, or on the bare name's. *)
let walk (lex : Lint_lexer.t) (tree : Lint_tree.t) ?(on_name = fun _ -> ())
    ?(on_expr = fun _ _ -> ()) () =
  let canonical lid =
    let stripped, path =
      match segments lid with
      | wrapper :: (_ :: _ as path) when is_wrapper wrapper -> (true, path)
      | path -> (false, path)
    in
    match path with
    | m :: rest -> (
        match Array.find_opt (fun (a, _) -> a = m) tree.Lint_tree.aliases with
        | Some (_, target) -> (stripped, target :: rest)
        | None -> (stripped, path))
    | [] -> (stripped, [])
  in
  let opens = ref [] and nesting = ref 0 in
  let resolve ({ txt; loc } : Longident.t Location.loc) =
    let first = Lint_tree.first_token_at lex loc.loc_start in
    let stripped, path = canonical txt in
    let paths =
      match txt with
      | Lident x -> List.map (fun m -> m @ [ x ]) !opens @ [ path ]
      | _ -> [ path ]
    in
    let at = if stripped then first + 2 else first in
    { at; last = Longident.last txt; paths }
  in
  let name lid = on_name (resolve lid) in
  let opened (od : Parsetree.open_declaration) =
    match od.popen_expr.pmod_desc with
    | Pmod_ident lid -> [ snd (canonical lid.txt) ]
    | _ -> []
  in
  let default = Ast_iterator.default_iterator in
  (* a structure-level open holds until the end of its structure *)
  let structure it items =
    let saved = !opens in
    List.iter
      (fun (item : Parsetree.structure_item) ->
        it.Ast_iterator.structure_item it item;
        match item.pstr_desc with
        | Pstr_open od -> opens := opened od @ !opens
        | _ -> ())
      items;
    opens := saved
  in
  let expr it (e : Parsetree.expression) =
    let scoped =
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> not e.pexp_loc.loc_ghost
      | Pexp_for _ | Pexp_while _ -> true
      | _ -> false
    in
    if scoped then incr nesting;
    (match e.pexp_desc with Pexp_ident lid -> name lid | _ -> ());
    on_expr { resolve; nesting = !nesting } e;
    (match e.pexp_desc with
    | Pexp_open (od, body) ->
        it.Ast_iterator.open_declaration it od;
        let saved = !opens in
        opens := opened od @ saved;
        it.expr it body;
        opens := saved
    | _ -> default.expr it e);
    if scoped then decr nesting
  in
  let typ it (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> name lid
    | _ -> ());
    default.typ it t
  in
  let module_expr it (m : Parsetree.module_expr) =
    (match m.pmod_desc with Pmod_ident lid -> name lid | _ -> ());
    default.module_expr it m
  in
  let module_type it (m : Parsetree.module_type) =
    (match m.pmty_desc with Pmty_ident lid | Pmty_alias lid -> name lid | _ -> ());
    default.module_type it m
  in
  let it = { default with structure; expr; typ; module_expr; module_type } in
  it.structure it tree.Lint_tree.ast

(* Every site a unit names, in source order.  The engine runs each file
   rule over one unit before it moves on, so the last unit's sites are
   kept for the next rule. *)
let sites =
  let last = ref (Lint_tree.empty, []) in
  fun lex tree ->
    if fst !last != tree then begin
      let out = ref [] in
      walk lex tree ~on_name:(fun site -> out := site :: !out) ();
      last := (tree, List.rev !out)
    end;
    snd !last

(* [named table site]: the path of [table] the site names, if any.  The
   table is indexed by last segment once, when [named table] is made. *)
let named table =
  let index = Hashtbl.create 16 in
  List.iter (fun path -> Hashtbl.add index (List.hd (List.rev path)) path) table;
  fun site ->
    match Hashtbl.find_all index site.last with
    | [] -> None
    | entries -> List.find_opt (fun path -> List.mem path entries) site.paths

(* A file rule reporting every site [pick] recognizes, with the message
   [message] makes of the path it picked. *)
let name_rule ~name ~doc ~applies ~pick message =
  {
    name;
    doc;
    check =
      File
        (fun ctx ->
          if not (applies ctx.path) then []
          else
            List.filter_map
              (fun site ->
                Option.map
                  (fun path ->
                    finding ~rule:name ~path:ctx.path
                      ~at:ctx.lex.Lint_lexer.tokens.(site.at) (message path))
                  (pick site))
              (sites ctx.lex ctx.tree));
  }

(* ------------------------------------------------------------------ *)
(* no-stdlib-random                                                    *)
(* ------------------------------------------------------------------ *)

let prng_home = "lib/util/prng.ml"

let no_stdlib_random =
  name_rule ~name:"no-stdlib-random"
    ~doc:
      "all randomness flows through Prng; only lib/util/prng.ml may touch \
       Stdlib.Random"
    ~applies:(fun path -> path <> prng_home)
    ~pick:(fun site ->
      List.find_opt (function "Random" :: _ -> true | _ -> false) site.paths)
    (fun _ ->
      "Stdlib.Random breaks seed-reproducibility; draw from a Prng.t threaded \
       from the experiment seed")

(* ------------------------------------------------------------------ *)
(* no-polymorphic-sort                                                 *)
(* ------------------------------------------------------------------ *)

let no_polymorphic_sort =
  name_rule ~name:"no-polymorphic-sort"
    ~doc:
      "bare polymorphic `compare' is banned (sorts included); use \
       Int.compare / Float.compare / String.compare"
    ~applies:(fun _ -> true)
    ~pick:(named [ [ "compare" ]; [ "Poly"; "compare" ] ])
    (fun _ ->
      "polymorphic compare: ordering silently depends on runtime \
       representation; use a monomorphic comparator (Int.compare, \
       Float.compare, String.compare, ...)")

(* ------------------------------------------------------------------ *)
(* no-hashtbl-order                                                    *)
(* ------------------------------------------------------------------ *)

let hashtbl_restricted_dirs = [ "lib/graph"; "lib/core"; "lib/p2p"; "lib/experiments" ]

let hashtbl_order_sensitive =
  [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let no_hashtbl_order =
  name_rule ~name:"no-hashtbl-order"
    ~doc:
      "Hashtbl.iter/fold leak table order into results in lib/graph, \
       lib/core, lib/p2p, lib/experiments; rewrite order-insensitively or \
       suppress with a reason"
    ~applies:(fun path -> List.exists (fun d -> under d path) hashtbl_restricted_dirs)
    ~pick:(named (List.map (fun f -> [ "Hashtbl"; f ]) hashtbl_order_sensitive))
    (fun path ->
      Printf.sprintf
        "Hashtbl.%s iterates in table order, which depends on insertion \
         history; sort the result or suppress with a written reason if order \
         provably cannot leak"
        (List.nth path 1))

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
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ] ]

let no_wallclock =
  name_rule ~name:"no-wallclock"
    ~doc:
      "wall-clock reads belong in lib/experiments/telemetry.ml only; \
       simulation results must not observe real time"
    ~applies:(fun path -> path <> "lib/experiments/telemetry.ml")
    ~pick:(named wallclock_calls)
    (fun path ->
      Printf.sprintf
        "%s observes wall-clock time; route timing through Telemetry so \
         simulations stay a pure function of the seed"
        (String.concat "." path))

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

(* The console writers, by name: a prefix match would also catch
   unrelated identifiers that merely start with print_. *)
let printers =
  [ [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Format"; "printf" ];
    [ "Format"; "eprintf" ] ]
  @ List.map
      (fun p -> [ p ])
      [
        "print_string"; "print_endline"; "print_newline"; "print_char";
        "print_bytes"; "print_int"; "print_float"; "prerr_string";
        "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_bytes";
        "prerr_int"; "prerr_float";
      ]

(* A direct console write.  Shared between no-print-in-lib (direct uses
   in lib/) and no-io-transitive (callers that reach one). *)
let is_print = named printers

let no_print_in_lib =
  name_rule ~name:"no-print-in-lib"
    ~doc:
      "stdout writes in lib/ must go through Report/Table/Asciiplot so text \
       output stays byte-reproducible"
    ~applies:(fun path -> under "lib" path && not (List.mem path print_allowed))
    ~pick:is_print
    (fun _ ->
      "direct console output from lib/; emit through Report/Table/Asciiplot \
       (or return the string) so experiment output stays controlled")

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

(* ------------------------------------------------------------------ *)
(* prng-flow                                                           *)
(* ------------------------------------------------------------------ *)

(* The PR 5 `Gossip.run' bug class: a stream created from a literal (or
   shared at module level) makes every trial draw the same randomness,
   invisibly.  Every draw must reach its call site through a function
   parameter or a Prng.split of one, so streams in lib/ may only be
   *created* from data that flowed in. *)
let is_create = named [ [ "Prng"; "create" ] ]

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
                let on_expr scope (e : Parsetree.expression) =
                  match e.pexp_desc with
                  | Pexp_apply
                      ( { pexp_desc = Pexp_ident lid; _ },
                        (Nolabel, { pexp_desc = Pexp_constant (Pconst_integer (seed, _)); _ })
                        :: _ ) ->
                      let site = scope.resolve lid in
                      if is_create site <> None then
                        let witness =
                          match Lint_tree.enclosing_toplevel tree site.at with
                          | Some bd ->
                              [ u.Lint_graph.u_module ^ "." ^ bd.Lint_tree.b_name ]
                          | None -> []
                        in
                        out :=
                          finding ~rule:name ~path ~at:tks.(site.at) ~witness
                            (Printf.sprintf
                               "Prng.create %s: a literal-seeded stream draws \
                                the same randomness on every trial; thread \
                                ~rng from the experiment seed (or Prng.split \
                                a threaded stream)"
                               seed)
                          :: !out
                  | _ -> ()
                in
                let creates = ref [] in
                let on_name site = if is_create site <> None then creates := site :: !creates in
                walk lex tree ~on_name ~on_expr ();
                (* module-level streams: a zero-parameter top-level value
                   whose body creates a stream is shared by every caller *)
                Array.iter
                  (fun (d : Lint_graph.def) ->
                    if
                      d.Lint_graph.d_unit = ui
                      && d.Lint_graph.d_params = []
                      && List.exists
                           (fun site ->
                             Lint_tree.span_contains d.Lint_graph.d_body site.at)
                           !creates
                    then begin
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
          let sites =
            Array.map
              (fun (u : Lint_graph.unit_info) ->
                if List.mem u.Lint_graph.u_path print_allowed then []
                else
                  List.filter_map
                    (fun site -> if is_print site <> None then Some site.at else None)
                    (sites u.Lint_graph.u_lex u.Lint_graph.u_tree))
              g.Lint_graph.units
          in
          let roots =
            Lint_graph.find_defs g ~f:(fun d ->
                List.exists
                  (Lint_tree.span_contains d.Lint_graph.d_body)
                  sites.(d.Lint_graph.d_unit))
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

(* The record fields a unit declares, as [(field, boxed)] where
   [boxed = Some (record, type)] marks a mutable field whose every store
   boxes: an [int64] field always, and a [float] field unless all fields
   of its record are floats (OCaml stores an all-float record flat). *)
let boxed_fields (tree : Lint_tree.t) =
  let out = ref [] in
  (* [ty] is [base] or [M.t] *)
  let is base m (f : Parsetree.label_declaration) =
    match f.pld_type.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, []) -> List.mem (segments txt) [ [ base ]; [ m; "t" ] ]
    | _ -> false
  in
  let type_declaration it (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
    | Ptype_record fields ->
        let all_float = List.for_all (is "float" "Float") fields in
        List.iter
          (fun (f : Parsetree.label_declaration) ->
            let boxed =
              match f.pld_mutable with
              | Mutable when is "int64" "Int64" f -> Some (td.ptype_name.txt, "int64")
              | Mutable when is "float" "Float" f && not all_float ->
                  Some (td.ptype_name.txt, "float")
              | Mutable | Immutable -> None
            in
            out := (f.pld_name.txt, boxed) :: !out)
          fields
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  (* records are declared in structures, not inside expressions *)
  let expr _ _ = () in
  let it = { Ast_iterator.default_iterator with type_declaration; expr } in
  it.structure it tree.Lint_tree.ast;
  !out

let alloc_list_combinators =
  [
    "map"; "mapi"; "map2"; "filter"; "filter_map"; "concat"; "concat_map";
    "append"; "rev"; "rev_append"; "rev_map"; "init"; "sort"; "stable_sort";
    "fast_sort"; "merge"; "split"; "combine"; "flatten"; "of_seq"; "to_seq";
  ]

let is_allocating =
  named ([ "@" ] :: List.map (fun f -> [ "List"; f ]) alloc_list_combinators)

(* Every allocation hot-path-alloc names in a unit, as (token index,
   message); the rule keeps those inside the bodies of kernel-reachable
   defs.  [boxed_field] resolves a stored field. *)
let alloc_sites (g : Lint_graph.t) (u : Lint_graph.unit_info) boxed_field =
  let lex = u.Lint_graph.u_lex and tree = u.Lint_graph.u_tree in
  let token_at (p : Lexing.position) = Lint_tree.first_token_at lex p in
  let sites = ref [] in
  let emit i msg = sites := (i, msg) :: !sites in
  (* local functions: a closure is allocated per call (and its free
     variables captured) *)
  Array.iter
    (fun (b : Lint_tree.binding) ->
      if (not b.Lint_tree.b_toplevel) && b.Lint_tree.b_params <> [] then
        emit b.Lint_tree.b_name_index
          (Printf.sprintf
             "local function `%s' allocates a closure on every call in a \
              kernel hot path; use a while loop or lift it to the top level"
             b.Lint_tree.b_name))
    tree.Lint_tree.bindings;
  (* List combinators allocate per element; list append copies the
     whole left spine *)
  let on_name site =
    match is_allocating site with
    | Some [ "@" ] ->
        emit site.at
          "list append (@) copies its left operand in a kernel hot path; use \
           Intvec.push or preallocated arrays"
    | Some path ->
        emit site.at
          (Printf.sprintf
             "List.%s allocates a cons cell per element in a kernel hot path; \
              use an array, Intvec or an index loop"
             (List.nth path 1))
    | None -> ()
  in
  (* a tuple a match takes apart is never built *)
  let scrutinee = ref None in
  let on_expr scope (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_match (s, _) -> scrutinee := Some s
    | Pexp_tuple (first :: _)
      when (not e.pexp_loc.loc_ghost)
           && not (match !scrutinee with Some s -> s == e | None -> false) ->
        emit (token_at first.pexp_loc.loc_end)
          "tuple construction in a kernel hot path allocates per call; return \
           components separately or use a preallocated record"
    | (Pexp_fun _ | Pexp_function _)
      when scope.nesting >= 2 && not e.pexp_loc.loc_ghost ->
        (* at its [fun]: parentheses widen a node's location, and the
           parser keeps the narrower ones on its location stack *)
        let loc = List.fold_left (fun _ l -> l) e.pexp_loc e.pexp_loc_stack in
        emit (token_at loc.loc_start)
          "closure allocated per iteration of an enclosing loop/lambda in a \
           kernel hot path; hoist it or inline the loop"
    | Pexp_setfield (_, field, _) -> (
        let x = Longident.last field.txt in
        match boxed_field x with
        | Some (record, ty) ->
            emit (token_at field.loc.loc_start)
              (Printf.sprintf
                 "store to mutable %s field `%s' of record `%s' boxes a fresh \
                  value on every write in a kernel hot path; keep it in an \
                  all-float record or sum into a local ref and store once"
                 ty x record)
        | None -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident ({ txt = Ldot _; _ } as lid); _ }, args) -> (
        (* a known def applied to fewer arguments than it requires *)
        let site = scope.resolve lid in
        let required (q : Lint_tree.param) = q.Lint_tree.p_kind <> Lint_tree.Optional in
        let given (l, _) = match l with Asttypes.Optional _ -> false | _ -> true in
        match List.rev (List.hd site.paths) with
        | x :: m :: _ -> (
            match Lint_graph.find_def g ~module_:m ~name:x with
            | id :: _ ->
                let params = g.Lint_graph.defs.(id).Lint_graph.d_params in
                let k = List.length (List.filter given args)
                and n = List.length (List.filter required params) in
                if k < n then
                  emit site.at
                    (Printf.sprintf
                       "partial application of %s.%s (%d of %d arguments) \
                        allocates a closure in a kernel hot path; apply it \
                        fully or hoist the partial application"
                       m x k n)
            | [] -> ())
        | _ -> ())
    | _ -> ()
  in
  walk lex tree ~on_name ~on_expr ();
  !sites

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
              (fun (u : Lint_graph.unit_info) -> boxed_fields u.Lint_graph.u_tree)
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
          (* the kernel-reachable lib/ defs of each unit *)
          let hot = Array.make (Array.length g.Lint_graph.units) [] in
          Array.iter
            (fun (d : Lint_graph.def) ->
              let u = d.Lint_graph.d_unit in
              if under "lib" g.Lint_graph.units.(u).Lint_graph.u_path
                 && pred.(d.Lint_graph.d_id) >= 0
              then hot.(u) <- d :: hot.(u))
            g.Lint_graph.defs;
          let out = ref [] in
          Array.iteri
            (fun ui (u : Lint_graph.unit_info) ->
              if hot.(ui) <> [] then begin
                let tks = u.Lint_graph.u_lex.Lint_lexer.tokens in
                let sites = alloc_sites g u (boxed_field ui) in
                List.iter
                  (fun (d : Lint_graph.def) ->
                    let witness =
                      witness_of_path (Lint_graph.path g ~pred d.Lint_graph.d_id)
                    in
                    List.iter
                      (fun (i, msg) ->
                        if Lint_tree.span_contains d.Lint_graph.d_body i then
                          out :=
                            finding ~rule:name ~path:u.Lint_graph.u_path ~at:tks.(i)
                              ~witness msg
                            :: !out)
                      sites)
                  (List.rev hot.(ui))
              end)
            g.Lint_graph.units;
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
                for i = 0 to Array.length tks - 2 do
                  let text k = tks.(k).Lint_lexer.text in
                  if
                    (text i = "val" || text i = "external")
                    && (i = 0 || text (i - 1) <> ".")
                  then begin
                    let vname = text (i + 1) in
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
