(* Cross-file symbol index and call graph for churnet-lint.

   Nodes are the top-level bindings of every parsed unit (including
   zero-parameter values: a module-level `let rng = ...' is exactly the
   kind of node prng-flow cares about).  Edges are resolved identifier
   references: qualified paths through the unit's module aliases, and
   bare identifiers through same-file bindings and `open'/`include'
   scopes.  Resolution is a heuristic over tokens that prefers totality
   and over-approximation over precision, but shadowing by
   function parameters, nested lets and lambda parameters is honored so
   the common `fun rng -> ...' does not leak edges to an unrelated
   top-level `rng'. *)

type def = {
  d_id : int;
  d_unit : int;  (* index into [units] *)
  d_module : string;  (* file module name, e.g. "Flood" *)
  d_submodule : string list;  (* submodule path within the file *)
  d_name : string;
  d_params : Lint_tree.param list;
  d_span : Lint_tree.span;
  d_body : Lint_tree.span;
  d_line : int;
  d_col : int;
}

type unit_info = {
  u_path : string;
  u_module : string;
  u_lex : Lint_lexer.t;
  u_tree : Lint_tree.t;
}

type t = {
  units : unit_info array;
  defs : def array;
  calls : int list array;  (* def id -> callee def ids *)
  callers : int list array;  (* def id -> caller def ids *)
  external_refs : (string * string, int) Hashtbl.t;
      (* (module, name) -> number of references from OTHER units; also
         counts qualified references whose value had no parsed def *)
}

let module_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let is_upper_ident s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

let is_lower_ident s =
  String.length s > 0
  && (s.[0] = '_' || (s.[0] >= 'a' && s.[0] <= 'z'))

let build units_list =
  let units =
    Array.of_list
      (List.map
         (fun (path, lex, tree) ->
           { u_path = path; u_module = module_of_path path; u_lex = lex;
             u_tree = tree })
         units_list)
  in
  (* --- defs -------------------------------------------------------- *)
  let defs = ref [] in
  let ndefs = ref 0 in
  (* (module, name) -> def ids; first-come order preserved per key *)
  let by_key : (string * string, int list) Hashtbl.t = Hashtbl.create 256 in
  (* unit index -> (name -> def ids) for bare same-file resolution *)
  let by_unit_name : (int * string, int list) Hashtbl.t = Hashtbl.create 256 in
  (* unit index -> binding name_index set, to skip definition sites *)
  let name_sites : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun ui u ->
      let tks = u.u_lex.Lint_lexer.tokens in
      Array.iter
        (fun (bd : Lint_tree.binding) ->
          Hashtbl.replace name_sites (ui, bd.Lint_tree.b_name_index) ();
          if bd.Lint_tree.b_toplevel then begin
            let id = !ndefs in
            incr ndefs;
            let name_tok =
              let k = bd.Lint_tree.b_name_index in
              if k >= 0 && k < Array.length tks then Some tks.(k) else None
            in
            let line, col =
              match name_tok with
              | Some tk -> (tk.Lint_lexer.line, tk.Lint_lexer.col)
              | None -> (1, 1)
            in
            let d =
              {
                d_id = id;
                d_unit = ui;
                d_module = u.u_module;
                d_submodule = bd.Lint_tree.b_module_path;
                d_name = bd.Lint_tree.b_name;
                d_params = bd.Lint_tree.b_params;
                d_span = bd.Lint_tree.b_span;
                d_body = bd.Lint_tree.b_body;
                d_line = line;
                d_col = col;
              }
            in
            defs := d :: !defs;
            let add tbl key =
              let prev = try Hashtbl.find tbl key with Not_found -> [] in
              Hashtbl.replace tbl key (prev @ [ id ])
            in
            add by_key (u.u_module, d.d_name);
            (* a def inside submodule S of file M is also addressable
               as S.name through the last submodule segment *)
            (match List.rev d.d_submodule with
            | last :: _ -> add by_key (last, d.d_name)
            | [] -> ());
            add by_unit_name (ui, d.d_name)
          end)
        u.u_tree.Lint_tree.bindings)
    units;
  let defs = Array.of_list (List.rev !defs) in
  let n = Array.length defs in
  let calls = Array.make n [] in
  let callers = Array.make n [] in
  let external_refs : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let unit_modules : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri (fun ui u -> Hashtbl.replace unit_modules u.u_module ui) units;
  (* --- references -------------------------------------------------- *)
  let add_edge caller callee =
    if caller <> callee && not (List.mem callee calls.(caller)) then begin
      calls.(caller) <- callee :: calls.(caller);
      callers.(callee) <- caller :: callers.(callee)
    end
  in
  let bump_external m x =
    let prev = try Hashtbl.find external_refs (m, x) with Not_found -> 0 in
    Hashtbl.replace external_refs (m, x) (prev + 1)
  in
  Array.iteri
    (fun ui u ->
      let tks = u.u_lex.Lint_lexer.tokens in
      let tree = u.u_tree in
      let ntk = Array.length tks in
      let text i = if i >= 0 && i < ntk then tks.(i).Lint_lexer.text else "" in
      let aliases = tree.Lint_tree.aliases in
      let resolve_module m =
        let m =
          match
            Array.find_opt (fun (a, _) -> a = m) aliases
          with
          | Some (_, target) -> target
          | None -> m
        in
        if Hashtbl.mem unit_modules m then Some m else None
      in
      (* shadow entries: (name, span) for params of every binding and
         every lambda; nested (non-toplevel) bindings shadow over their
         own span too *)
      let shadows = ref [] in
      Array.iter
        (fun (bd : Lint_tree.binding) ->
          List.iter
            (fun (p : Lint_tree.param) ->
              if is_lower_ident p.Lint_tree.p_name then
                shadows := (p.Lint_tree.p_name, bd.Lint_tree.b_span) :: !shadows)
            bd.Lint_tree.b_params;
          if not bd.Lint_tree.b_toplevel then
            shadows := (bd.Lint_tree.b_name, bd.Lint_tree.b_span) :: !shadows)
        tree.Lint_tree.bindings;
      Array.iter
        (fun (l : Lint_tree.lambda) ->
          List.iter
            (fun p -> shadows := (p, l.Lint_tree.l_span) :: !shadows)
            l.Lint_tree.l_params)
        tree.Lint_tree.lambdas;
      let shadowed name i =
        List.exists
          (fun (sn, sp) -> sn = name && Lint_tree.span_contains sp i)
          !shadows
      in
      let record_ref i target_module x =
        match Hashtbl.find_opt by_key (target_module, x) with
        | Some (callee :: _) ->
            let callee_def = defs.(callee) in
            (* external counts are keyed by the callee's UNIT module so a
               reference through a submodule path (Stats.Acc.add)
               still marks the export in stats.mli as used *)
            if callee_def.d_unit <> ui then
              bump_external callee_def.d_module x;
            (match Lint_tree.enclosing_toplevel tree i with
            | Some (bd : Lint_tree.binding) -> (
                match
                  Hashtbl.find_opt by_unit_name (ui, bd.Lint_tree.b_name)
                with
                | Some ids -> (
                    (* pick the caller def whose span contains i *)
                    match
                      List.find_opt
                        (fun id ->
                          Lint_tree.span_contains defs.(id).d_span i)
                        ids
                    with
                    | Some caller -> add_edge caller callee
                    | None -> ())
                | None -> ())
            | None -> ())
        | _ ->
            (* no parsed def (value from a pattern binding, or declared
               only in the interface): still counts as an external use *)
            if Hashtbl.mem unit_modules target_module
               && (match Hashtbl.find_opt unit_modules target_module with
                  | Some tu -> tu <> ui
                  | None -> false)
            then bump_external target_module x
      in
      for i = 0 to ntk - 1 do
        let x = text i in
        if is_lower_ident x && not (Hashtbl.mem name_sites (ui, i)) then begin
          if text (i - 1) = "." then begin
            if is_upper_ident (text (i - 2)) then begin
              (* qualified: collect the whole dotted path M1...Mk.x and
                 try the innermost segment first (defs inside submodule
                 S are keyed under S), then the outermost unit module *)
              let outer = ref (text (i - 2)) in
              let j = ref (i - 2) in
              while text (!j - 1) = "." && is_upper_ident (text (!j - 2)) do
                outer := text (!j - 2);
                j := !j - 2
              done;
              let expand m =
                match Array.find_opt (fun (a, _) -> a = m) aliases with
                | Some (_, target) -> target
                | None -> m
              in
              let innermost = expand (text (i - 2)) in
              let outermost = expand !outer in
              if Hashtbl.mem by_key (innermost, x) then
                record_ref i innermost x
              else record_ref i outermost x
            end
            (* else: record field access -- not a value reference *)
          end
          else if not (shadowed x i) then begin
            (* bare: same file first, then opens/includes *)
            match Hashtbl.find_opt by_unit_name (ui, x) with
            | Some ids -> (
                match Lint_tree.enclosing_toplevel tree i with
                | Some bd -> (
                    match
                      List.find_opt
                        (fun id -> defs.(id).d_name <> bd.Lint_tree.b_name) ids
                    with
                    | Some callee -> (
                        match
                          Hashtbl.find_opt by_unit_name (ui, bd.Lint_tree.b_name)
                        with
                        | Some cids -> (
                            match
                              List.find_opt
                                (fun id ->
                                  Lint_tree.span_contains defs.(id).d_span i)
                                cids
                            with
                            | Some caller -> add_edge caller callee
                            | None -> ())
                        | None -> ())
                    | None -> ())
                | None -> ())
            | None ->
                let via_open =
                  Array.to_list tree.Lint_tree.opens
                  |> List.filter_map (fun (o : Lint_tree.open_decl) ->
                         if Lint_tree.span_contains o.Lint_tree.o_scope i then
                           resolve_module o.Lint_tree.o_module
                         else None)
                in
                let via_include =
                  Array.to_list tree.Lint_tree.includes
                  |> List.filter_map resolve_module
                in
                List.iter
                  (fun m ->
                    if Hashtbl.mem by_key (m, x) then record_ref i m x)
                  (via_open @ via_include)
          end
        end
      done)
    units;
  { units; defs; calls; callers; external_refs }

let find_defs t ~f =
  Array.to_list t.defs |> List.filter f |> List.map (fun d -> d.d_id)

let find_def t ~module_ ~name =
  find_defs t ~f:(fun d -> d.d_module = module_ && d.d_name = name)

(* BFS over [calls] (or [callers]) from [roots].  Returns the
   predecessor array: pred.(d) = the node through which [d] was first
   reached (itself for a root, -1 when unreachable). *)
let bfs t ~edges ~roots =
  let n = Array.length t.defs in
  let adj = match edges with `Calls -> t.calls | `Callers -> t.callers in
  let pred = Array.make n (-1) in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if r >= 0 && r < n && pred.(r) = -1 then begin
        pred.(r) <- r;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if pred.(v) = -1 then begin
          pred.(v) <- u;
          Queue.add v q
        end)
      adj.(u)
  done;
  pred

(* The chain of defs from a root to [d] under [pred] (root first).
   Empty when [d] was not reached. *)
let path t ~pred d =
  if d < 0 || d >= Array.length pred || pred.(d) = -1 then []
  else begin
    let rec up acc d = if pred.(d) = d then d :: acc else up (d :: acc) pred.(d) in
    List.map (fun id -> t.defs.(id)) (up [] d)
  end

let external_ref_count t ~module_ ~name =
  try Hashtbl.find t.external_refs (module_, name) with Not_found -> 0
