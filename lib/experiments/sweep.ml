(* Declarative parameter sweeps: the "heavy traffic" front end.

   The paper's claims are statements about *shapes over (n, d, lambda)*
   — flooding in Theta(log n), coverage improving with d, lambda
   normalizing away — but the CLI runs one experiment cell at a time.
   This module turns a declarative grid config (schema
   churnet-sweep-config/1, parsed with Util.Json) into:

     1. registry cells invoked by id, each with its own seed and scale
        from the config (Table 1 regeneration in one command);
     2. grid cells (model x n x d x lambda x seed), each a
        checkpointable work unit scheduled over Parallel.map — so the
        ambient Util.Checkpoint journal memoizes completed cells and a
        SIGKILL'd multi-hour sweep resumes byte-identically;
     3. one churnet-sweep/1 trajectory document aggregating every
        per-cell payload, plus Asciiplot shape figures (flooding time
        vs log n, coverage vs d).

   Everything in the trajectory document and the rendered text is a
   deterministic function of the config: no wall-clock, domain counts or
   file paths leak in, which is what makes the serial, multi-domain and
   crash-resumed outputs byte-comparable.  Per-cell telemetry (timing,
   RSS attribution) is returned alongside for the CLI to report on
   stderr. *)

module Json = Churnet_util.Json
module Prng = Churnet_util.Prng
module Parallel = Churnet_util.Parallel
module Table = Churnet_util.Table
module Stats = Churnet_util.Stats
module Asciiplot = Churnet_util.Asciiplot
module Models = Churnet_core.Models
module Flood = Churnet_core.Flood
module Stream_stats = Churnet_graph.Stream_stats

let config_schema = "churnet-sweep-config/1"
let output_schema = "churnet-sweep/1"

(* --- configuration ---------------------------------------------------- *)

type grid = {
  models : Models.kind list;
  ns : int list;
  ds : int list;
  lambdas : float list;
  grid_seeds : int list;
}

type experiments = { ids : string list; exp_seeds : int list; exp_scale : Scale.t }

type config = { name : string; grid : grid option; experiments : experiments option }

type cell = { model : Models.kind; n : int; d : int; lambda : float; cell_seed : int }

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let get_member name json =
  match Json.member name json with
  | Some v -> v
  | None -> bad "missing field %S" name

let get_string what json =
  match Json.as_string json with Some s -> s | None -> bad "%s: expected a string" what

(* An axis is a non-empty duplicate-free JSON array: an empty axis
   silently expands to zero cells (a sweep that "succeeds" having
   measured nothing), and a duplicate value expands to duplicate cells
   that would collide as work units. *)
let get_axis what elem json =
  let items = Json.as_list json in
  if items = [] then bad "axis %S is empty (it would expand to zero cells)" what;
  let values = List.map (elem what) items in
  let rec dup_check seen = function
    | [] -> ()
    | v :: rest ->
        if List.mem v seen then
          bad "axis %S repeats a value (duplicate cells would collide)" what
        else dup_check (v :: seen) rest
  in
  dup_check [] values;
  values

let int_elem what json =
  match Json.as_int json with Some v -> v | None -> bad "axis %S: expected integers" what

let float_elem what json =
  match Json.as_float json with
  | Some v -> v
  | None -> bad "axis %S: expected numbers" what

let model_elem what json =
  let s = get_string what json in
  match Models.kind_of_string s with
  | Some k -> k
  | None -> bad "axis %S: unknown model %S (use SDG/SDGR/PDG/PDGR)" what s

let id_elem what json =
  let s = get_string what json in
  match Registry.find s with
  | Some e -> e.Registry.id
  | None -> bad "axis %S: unknown experiment id %S (try `churnet list`)" what s

let parse_grid json =
  let models = get_axis "grid.models" model_elem (get_member "models" json) in
  let ns = get_axis "grid.n" int_elem (get_member "n" json) in
  let ds = get_axis "grid.d" int_elem (get_member "d" json) in
  let lambdas =
    match Json.member "lambda" json with
    | None -> [ 1.0 ]
    | Some axis -> get_axis "grid.lambda" float_elem axis
  in
  let grid_seeds = get_axis "grid.seeds" int_elem (get_member "seeds" json) in
  List.iter (fun n -> if n < 2 then bad "grid.n: %d is too small (need n >= 2)" n) ns;
  List.iter (fun d -> if d < 1 then bad "grid.d: %d is not a positive degree" d) ds;
  List.iter
    (fun l ->
      if not (Float.is_finite l) || l <= 0. then
        bad "grid.lambda: rates must be finite and positive")
    lambdas;
  (* A lambda other than the paper's normalization only parametrizes the
     Poisson models; combined with a streaming model it would expand to
     cells Models.create must refuse. *)
  if
    List.exists Models.is_streaming models
    && List.exists (fun l -> l <> 1.0) lambdas
  then
    bad
      "grid.lambda: values other than 1 require Poisson models only \
       (streaming churn has no arrival rate)";
  { models; ns; ds; lambdas; grid_seeds }

let parse_experiments json =
  let ids = get_axis "experiments.ids" id_elem (get_member "ids" json) in
  let exp_seeds =
    match Json.member "seeds" json with
    | None -> [ 42 ]
    | Some axis -> get_axis "experiments.seeds" int_elem axis
  in
  let exp_scale =
    match Json.member "scale" json with
    | None -> Scale.Smoke
    | Some s -> (
        let s = get_string "experiments.scale" s in
        match Scale.of_string s with
        | Some v -> v
        | None ->
            bad "experiments.scale: unknown scale %S (valid: %s)" s
              (String.concat ", " Scale.names))
  in
  { ids; exp_seeds; exp_scale }

let config_of_json json =
  try
    (match Json.member "schema" json with
    | Some s when Json.as_string s = Some config_schema -> ()
    | Some s ->
        bad "schema is %s, expected %S"
          (match Json.as_string s with Some v -> Printf.sprintf "%S" v | None -> "not a string")
          config_schema
    | None -> bad "missing field %S" "schema");
    let name = get_string "name" (get_member "name" json) in
    if name = "" then bad "name must be non-empty";
    let grid = Option.map parse_grid (Json.member "grid" json) in
    let experiments = Option.map parse_experiments (Json.member "experiments" json) in
    if grid = None && experiments = None then
      bad "config declares neither a \"grid\" nor an \"experiments\" section";
    Ok { name; grid; experiments }
  with Bad msg -> Error (Printf.sprintf "sweep config: %s" msg)

let config_of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error (Printf.sprintf "sweep config: cannot read %s" e)
  | text -> (
      match Json.of_string text with
      | Error e -> Error (Printf.sprintf "sweep config %s: %s" path e)
      | Ok json -> config_of_json json)

(* The canonical (parsed, defaults filled in) form of the config: echoed
   into the trajectory document so a sweep file names its own grid, and
   digested by the CLI into the checkpoint-journal identity line. *)
let config_to_json config =
  let axis to_j values = Json.Arr (List.map to_j values) in
  Json.Obj
    ([ ("schema", Json.String config_schema); ("name", Json.String config.name) ]
    @ (match config.grid with
      | None -> []
      | Some g ->
          [
            ( "grid",
              Json.Obj
                [
                  ("models", axis (fun k -> Json.String (Models.kind_name k)) g.models);
                  ("n", axis (fun n -> Json.Int n) g.ns);
                  ("d", axis (fun d -> Json.Int d) g.ds);
                  ("lambda", axis Json.of_finite g.lambdas);
                  ("seeds", axis (fun s -> Json.Int s) g.grid_seeds);
                ] );
          ])
    @
    match config.experiments with
    | None -> []
    | Some e ->
        [
          ( "experiments",
            Json.Obj
              [
                ("ids", axis (fun id -> Json.String id) e.ids);
                ("seeds", axis (fun s -> Json.Int s) e.exp_seeds);
                ("scale", Json.String (Scale.to_string e.exp_scale));
              ] );
        ])

(* --- planning --------------------------------------------------------- *)

(* Expansion order is part of the format: cells are work units keyed by
   their index in this list, so the order must be a pure function of the
   config for a journal written by one run to resume another. *)
let cells config =
  match config.grid with
  | None -> []
  | Some g ->
      List.concat_map
        (fun model ->
          List.concat_map
            (fun n ->
              List.concat_map
                (fun d ->
                  List.concat_map
                    (fun lambda ->
                      List.map
                        (fun cell_seed -> { model; n; d; lambda; cell_seed })
                        g.grid_seeds)
                    g.lambdas)
                g.ds)
            g.ns)
        g.models

let exp_cells config =
  match config.experiments with
  | None -> []
  | Some e ->
      List.concat_map (fun id -> List.map (fun seed -> (id, seed)) e.exp_seeds) e.ids

(* --- per-cell measurement --------------------------------------------- *)

type metrics = {
  population : int;
  isolated : int;
  max_degree : int;
  mean_degree : float;
  rounds : int;
  half_coverage_round : int option;
  completion_round : int option;
  completed : bool;
  extinct : bool;
  peak_coverage : float;
  final_coverage : float;
}

(* Same budgets as F1: completion is only meaningful for the
   regenerating models (Theorems 3.16/4.20 give Theta(log n)); the
   non-regenerating ones get the 50%-coverage budget of Theorem 3.8. *)
let round_budget model n =
  let ln = log (float_of_int n) in
  if Models.regenerates model then int_of_float (20. *. ln) + 40
  else int_of_float (6. *. ln) + 20

let run_cell (scratch : Models.scratch) cell =
  let rng = Prng.create cell.cell_seed in
  let m =
    Models.create ~arena:scratch.arena ~rng ~lambda:cell.lambda cell.model ~n:cell.n
      ~d:cell.d
  in
  Models.warm_up_batch m;
  let stats = Stream_stats.collect (Models.graph m) in
  let tr =
    Models.flood ~scratch:scratch.flood ~max_rounds:(round_budget cell.model cell.n) m
  in
  let half_coverage_round =
    let hit = ref None in
    Array.iteri
      (fun i inf ->
        let pop = tr.Flood.population_per_round.(i) in
        if !hit = None && pop > 0 && 2 * inf >= pop then hit := Some i)
      tr.Flood.informed_per_round;
    !hit
  in
  let final_coverage =
    if tr.Flood.final_population = 0 then nan
    else float_of_int tr.Flood.final_informed /. float_of_int tr.Flood.final_population
  in
  {
    population = stats.Stream_stats.population;
    isolated = stats.Stream_stats.isolated;
    max_degree = stats.Stream_stats.max_degree;
    mean_degree = stats.Stream_stats.mean_degree;
    rounds = tr.Flood.rounds;
    half_coverage_round;
    completion_round = tr.Flood.completion_round;
    completed = tr.Flood.completed;
    extinct = tr.Flood.extinct;
    peak_coverage = tr.Flood.peak_coverage;
    final_coverage;
  }

(* --- running ---------------------------------------------------------- *)

type exp_result = {
  exp_id : string;
  exp_seed : int;
  report : Report.t;
  telemetry : Telemetry.t;
}

type outcome = {
  config : config;
  exp_results : exp_result list;
  cell_results : (cell * metrics) array;
}

let run ?(progress = fun _ -> ()) config =
  (* Registry cells run sequentially: their internal Parallel.map calls
     are what the journal memoizes, and journal call-site numbering
     relies on sequential orchestration.  The grid then goes through one
     flat Parallel.map_with — every cell a journaled work unit, fanned
     out across domains, each worker building its models on one arena
     and flooding on one Flood.scratch (a Models.scratch). *)
  let exp_results =
    List.map
      (fun (id, seed) ->
        progress (Printf.sprintf "cell %s seed %d" id seed);
        let scale =
          match config.experiments with
          | Some e -> e.exp_scale
          | None -> Scale.Smoke
        in
        let report, telemetry =
          Telemetry.measure ~seed ~scale (fun () -> Registry.run_cell ~id ~seed ~scale)
        in
        { exp_id = id; exp_seed = seed; report; telemetry })
      (exp_cells config)
  in
  let grid_cells = Array.of_list (cells config) in
  if Array.length grid_cells > 0 then
    progress (Printf.sprintf "grid: %d cells" (Array.length grid_cells));
  let grid_metrics = Parallel.map_with ~init:Models.scratch run_cell grid_cells in
  {
    config;
    exp_results;
    cell_results = Array.map2 (fun c m -> (c, m)) grid_cells grid_metrics;
  }

let all_hold outcome =
  List.for_all (fun e -> Report.all_hold e.report) outcome.exp_results

(* --- figures ---------------------------------------------------------- *)

(* Group the cell results by a key, preserving first-seen key order so
   series come out in expansion order. *)
let group_by key results =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun ((c, _) as r) ->
      let k = key c in
      (match Hashtbl.find_opt tbl k with
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k [ r ]
      | Some rs -> Hashtbl.replace tbl k (r :: rs)))
    results;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let mean_over values =
  let acc = Stats.Acc.create () in
  List.iter (fun v -> Stats.Acc.add acc v) values;
  Stats.Acc.mean acc

let label_lambda lambda = if lambda = 1.0 then "" else Printf.sprintf " lam=%g" lambda

(* Flooding time vs n (log x): the Theta(log n) shape.  One series per
   (model, d, lambda); each point averages the per-seed flooding rounds
   at one n — completion rounds for the regenerating models, rounds to
   50% coverage otherwise. *)
let flood_time_figure outcome =
  match outcome.config.grid with
  | Some g when List.length g.ns >= 2 ->
      let series =
        group_by (fun c -> (c.model, c.d, c.lambda)) outcome.cell_results
        |> List.map (fun ((model, d, lambda), results) ->
               let points =
                 List.filter_map
                   (fun n ->
                     let rounds =
                       List.filter_map
                         (fun (c, m) ->
                           if c.n <> n then None
                           else
                             Option.map float_of_int
                               (if Models.regenerates model then m.completion_round
                                else m.half_coverage_round))
                         results
                     in
                     if rounds = [] then None
                     else Some (float_of_int n, mean_over rounds))
                   g.ns
               in
               {
                 Asciiplot.label =
                   Printf.sprintf "%s d=%d%s%s" (Models.kind_name model) d
                     (label_lambda lambda)
                     (if Models.regenerates model then " (complete)" else " (50% cov)");
                 points = Array.of_list points;
               })
        |> List.filter (fun s -> Array.length s.Asciiplot.points > 0)
      in
      if series = [] then None
      else
        Some
          (Asciiplot.plot ~logx:true ~title:"sweep: flooding rounds vs n" ~xlabel:"n"
             ~ylabel:"rounds" series)
  | _ -> None

(* Coverage vs d: one series per (model, n, lambda), averaging the
   per-seed peak coverage at each degree. *)
let coverage_figure outcome =
  match outcome.config.grid with
  | Some g when List.length g.ds >= 2 ->
      let series =
        group_by (fun c -> (c.model, c.n, c.lambda)) outcome.cell_results
        |> List.map (fun ((model, n, lambda), results) ->
               let points =
                 List.filter_map
                   (fun d ->
                     let covs =
                       List.filter_map
                         (fun (c, m) ->
                           if c.d <> d || Float.is_nan m.peak_coverage then None
                           else Some m.peak_coverage)
                         results
                     in
                     if covs = [] then None
                     else Some (float_of_int d, mean_over covs))
                   g.ds
               in
               {
                 Asciiplot.label =
                   Printf.sprintf "%s n=%d%s" (Models.kind_name model) n
                     (label_lambda lambda);
                 points = Array.of_list points;
               })
        |> List.filter (fun s -> Array.length s.Asciiplot.points > 0)
      in
      if series = [] then None
      else
        Some
          (Asciiplot.plot ~title:"sweep: peak coverage vs d" ~xlabel:"d"
             ~ylabel:"peak coverage" series)
  | _ -> None

let figures outcome =
  List.filter_map Fun.id [ flood_time_figure outcome; coverage_figure outcome ]

(* --- aggregation ------------------------------------------------------ *)

let int_opt = function Some v -> Json.Int v | None -> Json.Null

let cell_to_json (c, m) =
  Json.Obj
    [
      ("model", Json.String (Models.kind_name c.model));
      ("n", Json.Int c.n);
      ("d", Json.Int c.d);
      ("lambda", Json.of_finite c.lambda);
      ("seed", Json.Int c.cell_seed);
      ("population", Json.Int m.population);
      ("isolated", Json.Int m.isolated);
      ("max_degree", Json.Int m.max_degree);
      ("mean_degree", Json.of_finite m.mean_degree);
      ("rounds", Json.Int m.rounds);
      ("half_coverage_round", int_opt m.half_coverage_round);
      ("completion_round", int_opt m.completion_round);
      ("completed", Json.Bool m.completed);
      ("extinct", Json.Bool m.extinct);
      ("peak_coverage", Json.of_finite m.peak_coverage);
      ("final_coverage", Json.of_finite m.final_coverage);
    ]

(* The churnet-sweep/1 trajectory document.  Deliberately free of
   telemetry, domain counts and paths: the same config must produce the
   same bytes serially, at any --domains, and across a crash/resume. *)
let to_json outcome =
  Json.Obj
    [
      ("schema", Json.String output_schema);
      ("name", Json.String outcome.config.name);
      ("config", config_to_json outcome.config);
      ( "experiments",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("seed", Json.Int e.exp_seed);
                   ("report", Report.to_json e.report);
                 ])
             outcome.exp_results) );
      ("cells", Json.Arr (Array.to_list (Array.map cell_to_json outcome.cell_results)));
      ("figures", Json.Arr (List.map (fun f -> Json.String f) (figures outcome)));
    ]

(* --- text rendering --------------------------------------------------- *)

let fmt_round = function Some r -> string_of_int r | None -> "-"

let grid_table outcome =
  let table =
    Table.create
      [
        "model"; "n"; "d"; "lambda"; "seed"; "pop"; "isolated"; "mean deg";
        "50% cov"; "complete"; "peak cov";
      ]
  in
  Array.iter
    (fun (c, m) ->
      Table.add_row table
        [
          Models.kind_name c.model;
          string_of_int c.n;
          string_of_int c.d;
          Table.fmt_float ~digits:2 c.lambda;
          string_of_int c.cell_seed;
          string_of_int m.population;
          string_of_int m.isolated;
          Table.fmt_float ~digits:2 m.mean_degree;
          fmt_round m.half_coverage_round;
          fmt_round m.completion_round;
          Table.fmt_pct m.peak_coverage;
        ])
    outcome.cell_results;
  table

let exp_summary outcome =
  let table = Table.create [ "id"; "seed"; "experiment"; "result" ] in
  List.iter
    (fun e ->
      match Report.summary_row e.report with
      | id :: rest -> Table.add_row table ((id :: string_of_int e.exp_seed :: rest))
      | [] -> ())
    outcome.exp_results;
  table

let render outcome =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "== sweep %s ==\n\n" outcome.config.name);
  List.iter (fun e -> Buffer.add_string buf (Report.render e.report)) outcome.exp_results;
  if outcome.exp_results <> [] then begin
    Buffer.add_string buf (Table.render (exp_summary outcome));
    Buffer.add_char buf '\n'
  end;
  if Array.length outcome.cell_results > 0 then begin
    Buffer.add_string buf (Table.render (grid_table outcome));
    Buffer.add_char buf '\n';
    List.iter
      (fun fig ->
        Buffer.add_string buf fig;
        Buffer.add_char buf '\n')
      (figures outcome)
  end;
  Buffer.contents buf
