module Dyngraph = Churnet_graph.Dyngraph

type census = {
  population : int;
  isolated_now : int;
  isolated_forever : int;
  tracked : int;
  isolated_frac : float;
  forever_frac_of_tracked : float;
}

let paper_bound_sdg ~n ~d = float_of_int n *. exp (-2. *. float_of_int d) /. 6.
let paper_bound_pdg ~n ~d = float_of_int n *. exp (-2. *. float_of_int d) /. 18.

let collect_isolated graph =
  let acc = ref [] in
  Dyngraph.iter_alive graph (fun id -> if Dyngraph.degree graph id = 0 then acc := id :: !acc);
  !acc

(* Track a set of currently isolated nodes until each dies; a node stays in
   the "forever isolated" set as long as it never acquires an edge.  The
   [step] callback advances the model by one unit of churn; [alive_checks]
   bounds the watch. *)
let watch_until_death graph isolated_ids ~max_track ~step ~max_steps =
  let tracked =
    if List.length isolated_ids <= max_track then isolated_ids
    else begin
      (* Keep a deterministic prefix: the census is a count, not a sample,
         so any subset works for the per-node "forever" frequency. *)
      List.filteri (fun i _ -> i < max_track) isolated_ids
    end
  in
  let pending = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace pending id ()) tracked;
  let forever = ref 0 in
  let steps = ref 0 in
  while Hashtbl.length pending > 0 && !steps < max_steps do
    incr steps;
    step ();
    let resolved = ref [] in
    (* lint: allow no-hashtbl-order — per-node census checks are independent;
       counter increments and removals commute. *)
    Hashtbl.iter
      (fun id () ->
        if not (Dyngraph.is_alive graph id) then begin
          (* Died while still monitored: it was isolated at every check. *)
          incr forever;
          resolved := id :: !resolved
        end
        else if Dyngraph.degree graph id > 0 then resolved := id :: !resolved)
      pending;
    List.iter (Hashtbl.remove pending) !resolved
  done;
  (!forever, List.length tracked)

(* Count the isolated nodes of [graph]; with [watch], run [step] (at most
   [max_steps] times) until every tracked one died or got an edge. *)
let census ~max_track ~watch graph ~step ~max_steps =
  let population = Dyngraph.alive_count graph in
  let isolated = collect_isolated graph in
  let isolated_now = List.length isolated in
  let forever, tracked =
    if watch then watch_until_death graph isolated ~max_track ~step ~max_steps else (0, 0)
  in
  {
    population;
    isolated_now;
    isolated_forever = forever;
    tracked;
    isolated_frac = float_of_int isolated_now /. float_of_int population;
    forever_frac_of_tracked =
      (if tracked = 0 then nan else float_of_int forever /. float_of_int tracked);
  }

let census_streaming ?(max_track = 2000) ?(watch = true) model =
  census ~max_track ~watch (Streaming_model.graph model)
    ~step:(fun () -> Streaming_model.step model)
    ~max_steps:(Streaming_model.n model + 1)

let census_poisson ?(max_track = 2000) ?(watch = true) model =
  let n = Poisson_model.n model in
  census ~max_track ~watch (Poisson_model.graph model)
    ~step:(fun () -> Poisson_model.step model)
    ~max_steps:(int_of_float (20. *. float_of_int n *. log (float_of_int (max 3 n))))
