module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type strategy = Push | Pull | Push_pull

let strategy_name = function
  | Push -> "push"
  | Pull -> "pull"
  | Push_pull -> "push-pull"

type trace = {
  rounds : int;
  informed_per_round : int array;
  population_per_round : int array;
  completed : bool;
  completion_round : int option;
  peak_coverage : float;
  messages_sent : int;
  extinct : bool;
  extinction_round : int option;
}

(* Plant a source: advance churn until a birth happens, return the id. *)
let plant_source model =
  match model with
  | Models.Streaming m ->
      Streaming_model.step m;
      Streaming_model.newest m
  | Models.Poisson m -> Poisson_model.step_until_birth m

let advance_one_round model = Models.advance_batch model 1

let newest_of model =
  match model with
  | Models.Streaming m -> Streaming_model.newest m
  | Models.Poisson m -> (
      match Poisson_model.newest m with Some s -> s | None -> -1)

let run ?max_rounds ~rng ~strategy model =
  let n = Models.n model in
  let max_rounds =
    Option.value ~default:(int_of_float (30. *. log (float_of_int n)) + 60) max_rounds
  in
  let graph = Models.graph model in
  let source = plant_source model in
  let informed : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  Hashtbl.replace informed source ();
  let informed_log = ref [ 1 ] in
  let population_log = ref [ Dyngraph.alive_count graph ] in
  let messages = ref 0 in
  let completed = ref false in
  let completion_round = ref None in
  let extinct = ref false in
  let extinction_round = ref None in
  let r = ref 0 in
  let random_neighbor id =
    match Dyngraph.neighbors graph id with
    | [] -> None
    | neigh -> Some (Prng.choose rng (Array.of_list neigh))
  in
  while (not !completed) && (not !extinct) && !r < max_rounds do
    incr r;
    (* Exchanges happen on the snapshot at the start of the round. *)
    let newly = ref [] in
    if strategy = Push || strategy = Push_pull then
      (* lint: allow no-hashtbl-order — push order follows the informed set's
         insertion history, itself a pure function of the seed; newly-informed
         nodes are applied in one batch after the sweep. *)
      Hashtbl.iter
        (fun u () ->
          if Dyngraph.is_alive graph u then begin
            match random_neighbor u with
            | Some v ->
                incr messages;
                if not (Hashtbl.mem informed v) then newly := v :: !newly
            | None -> ()
          end)
        informed;
    if strategy = Pull || strategy = Push_pull then
      Dyngraph.iter_alive graph (fun v ->
          if not (Hashtbl.mem informed v) then begin
            match random_neighbor v with
            | Some u ->
                incr messages;
                if Hashtbl.mem informed u then newly := v :: !newly
            | None -> ()
          end);
    List.iter (fun v -> Hashtbl.replace informed v ()) !newly;
    (* Churn advances one round / unit of time. *)
    advance_one_round model;
    (* Drop the dead. *)
    let dead = ref [] in
    (* lint: allow no-hashtbl-order — collects dead members for removal;
       removals commute. *)
    Hashtbl.iter
      (fun id () -> if not (Dyngraph.is_alive graph id) then dead := id :: !dead)
      informed;
    List.iter (Hashtbl.remove informed) !dead;
    let alive = Dyngraph.alive_count graph in
    let inf = Hashtbl.length informed in
    informed_log := inf :: !informed_log;
    population_log := alive :: !population_log;
    let newborn = newest_of model in
    let uninformed = alive - inf in
    if uninformed = 0 || (uninformed = 1 && not (Hashtbl.mem informed newborn)) then begin
      completed := true;
      completion_round := Some !r
    end
    else if inf = 0 then begin
      (* Extinction: every informed node died before passing the rumor
         on.  Stop at this round — clobbering the loop counter (the old
         [r := max_rounds] hack) both misreported [rounds] and silently
         conflated extinction with hitting the round bound. *)
      extinct := true;
      extinction_round := Some !r
    end
  done;
  let informed_per_round = Array.of_list (List.rev !informed_log) in
  let population_per_round = Array.of_list (List.rev !population_log) in
  let peak_coverage =
    let best = ref 0. in
    Array.iteri
      (fun i inf ->
        let pop = population_per_round.(i) in
        if pop > 0 then best := Float.max !best (float_of_int inf /. float_of_int pop))
      informed_per_round;
    !best
  in
  {
    rounds = Array.length informed_per_round - 1;
    informed_per_round;
    population_per_round;
    completed = !completed;
    completion_round = !completion_round;
    peak_coverage;
    messages_sent = !messages;
    extinct = !extinct;
    extinction_round = !extinction_round;
  }
