module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec
module Intset = Churnet_util.Intset

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
  let informed = Intset.create 1024 in
  Intset.add informed source;
  let informed_log = ref [ 1 ] in
  let population_log = ref [ Dyngraph.alive_count graph ] in
  let messages = ref 0 in
  let completed = ref false in
  let completion_round = ref None in
  let extinct = ref false in
  let extinction_round = ref None in
  let r = ref 0 in
  (* Per-round scratch: the informed set in its iteration order, and the
     nodes each round informs, in discovery order. *)
  let members = Intvec.create () and newly = Intvec.create () in
  while (not !completed) && (not !extinct) && !r < max_rounds do
    incr r;
    (* Exchanges happen on the snapshot at the start of the round. *)
    Intvec.clear newly;
    if strategy = Push || strategy = Push_pull then begin
      Intset.to_intvec informed members;
      for i = 0 to Intvec.length members - 1 do
        let u = Intvec.get members i in
        if Dyngraph.is_alive graph u then begin
          let v = Dyngraph.random_neighbor graph u rng in
          if v >= 0 then begin
            incr messages;
            if not (Intset.mem informed v) then Intvec.push newly v
          end
        end
      done
    end;
    if strategy = Pull || strategy = Push_pull then
      Dyngraph.iter_alive graph (fun v ->
          if not (Intset.mem informed v) then begin
            let u = Dyngraph.random_neighbor graph v rng in
            if u >= 0 then begin
              incr messages;
              if Intset.mem informed u then Intvec.push newly v
            end
          end);
    (* Newly informed nodes join last-discovered first, the order the
       set's history (and so every later push sweep) is pinned to. *)
    for i = Intvec.length newly - 1 downto 0 do
      Intset.add informed (Intvec.get newly i)
    done;
    (* Churn advances one round / unit of time. *)
    advance_one_round model;
    (* Drop the dead; removals commute. *)
    Intset.to_intvec informed members;
    for i = 0 to Intvec.length members - 1 do
      let id = Intvec.get members i in
      if not (Dyngraph.is_alive graph id) then Intset.remove informed id
    done;
    let alive = Dyngraph.alive_count graph in
    let inf = Intset.length informed in
    informed_log := inf :: !informed_log;
    population_log := alive :: !population_log;
    let newborn = newest_of model in
    let uninformed = alive - inf in
    if uninformed = 0 || (uninformed = 1 && not (Intset.mem informed newborn)) then begin
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
    for i = 0 to Array.length informed_per_round - 1 do
      let pop = population_per_round.(i) in
      if pop > 0 then
        best := Float.max !best (float_of_int informed_per_round.(i) /. float_of_int pop)
    done;
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
