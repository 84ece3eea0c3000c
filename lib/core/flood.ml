module Dyngraph = Churnet_graph.Dyngraph
module Bitset = Churnet_util.Bitset
module Intvec = Churnet_util.Intvec

type trace = {
  rounds : int;
  informed_per_round : int array;
  population_per_round : int array;
  completed : bool;
  completion_round : int option;
  peak_informed : int;
  peak_coverage : float;
  final_informed : int;
  final_population : int;
  extinct : bool;
  extinction_round : int option;
}

let coverage_at tr k =
  let len = Array.length tr.informed_per_round in
  if len = 0 then nan
  else begin
    let i = min k (len - 1) in
    let pop = tr.population_per_round.(i) in
    (* Post-extinction rounds can have an empty population; coverage is
       then undefined — a deliberate nan, not an accidental inf. *)
    if pop <= 0 then nan
    else float_of_int tr.informed_per_round.(i) /. float_of_int pop
  end

(* Shared trace assembly from per-round logs. *)
let finish ~completed ~completion_round ~extinct ~extinction_round informed_log
    population_log =
  let informed_per_round = Array.of_list (List.rev informed_log) in
  let population_per_round = Array.of_list (List.rev population_log) in
  let peak_informed = Array.fold_left max 0 informed_per_round in
  let peak_coverage =
    (* nan until a round with a live population contributes: a trace whose
       population was empty throughout has no defined coverage. *)
    let best = ref nan in
    Array.iteri
      (fun i inf ->
        let pop = population_per_round.(i) in
        if pop > 0 then begin
          let c = float_of_int inf /. float_of_int pop in
          if Float.is_nan !best || c > !best then best := c
        end)
      informed_per_round;
    !best
  in
  let len = Array.length informed_per_round in
  {
    rounds = len - 1;
    informed_per_round;
    population_per_round;
    completed;
    completion_round;
    peak_informed;
    peak_coverage;
    final_informed = (if len = 0 then 0 else informed_per_round.(len - 1));
    final_population = (if len = 0 then 0 else population_per_round.(len - 1));
    extinct;
    extinction_round;
  }

(* The informed set is a bitset over node ids.  Ids grow without bound
   under churn, so membership tests must tolerate ids beyond the current
   capacity and insertions must grow it. *)
let bs_mem bs id = id < Bitset.capacity bs && Bitset.mem bs id

let bs_add bs id =
  Bitset.ensure_capacity bs (id + 1);
  Bitset.add bs id

exception Found

(* Grow the informed set by one synchronous hop on the current graph.
   Scans whichever side of the cut is smaller: the informed set's
   neighborhoods, or the uninformed nodes' neighborhoods.  [scratch] is
   cleared and used to stage the newly informed ids, so the hot path
   allocates nothing (the informed set itself only reallocates on
   capacity doubling). *)
let expand_informed graph informed scratch =
  let alive = Dyngraph.alive_count graph in
  (* informed <= alive: callers keep dead ids out of [informed]. *)
  let informed_alive = Bitset.cardinal informed in
  Intvec.clear scratch;
  (* lint: allow hot-path-alloc — hoisted out of the scan loops on
     purpose: one closure per hop, where a closure per scanned node would
     dominate the hop's allocation budget. *)
  let stage v = if not (bs_mem informed v) then Intvec.push scratch v in
  (* lint: allow hot-path-alloc — one closure per hop, as [stage]. *)
  let mark_found u = if bs_mem informed u then raise_notrace Found in
  if informed_alive <= alive - informed_alive then
    Bitset.iter
      (fun u ->
        if Dyngraph.is_alive graph u then
          Dyngraph.iter_neighbors graph u stage)
      informed
  else
    Dyngraph.iter_alive graph (fun v ->
        if not (bs_mem informed v) then
          let touches_informed =
            match Dyngraph.iter_neighbors graph v mark_found with
            | () -> false
            | exception Found -> true
          in
          if touches_informed then Intvec.push scratch v);
  Intvec.iter (fun v -> bs_add informed v) scratch

(* Frontier-based hop: scan only the informed nodes that can still have
   uninformed neighbors, instead of re-scanning the full informed set.

   Invariant (holds on entry): every alive uninformed node adjacent to an
   informed node is adjacent to a member of [frontier].  Proof sketch of
   maintenance: a hop informs every alive uninformed neighbor of every
   frontier node, so right after the hop no scanned node has an
   uninformed neighbor.  Between hops the pairs (informed u, uninformed
   alive v) adjacent to each other can only be created by (a) a node
   informed in the hop itself — it enters the new frontier below — or
   (b) an edge created during churn with exactly one informed endpoint —
   the caller re-arms that endpoint via {!frontier_arm} from the graph's
   edge hook (births, regeneration and protocol [connect] all fire it).
   Deaths only remove edges and dead nodes, and alive informed nodes
   never become uninformed, so nothing else can break the invariant.
   Consequently the hop informs exactly the same set a full rescan would,
   in the same ascending-id staging order — traces are byte-identical,
   only cheaper. *)
let expand_informed_frontier graph informed frontier scratch =
  Intvec.clear scratch;
  (* lint: allow hot-path-alloc — one closure per hop, hoisted out of the
     per-node scan. *)
  let stage v = if not (bs_mem informed v) then Intvec.push scratch v in
  Bitset.iter
    (fun u ->
      if bs_mem informed u && Dyngraph.is_alive graph u then
        Dyngraph.iter_neighbors graph u stage)
    frontier;
  Bitset.clear frontier;
  Intvec.iter
    (fun v ->
      bs_add informed v;
      Bitset.ensure_capacity frontier (v + 1);
      Bitset.add frontier v)
    scratch

let frontier_arm frontier id =
  Bitset.ensure_capacity frontier (id + 1);
  Bitset.add frontier id

(* Adaptive hop: the frontier hop and the full rescan inform the same
   set (see above), so each round can pick whichever is cheaper without
   any observable difference.  Rough operation counts: a frontier hop
   scans the frontier bitset words plus a full neighbor iteration per
   frontier member; a rescan scans the smaller of the informed /
   uninformed sides, where the uninformed side costs one membership test
   per alive node (iter_alive) plus an early-exiting neighbor probe per
   uninformed node.  The frontier wins in the sparse early rounds and in
   the long near-complete tail (where the rescan still sweeps every
   alive node); the rescan wins in the one or two crossover rounds where
   the frontier is a large fraction of the graph. *)
let expand_informed_auto graph informed frontier scratch =
  let deg = 2 * Dyngraph.d graph in
  let alive = Dyngraph.alive_count graph in
  let inf = Bitset.cardinal informed in
  let frontier_cost =
    (Bitset.capacity frontier / 64) + (Bitset.cardinal frontier * deg)
  in
  let rescan_cost =
    if inf <= alive - inf then (Bitset.capacity informed / 64) + (inf * deg)
    else alive + ((alive - inf) * 2)
  in
  if frontier_cost <= rescan_cost then
    expand_informed_frontier graph informed frontier scratch
  else begin
    expand_informed graph informed scratch;
    (* [expand_informed] leaves [scratch] holding the newly informed ids
       (possibly with duplicates) — exactly the next frontier. *)
    Bitset.clear frontier;
    Intvec.iter (fun v -> frontier_arm frontier v) scratch
  end

(* --- cross-round state ------------------------------------------------ *)

(* The per-round staging space of a flood: [hop] holds the ids a
   synchronous hop informs, [candidates] the discretized driver's
   candidate edges.  Floods that run one after another (the trials of one
   Parallel worker) can share one scratch: every use clears a buffer
   before it writes it, so a flood reads only what it wrote itself, and
   the buffers grow by need and never shrink. *)
type scratch = { hop : Intvec.t; candidates : Intvec.t }

let scratch () = { hop = Intvec.create ~capacity:1 (); candidates = Intvec.create ~capacity:1 () }

(* Everything flooding carries from one round to the next, shared by the
   synchronous and discretized drivers.  [frontier] is the set of
   informed nodes that may still have uninformed neighbors; both drivers
   scan it instead of the whole informed set.  [hop] and [candidates]
   are a scratch's buffers, or the flood's own when it has none; the
   state holds them directly, so a flood without a scratch allocates no
   scratch record. *)
type state = {
  informed : Bitset.t;
  frontier : Bitset.t;
  hop : Intvec.t;
  candidates : Intvec.t;
  mutable informed_log : int list; (* head = latest round *)
  mutable population_log : int list;
  mutable round : int;
  max_rounds : int;
  mutable completed : bool;
  mutable completion_round : int option;
  mutable extinct : bool;
  mutable extinction_round : int option;
}

let state_informed st = st.informed
let state_finished st = st.completed || st.extinct || st.round >= st.max_rounds

let finish_state st =
  finish ~completed:st.completed ~completion_round:st.completion_round
    ~extinct:st.extinct ~extinction_round:st.extinction_round st.informed_log
    st.population_log

let make_state ~(scratch : scratch option) ~max_rounds ~source ~population =
  let informed = Bitset.create (source + 64) in
  Bitset.add informed source;
  let frontier = Bitset.create (source + 64) in
  Bitset.add frontier source;
  {
    informed;
    frontier;
    hop = (match scratch with Some s -> s.hop | None -> Intvec.create ~capacity:256 ());
    candidates =
      (match scratch with Some s -> s.candidates | None -> Intvec.create ~capacity:1024 ());
    informed_log = [ 1 ];
    population_log = [ population ];
    round = 0;
    max_rounds;
    completed = false;
    completion_round = None;
    extinct = false;
    extinction_round = None;
  }

(* Run [f ()], then put the graph's edge and death hooks back to [edge]
   and [death], also when [f] raises.  Restored by hand: [Fun.protect]
   would allocate two closures a call. *)
let restoring_hooks graph ~edge ~death f =
  match f () with
  | () ->
      Dyngraph.set_edge_hook graph edge;
      Dyngraph.set_death_hook graph death
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Dyngraph.set_edge_hook graph edge;
      Dyngraph.set_death_hook graph death;
      Printexc.raise_with_backtrace e bt

(* Run [churn ()] with two of the graph's hooks chained.  The edge hook
   keeps the frontier invariant (see expand_informed_frontier): during
   churn, an edge with exactly one informed endpoint can put an
   uninformed node next to a long-informed one, so that endpoint is
   re-armed and the next round rescans it.  The death hook drops a dying
   node from the informed set (I_t is intersected with N_t), so the set
   stays pruned to alive ids without a scan.  Both chain to any hook
   already installed (e.g. an event recorder), which is restored
   afterwards even if the churn raises. *)
let with_frontier_arming graph st churn =
  let prev_edge_hook = Dyngraph.edge_hook graph in
  let prev_death_hook = Dyngraph.death_hook graph in
  Dyngraph.set_edge_hook graph
    (Some
       (fun ~src ~dst ->
         (match prev_edge_hook with None -> () | Some f -> f ~src ~dst);
         let src_informed = bs_mem st.informed src in
         let dst_informed = bs_mem st.informed dst in
         if src_informed && not dst_informed then frontier_arm st.frontier src
         else if dst_informed && not src_informed then frontier_arm st.frontier dst));
  Dyngraph.set_death_hook graph
    (Some
       (fun id ->
         (match prev_death_hook with None -> () | Some f -> f id);
         if bs_mem st.informed id then Bitset.remove st.informed id));
  restoring_hooks graph ~edge:prev_edge_hook ~death:prev_death_hook churn

(* One synchronous flooding round (Definition 3.3): adaptive expand,
   churn (whose deaths leave the informed set as they happen), log, then
   test completion and extinction. *)
let sync_round ~graph ~step ~newest st =
  st.round <- st.round + 1;
  (* I_t = (I_{t-1} U boundary in G_{t-1}) /\ N_t *)
  expand_informed_auto graph st.informed st.frontier st.hop;
  with_frontier_arming graph st step;
  let alive = Dyngraph.alive_count graph in
  let inf = Bitset.cardinal st.informed in
  st.informed_log <- inf :: st.informed_log;
  st.population_log <- alive :: st.population_log;
  let newborn = newest () in
  let uninformed = alive - inf in
  if uninformed = 0 || (uninformed = 1 && not (bs_mem st.informed newborn)) then begin
    st.completed <- true;
    st.completion_round <- Some st.round
  end
  else if inf = 0 then begin
    (* Extinction: every informed node died before passing the message
       on.  Nothing can revive the flood, so stop here instead of
       spinning to [max_rounds]. *)
    st.extinct <- true;
    st.extinction_round <- Some st.round
  end

let run_custom ?scratch ?max_rounds ~graph ~step ~newest ~default_max_rounds () =
  let max_rounds = Option.value ~default:default_max_rounds max_rounds in
  (* The source is the node joining the network at round t0. *)
  step ();
  let source = newest () in
  let st = make_state ~scratch ~max_rounds ~source ~population:(Dyngraph.alive_count graph) in
  while not (state_finished st) do
    sync_round ~graph ~step ~newest st
  done;
  finish_state st

let run_streaming ?scratch ?max_rounds model =
  let n = Streaming_model.n model in
  run_custom ?scratch ?max_rounds
    ~graph:(Streaming_model.graph model)
    ~step:(fun () -> Streaming_model.step model)
    ~newest:(fun () -> Streaming_model.newest model)
    ~default_max_rounds:(4 * n) ()

(* Candidate edges recorded at the start of a unit interval are
   flat-encoded as 4 consecutive ints in a scratch vector:
   [owner]'s out-slot [slot] pointed at [other]; the uninformed endpoint
   was [learner].  The message crosses only if the same slot still holds
   the same target at the end of the interval and both endpoints
   survived. *)
let push_candidate candidates ~owner ~slot ~other ~learner =
  Intvec.push candidates owner;
  Intvec.push candidates slot;
  Intvec.push candidates other;
  Intvec.push candidates learner

let poisson_start ?scratch ~max_rounds model =
  (* Flood from the next newborn. *)
  let source = Poisson_model.step_until_birth model in
  make_state ~scratch ~max_rounds ~source ~population:(Poisson_model.population model)

let poisson_round model st =
  let graph = Poisson_model.graph model in
  let d = Dyngraph.d graph in
  let informed = st.informed in
  let candidates = st.candidates in
  st.round <- st.round + 1;
  (* Record the informed-to-uninformed edges present at time t.  Only
     frontier nodes can have any: the frontier invariant of
     expand_informed_frontier holds here too, because every candidate
     edge that survives the interval delivers (so a scanned node keeps
     no old edge to an uninformed node) and the two ways an informed
     node gains an uninformed neighbor — learning this round, or an edge
     created during churn — both re-arm it below.  The candidate set is
     therefore exactly the one a scan of the whole informed set finds. *)
  Intvec.clear candidates;
  let scanned = ref (-1) in
  (* lint: allow hot-path-alloc — one closure per round, hoisted out of
     the per-node scan; [scanned] names the frontier node it serves. *)
  let stage_in v =
    if not (bs_mem informed v) then
      for j = 0 to d - 1 do
        if Dyngraph.out_slot graph v j = !scanned then
          push_candidate candidates ~owner:v ~slot:j ~other:!scanned ~learner:v
      done
  in
  Bitset.iter
    (fun u ->
      if Dyngraph.is_alive graph u then begin
        for i = 0 to d - 1 do
          let w = Dyngraph.out_slot graph u i in
          if w >= 0 && not (bs_mem informed w) then
            push_candidate candidates ~owner:u ~slot:i ~other:w ~learner:w
        done;
        scanned := u;
        Dyngraph.iter_in_neighbors graph u stage_in
      end)
    st.frontier;
  Bitset.clear st.frontier;
  (* Advance the churn by one unit of time. *)
  let birth_round_start = Poisson_model.round model in
  let first_new_id = Dyngraph.peek_next_id graph in
  with_frontier_arming graph st (fun () ->
      Poisson_model.run_until_time model (Poisson_model.time model +. 1.0));
  (* Deliver along candidates whose edge survived the whole interval. *)
  let m = Intvec.length candidates / 4 in
  for k = 0 to m - 1 do
    let owner = Intvec.get candidates (4 * k) in
    let slot = Intvec.get candidates ((4 * k) + 1) in
    let other = Intvec.get candidates ((4 * k) + 2) in
    let learner = Intvec.get candidates ((4 * k) + 3) in
    if
      Dyngraph.is_alive graph owner
      && Dyngraph.is_alive graph other
      && Dyngraph.out_slot graph owner slot = other
    then begin
      bs_add informed learner;
      frontier_arm st.frontier learner
    end
  done;
  let alive = Dyngraph.alive_count graph in
  let inf = Bitset.cardinal informed in
  st.informed_log <- inf :: st.informed_log;
  st.population_log <- alive :: st.population_log;
  (* Completion: everyone alive is informed, except possibly nodes born
     during the interval just elapsed (Definition 4.3 cannot reach them
     yet).  Such a node is uninformed, and ids are monotone with birth,
     so the young survivors are found among the ids handed out since
     [first_new_id]: the flood is complete iff they are all of the
     uninformed alive nodes.

     Known defect, kept on purpose: [birth_round_start] already counts
     the jump pending at interval start, so a pending birth executed
     inside the interval is stamped [birth_round_start] and counts as
     old although Definition 4.3 cannot reach it yet; such a flood
     completes late.  Fixing it changes the E9/E11/F1 goldens and the
     benchmark digests, so it needs its own change (see ROADMAP). *)
  let young = ref 0 in
  for id = first_new_id to Dyngraph.peek_next_id graph - 1 do
    if Dyngraph.is_alive graph id && Dyngraph.birth_of graph id > birth_round_start then
      incr young
  done;
  if alive - inf = !young && inf > 1 then begin
    st.completed <- true;
    st.completion_round <- Some st.round
  end
  else if inf = 0 then begin
    (* Extinction: flooding can die out entirely in PDG.  Once no
       informed node is left the process is over — stop immediately and
       record the round, rather than looping to [max_rounds]. *)
    st.extinct <- true;
    st.extinction_round <- Some st.round
  end

let run_poisson_discretized ?scratch ?max_rounds model =
  let n = Poisson_model.n model in
  let max_rounds =
    Option.value
      ~default:(int_of_float (8. *. log (float_of_int n)) + 60)
      max_rounds
  in
  let st = poisson_start ?scratch ~max_rounds model in
  while not (state_finished st) do
    poisson_round model st
  done;
  finish_state st

module Async = struct
  type result = {
    completed : bool;
    completion_time : float option;
    informed_total : int;
    final_coverage : float;
    events : int;
    extinct : bool;
  }

  let run ?max_time model =
    let n = Poisson_model.n model in
    let max_time =
      Option.value ~default:((8. *. log (float_of_int n)) +. 50.) max_time
    in
    let graph = Poisson_model.graph model in
    let source = Poisson_model.step_until_birth model in
    let t0 = Poisson_model.time model in
    let deadline = t0 +. max_time in
    let informed = Bitset.create (source + 64) in
    let deliveries : int Churnet_util.Heap.t = Churnet_util.Heap.create () in
    let ever_informed = ref 0 in
    (* Exact O(1) coverage bookkeeping: [informed_alive] counts informed
       nodes that are still alive; the death hook keeps it current. *)
    let informed_alive = ref 0 in
    let inform id at =
      if (not (bs_mem informed id)) && Dyngraph.is_alive graph id then begin
        bs_add informed id;
        incr ever_informed;
        incr informed_alive;
        Dyngraph.iter_neighbors graph id (fun v ->
            if not (bs_mem informed v) then
              Churnet_util.Heap.push deliveries (at +. 1.) v)
      end
    in
    (* New edges towards informed nodes trigger a delivery one unit later
       (Definition 4.2: neighbor at instant t => informed at t + 1).  Both
       hooks chain to the ones already installed (e.g. an event recorder)
       and are restored afterwards, also when the churn raises: left
       installed, they would close over this finished flood's set and
       heap. *)
    let prev_edge_hook = Dyngraph.edge_hook graph in
    let prev_death_hook = Dyngraph.death_hook graph in
    Dyngraph.set_edge_hook graph
      (Some
         (fun ~src ~dst ->
           (match prev_edge_hook with None -> () | Some f -> f ~src ~dst);
           let now = Poisson_model.time model in
           let src_informed = bs_mem informed src in
           let dst_informed = bs_mem informed dst in
           if src_informed && not dst_informed then
             Churnet_util.Heap.push deliveries (now +. 1.) dst
           else if dst_informed && not src_informed then
             Churnet_util.Heap.push deliveries (now +. 1.) src));
    Dyngraph.set_death_hook graph
      (Some
         (fun id ->
           (match prev_death_hook with None -> () | Some f -> f id);
           if bs_mem informed id then decr informed_alive));
    let events = ref 0 in
    let completed = ref false in
    let completion_time = ref None in
    let extinct = ref false in
    let stop = ref false in
    (* Time of the event processed last — a delivery's scheduled instant
       or the churn jump just executed.  Completion is stamped with this,
       not with the model clock: when a delivery completes the flood the
       model clock still reads the previous jump. *)
    let last_event_time = ref t0 in
    restoring_hooks graph ~edge:prev_edge_hook ~death:prev_death_hook (fun () ->
        inform source t0;
        while not !stop do
          let next_jump = Poisson_model.next_jump_time model in
          let next_delivery = Churnet_util.Heap.peek deliveries in
          let now_candidate =
            match next_delivery with
            | Some (td, _) when td <= next_jump -> `Delivery td
            | _ -> `Jump next_jump
          in
          (match now_candidate with
          | `Delivery td ->
              (* Deliveries past the deadline are outside the observation
                 window, exactly like jumps past the deadline. *)
              if td > deadline then stop := true
              else begin
                (match Churnet_util.Heap.pop deliveries with
                | Some (td, v) -> inform v td
                | None -> ());
                last_event_time := td
              end
          | `Jump tj ->
              if tj > deadline then stop := true
              else begin
                Poisson_model.step model;
                incr events;
                last_event_time := Poisson_model.time model
              end);
          if not !stop then begin
            if !informed_alive = Dyngraph.alive_count graph && !informed_alive > 0 then begin
              completed := true;
              completion_time := Some (!last_event_time -. t0);
              stop := true
            end
            else if !informed_alive = 0 && Churnet_util.Heap.is_empty deliveries then begin
              (* Extinction: no informed node alive and nothing pending. *)
              extinct := true;
              stop := true
            end
          end
        done);
    let alive = Dyngraph.alive_count graph in
    {
      completed = !completed;
      completion_time = !completion_time;
      informed_total = !ever_informed;
      final_coverage =
        (if alive = 0 then nan else float_of_int !informed_alive /. float_of_int alive);
      events = !events;
      extinct = !extinct;
    }
end
