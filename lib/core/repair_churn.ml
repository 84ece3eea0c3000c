module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec
module Intset = Churnet_util.Intset

type t = {
  n : int;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  owing : Intset.t; (* nodes with out-slots to refill *)
  orphans : Intvec.t; (* scratch: a victim's in-neighbours *)
  pending : Intvec.t; (* scratch: the queue handed out by [queue] *)
}

let create ~rng ~n ~d =
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  {
    n;
    graph = Dyngraph.create ~rng:graph_rng ~d ~regenerate:false ();
    churn = Poisson_churn.create ~rng:churn_rng ~n ();
    owing = Intset.create 256;
    orphans = Intvec.create ();
    pending = Intvec.create ();
  }

let graph t = t.graph
let time t = Poisson_churn.time t.churn
let round t = Poisson_churn.round t.churn
let owe t id = Intset.add t.owing id
let settle t id = Intset.remove t.owing id
let forgive_all t = Intset.reset t.owing

let jump t =
  if Poisson_churn.decide_birth t.churn ~alive:(Dyngraph.alive_count t.graph) then -1
  else begin
    let victim = Dyngraph.random_alive t.graph in
    Dyngraph.in_neighbors_into t.graph victim t.orphans;
    Dyngraph.kill t.graph victim;
    settle t victim;
    for i = 0 to Intvec.length t.orphans - 1 do
      let u = Intvec.get t.orphans i in
      if Dyngraph.is_alive t.graph u then owe t u
    done;
    victim
  end

let queue t =
  Intset.to_intvec t.owing t.pending;
  t.pending

let missing_slots t =
  let d = Dyngraph.d t.graph and acc = ref 0 in
  Intset.iter
    (fun id ->
      if Dyngraph.is_alive t.graph id then acc := !acc + (d - Dyngraph.out_degree t.graph id))
    t.owing;
  !acc

let mean_out_degree t =
  let acc = ref 0 and count = ref 0 in
  Dyngraph.iter_alive t.graph (fun id ->
      acc := !acc + Dyngraph.out_degree t.graph id;
      incr count);
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count

let advance_time t ~step span =
  let deadline = time t +. span in
  while time t < deadline do
    step ()
  done

let warm_up t ~step =
  for _ = 1 to 12 * t.n do
    step ()
  done

let flood ?scratch ?max_rounds t ~step =
  let default = int_of_float (8. *. log (float_of_int t.n)) + 60 in
  let rec until_birth () =
    let before = Dyngraph.alive_count t.graph in
    step ();
    if Dyngraph.alive_count t.graph <= before then until_birth ()
  in
  let first = ref true in
  Flood.run_custom ?scratch ?max_rounds ~graph:t.graph
    ~step:(fun () ->
      (* The first round plants the source with a birth; afterwards one
         round is one unit of continuous time. *)
      if !first then begin
        first := false;
        until_birth ()
      end
      else advance_time t ~step 1.0)
    ~newest:(fun () -> match Dyngraph.newest_alive t.graph with Some id -> id | None -> -1)
    ~default_max_rounds:default ()
