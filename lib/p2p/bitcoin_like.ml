module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type peer_state = {
  table : int array; (* known addresses; -1 = empty entry *)
  mutable fill : int;
}

type t = {
  n : int;
  target_out : int;
  max_in : int;
  table_size : int;
  seed_size : int;
  gossip_size : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  peers : (int, peer_state) Hashtbl.t;
  deficient : (int, unit) Hashtbl.t; (* nodes below target out-degree *)
  orphans : Intvec.t; (* scratch: a victim's in-neighbours *)
  pending : Intvec.t; (* scratch: the maintenance pass's queue *)
}

let create ~rng ?(target_out = 8) ?(max_in = 125) ?(table_size = 64) ?(seed_size = 16)
    ?(gossip_size = 8) ~n () =
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  {
    n;
    target_out;
    max_in;
    table_size;
    seed_size;
    gossip_size;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d:target_out ~regenerate:false ();
    churn = Poisson_churn.create ~rng:churn_rng ~n ();
    peers = Hashtbl.create 1024;
    deficient = Hashtbl.create 256;
    orphans = Intvec.create ();
    pending = Intvec.create ();
  }

let n t = t.n
let graph t = t.graph
let time t = Poisson_churn.time t.churn

(* Index of [addr] in the filled prefix of [peer]'s table, or -1.
   Entries are distinct, and everything past [fill] is empty. *)
let table_index peer addr =
  let idx = ref (-1) and i = ref 0 in
  while !idx < 0 && !i < peer.fill do
    if peer.table.(!i) = addr then idx := !i;
    incr i
  done;
  !idx

let table_insert t peer addr =
  if addr >= 0 && table_index peer addr < 0 then
    if peer.fill < t.table_size then begin
      peer.table.(peer.fill) <- addr;
      peer.fill <- peer.fill + 1
    end
    else begin
      (* Random replacement keeps the table a moving sample. *)
      let i = Prng.int t.rng t.table_size in
      peer.table.(i) <- addr
    end

(* A uniform entry of [peer]'s table, or -1 when it is empty. *)
let table_random t peer = if peer.fill = 0 then -1 else peer.table.(Prng.int t.rng peer.fill)

(* Forget a dead address. *)
let table_forget peer addr =
  let idx = table_index peer addr in
  if idx >= 0 then begin
    peer.table.(idx) <- peer.table.(peer.fill - 1);
    peer.table.(peer.fill - 1) <- -1;
    peer.fill <- peer.fill - 1
  end

(* Whether one of [id]'s out-slots already points at [v]. *)
let links_to g id v =
  let found = ref false in
  for i = 0 to Dyngraph.d g - 1 do
    if Dyngraph.out_slot g id i = v then found := true
  done;
  !found

(* Connected peers advertise a few random table entries to each other. *)
let gossip t a b =
  match Hashtbl.find t.peers a with
  | exception Not_found -> ()
  | pa -> (
      match Hashtbl.find t.peers b with
      | exception Not_found -> ()
      | pb ->
          for _ = 1 to t.gossip_size do
            table_insert t pb (table_random t pa);
            table_insert t pa (table_random t pb)
          done;
          table_insert t pa b;
          table_insert t pb a)

let try_fill t id =
  match Hashtbl.find t.peers id with
  | exception Not_found -> ()
  | peer ->
      let attempts = ref (4 * t.target_out) in
      while Dyngraph.out_degree t.graph id < t.target_out && !attempts > 0 do
        decr attempts;
        let cand = table_random t peer in
        if cand < 0 then attempts := 0
        else if
          cand <> id
          && Dyngraph.is_alive t.graph cand
          && Dyngraph.in_degree t.graph cand < t.max_in
          && not (links_to t.graph id cand)
        then begin
          if Dyngraph.connect t.graph ~src:id ~dst:cand then gossip t id cand
        end
        else if not (Dyngraph.is_alive t.graph cand) then table_forget peer cand
      done;
      if Dyngraph.out_degree t.graph id < t.target_out then Hashtbl.replace t.deficient id ()
      else Hashtbl.remove t.deficient id

let birth t =
  let id = Dyngraph.add_node_with_targets t.graph ~birth:(Poisson_churn.round t.churn) ~targets:[||] in
  let peer = { table = Array.make t.table_size (-1); fill = 0 } in
  Hashtbl.replace t.peers id peer;
  (* DNS-seed bootstrap: a uniform sample of alive nodes. *)
  let alive = Dyngraph.alive_count t.graph in
  for _ = 1 to min t.seed_size (alive - 1) do
    let cand = Dyngraph.random_alive t.graph in
    if cand <> id then table_insert t peer cand
  done;
  Hashtbl.replace t.deficient id ()

let death t =
  let victim = Dyngraph.random_alive t.graph in
  (* Whoever pointed at the victim becomes deficient. *)
  Dyngraph.in_neighbors_into t.graph victim t.orphans;
  Dyngraph.kill t.graph victim;
  Hashtbl.remove t.peers victim;
  Hashtbl.remove t.deficient victim;
  for i = 0 to Intvec.length t.orphans - 1 do
    let u = Intvec.get t.orphans i in
    if Dyngraph.is_alive t.graph u then Hashtbl.replace t.deficient u ()
  done

(* Serve every deficient node, last-visited entry first (see DESIGN.md
   §4); the dead are dropped from the set. *)
let maintenance t =
  Intvec.clear t.pending;
  (* lint: allow no-hashtbl-order — service order follows the table's
     insertion history, itself a pure function of the seed; replays are
     bit-identical. *)
  Hashtbl.iter (fun id () -> Intvec.push t.pending id) t.deficient;
  for i = Intvec.length t.pending - 1 downto 0 do
    let id = Intvec.get t.pending i in
    if Dyngraph.is_alive t.graph id then try_fill t id else Hashtbl.remove t.deficient id
  done

let step t =
  let alive = Dyngraph.alive_count t.graph in
  if Poisson_churn.decide_birth t.churn ~alive then birth t else death t;
  maintenance t

let advance_time t span =
  let deadline = time t +. span in
  (* Conservative: execute jumps until the clock passes the deadline. *)
  while time t < deadline do
    step t
  done

let warm_up t =
  for _ = 1 to 12 * t.n do
    step t
  done

let snapshot t = Dyngraph.snapshot t.graph

(* Ids are monotone with birth, so the arena's birth-list tail is the
   youngest alive node. *)
let newest t = Dyngraph.newest_alive t.graph

let flood ?max_rounds t =
  let default = int_of_float (8. *. log (float_of_int t.n)) + 60 in
  let rec until_birth () =
    let before = Dyngraph.alive_count t.graph in
    step t;
    if Dyngraph.alive_count t.graph <= before then until_birth ()
  in
  let first = ref true in
  Churnet_core.Flood.run_custom ?max_rounds ~graph:t.graph
    ~step:(fun () ->
      (* The first "step" plants the source via a birth; afterwards one
         round is one unit of continuous time. *)
      if !first then begin
        first := false;
        until_birth ()
      end
      else advance_time t 1.0)
    ~newest:(fun () -> match newest t with Some id -> id | None -> -1)
    ~default_max_rounds:default ()

let mean_out_degree t =
  let acc = ref 0 and count = ref 0 in
  Dyngraph.iter_alive t.graph (fun id ->
      acc := !acc + Dyngraph.out_degree t.graph id;
      incr count);
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count

let mean_table_fill t =
  let acc = ref 0 and count = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun _ peer ->
      acc := !acc + peer.fill;
      incr count)
    t.peers;
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count
