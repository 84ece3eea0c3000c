module Dyngraph = Churnet_graph.Dyngraph
module Repair_churn = Churnet_core.Repair_churn
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type peer_state = {
  table : int array; (* known addresses; -1 = empty entry *)
  mutable fill : int;
}

type t = {
  target_out : int;
  max_in : int;
  rng : Prng.t;
  base : Repair_churn.t; (* owing = nodes below target out-degree *)
  peers : (int, peer_state) Hashtbl.t;
}

(* Address-table entries, DNS-seed addresses per newborn, and entries
   each side advertises per gossip exchange. *)
let table_size = 64
let seed_size = 16
let gossip_size = 8

let create ~rng ?(target_out = 8) ?(max_in = 125) ~n () =
  let base = Repair_churn.create ~rng ~n ~d:target_out in
  { target_out; max_in; rng; base; peers = Hashtbl.create 1024 }

let graph t = Repair_churn.graph t.base
let time t = Repair_churn.time t.base

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
    if peer.fill < table_size then begin
      peer.table.(peer.fill) <- addr;
      peer.fill <- peer.fill + 1
    end
    else begin
      (* Random replacement keeps the table a moving sample. *)
      let i = Prng.int t.rng table_size in
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
          for _ = 1 to gossip_size do
            table_insert t pb (table_random t pa);
            table_insert t pa (table_random t pb)
          done;
          table_insert t pa b;
          table_insert t pb a)

let try_fill t id =
  match Hashtbl.find t.peers id with
  | exception Not_found -> ()
  | peer ->
      let g = graph t in
      let attempts = ref (4 * t.target_out) in
      while Dyngraph.out_degree g id < t.target_out && !attempts > 0 do
        decr attempts;
        let cand = table_random t peer in
        if cand < 0 then attempts := 0
        else if
          cand <> id
          && Dyngraph.is_alive g cand
          && Dyngraph.in_degree g cand < t.max_in
          && not (links_to g id cand)
        then begin
          if Dyngraph.connect g ~src:id ~dst:cand then gossip t id cand
        end
        else if not (Dyngraph.is_alive g cand) then table_forget peer cand
      done;
      if Dyngraph.out_degree g id < t.target_out then Repair_churn.owe t.base id
      else Repair_churn.settle t.base id

let birth t =
  let g = graph t in
  let id = Dyngraph.add_node_with_targets g ~birth:(Repair_churn.round t.base) ~targets:[||] in
  let peer = { table = Array.make table_size (-1); fill = 0 } in
  Hashtbl.replace t.peers id peer;
  (* DNS-seed bootstrap: a uniform sample of alive nodes. *)
  let alive = Dyngraph.alive_count g in
  for _ = 1 to min seed_size (alive - 1) do
    let cand = Dyngraph.random_alive g in
    if cand <> id then table_insert t peer cand
  done;
  Repair_churn.owe t.base id

(* Serve every deficient node, last-visited entry first (see DESIGN.md
   §4); the dead are dropped from the set. *)
let maintenance t =
  let pending = Repair_churn.queue t.base in
  while Intvec.length pending > 0 do
    let id = Intvec.pop pending in
    if Dyngraph.is_alive (graph t) id then try_fill t id else Repair_churn.settle t.base id
  done

let step t =
  let victim = Repair_churn.jump t.base in
  if victim < 0 then birth t else Hashtbl.remove t.peers victim;
  maintenance t

let advance_time t span = Repair_churn.advance_time t.base ~step:(fun () -> step t) span
let warm_up t = Repair_churn.warm_up t.base ~step:(fun () -> step t)
let snapshot t = Dyngraph.snapshot (graph t)
let flood ?max_rounds t = Repair_churn.flood ?max_rounds t.base ~step:(fun () -> step t)
let mean_out_degree t = Repair_churn.mean_out_degree t.base

let mean_table_fill t =
  let acc = ref 0 and count = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun _ peer ->
      acc := !acc + peer.fill;
      incr count)
    t.peers;
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count
