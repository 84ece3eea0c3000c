module Dyngraph = Churnet_graph.Dyngraph
module Repair_churn = Churnet_core.Repair_churn
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

(* Each alive node's address table is a row of [table_size] ints in
   [rows], at [table_size * Dyngraph.slot g id]: known addresses in the
   first [fills.(slot)] entries, -1 past them.  A newborn resets the row
   of the slot it takes over, so a dead node's row is simply left
   behind. *)
type t = {
  target_out : int;
  max_in : int;
  rng : Prng.t;
  base : Repair_churn.t; (* owing = nodes below target out-degree *)
  mutable rows : int array;
  mutable fills : int array;
}

(* Address-table entries, DNS-seed addresses per newborn, and entries
   each side advertises per gossip exchange. *)
let table_size = 64
let seed_size = 16
let gossip_size = 8

let create ~rng ?(target_out = 8) ?(max_in = 125) ~n () =
  let base = Repair_churn.create ~rng ~n ~d:target_out in
  { target_out; max_in; rng; base; rows = [||]; fills = [||] }

let graph t = Repair_churn.graph t.base
let time t = Repair_churn.time t.base

(* Index of [addr] in the filled prefix of slot [s]'s table, or -1.
   Entries are distinct, and everything past the fill is empty. *)
let table_index t s addr =
  let row = s * table_size in
  let idx = ref (-1) and i = ref 0 in
  while !idx < 0 && !i < t.fills.(s) do
    if t.rows.(row + !i) = addr then idx := !i;
    incr i
  done;
  !idx

let table_insert t s addr =
  if addr >= 0 && table_index t s addr < 0 then
    if t.fills.(s) < table_size then begin
      t.rows.((s * table_size) + t.fills.(s)) <- addr;
      t.fills.(s) <- t.fills.(s) + 1
    end
    else begin
      (* Random replacement keeps the table a moving sample. *)
      let i = Prng.int t.rng table_size in
      t.rows.((s * table_size) + i) <- addr
    end

(* A uniform entry of slot [s]'s table, or -1 when it is empty. *)
let table_random t s =
  let fill = t.fills.(s) in
  if fill = 0 then -1 else t.rows.((s * table_size) + Prng.int t.rng fill)

(* Forget a dead address. *)
let table_forget t s addr =
  let idx = table_index t s addr in
  if idx >= 0 then begin
    let row = s * table_size and last = t.fills.(s) - 1 in
    t.rows.(row + idx) <- t.rows.(row + last);
    t.rows.(row + last) <- -1;
    t.fills.(s) <- last
  end

(* Whether one of [id]'s out-slots already points at [v]. *)
let links_to g id v =
  let found = ref false in
  for i = 0 to Dyngraph.d g - 1 do
    if Dyngraph.out_slot g id i = v then found := true
  done;
  !found

(* Connected peers advertise a few random table entries to each other;
   both are alive. *)
let gossip t a b =
  let g = graph t in
  let sa = Dyngraph.slot g a and sb = Dyngraph.slot g b in
  for _ = 1 to gossip_size do
    table_insert t sb (table_random t sa);
    table_insert t sa (table_random t sb)
  done;
  table_insert t sa b;
  table_insert t sb a

(* Refill the out-slots of the alive node [id]. *)
let try_fill t id =
  let g = graph t in
  let s = Dyngraph.slot g id in
  let attempts = ref (4 * t.target_out) in
  while Dyngraph.out_degree g id < t.target_out && !attempts > 0 do
    decr attempts;
    let cand = table_random t s in
    if cand < 0 then attempts := 0
    else if
      cand <> id
      && Dyngraph.is_alive g cand
      && Dyngraph.in_degree g cand < t.max_in
      && not (links_to g id cand)
    then begin
      if Dyngraph.connect g ~src:id ~dst:cand then gossip t id cand
    end
    else if not (Dyngraph.is_alive g cand) then table_forget t s cand
  done;
  if Dyngraph.out_degree g id < t.target_out then Repair_churn.owe t.base id
  else Repair_churn.settle t.base id

(* Make room for a row at slot [s].  The arena hands out slots densely
   (a fresh one only when every lower slot is taken), so [s] is at most
   one past the last row and doubling keeps this amortized O(1). *)
let ensure_row t s =
  let slots = Array.length t.fills in
  if s >= slots then begin
    let grown = max 16 (2 * slots) in
    let rows = Array.make (grown * table_size) (-1) and fills = Array.make grown 0 in
    Array.blit t.rows 0 rows 0 (slots * table_size);
    Array.blit t.fills 0 fills 0 slots;
    t.rows <- rows;
    t.fills <- fills
  end

let birth t =
  let g = graph t in
  let id = Dyngraph.add_node_with_targets g ~birth:(Repair_churn.round t.base) ~targets:[||] in
  let s = Dyngraph.slot g id in
  ensure_row t s;
  Array.fill t.rows (s * table_size) table_size (-1);
  t.fills.(s) <- 0;
  (* DNS-seed bootstrap: a uniform sample of alive nodes. *)
  let alive = Dyngraph.alive_count g in
  for _ = 1 to min seed_size (alive - 1) do
    let cand = Dyngraph.random_alive g in
    if cand <> id then table_insert t s cand
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
  if victim < 0 then birth t;
  maintenance t

let advance_time t span = Repair_churn.advance_time t.base ~step:(fun () -> step t) span
let warm_up t = Repair_churn.warm_up t.base ~step:(fun () -> step t)
let snapshot t = Dyngraph.snapshot (graph t)
let flood ?scratch ?max_rounds t =
  Repair_churn.flood ?scratch ?max_rounds t.base ~step:(fun () -> step t)
let mean_out_degree t = Repair_churn.mean_out_degree t.base

let mean_table_fill t =
  let g = graph t and acc = ref 0 in
  Dyngraph.iter_alive g (fun id -> acc := !acc + t.fills.(Dyngraph.slot g id));
  let count = Dyngraph.alive_count g in
  if count = 0 then nan else float_of_int !acc /. float_of_int count
