module Dyngraph = Churnet_graph.Dyngraph
module Repair_churn = Churnet_core.Repair_churn
module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

(* Each alive node's address table is a row of [table_size] ints: known
   addresses in the first [fill] entries, -1 past them.  Over the row
   sits an open-addressing index of [index_size] byte cells, each 0
   (empty) or 1 + the position of an entry, probed linearly from the
   entry's hashed home cell; at most half the cells are ever taken, so
   a lookup, an insertion or a removal takes O(1) expected probes, and
   a removal shifts later cells of its run back into the hole instead
   of leaving a tombstone.  The index only finds entries: positions,
   contents and draws are those of a row scanned from the front.

   Slot [s] of the graph arena owns row [s mod page_slots] of page
   [s / page_slots].  The arena hands out slots densely, so pages are
   made one at a time as the arena grows and never copied; a newborn
   resets the row of the slot it takes over, so a dead node's row is
   simply left behind. *)
type page = {
  rows : int array; (* [page_slots] rows of [table_size] entries *)
  fills : int array; (* filled entries per row *)
  index : Bytes.t; (* [page_slots] rows of [index_size] cells *)
}

type t = {
  target_out : int;
  max_in : int;
  rng : Prng.t;
  base : Repair_churn.t; (* owing = nodes below target out-degree *)
  mutable pages : page array;
}

(* Address-table entries, DNS-seed addresses per newborn, and entries
   each side advertises per gossip exchange. *)
let table_size = 64
let seed_size = 16
let gossip_size = 8
let index_size = 2 * table_size
let index_mask = index_size - 1
let page_bits = 8
let page_slots = 1 lsl page_bits

let create ~rng ?(target_out = 8) ?(max_in = 125) ~n () =
  let base = Repair_churn.create ~rng ~n ~d:target_out in
  { target_out; max_in; rng; base; pages = [||] }

let graph t = Repair_churn.graph t.base
let time t = Repair_churn.time t.base

let[@inline] page_of t s = t.pages.(s lsr page_bits)
let[@inline] in_page s = s land (page_slots - 1)
let[@inline] row_of s = in_page s * table_size
let[@inline] cells_of s = in_page s * index_size

(* Fibonacci hashing: the product's middle bits pick the home cell. *)
let[@inline] home addr = ((addr * 0x9E3779B97F4A7C1) lsr 32) land index_mask

let[@inline] cell pg ix i = Char.code (Bytes.get pg.index (ix + i))
let[@inline] set_cell pg ix i c = Bytes.set pg.index (ix + i) (Char.unsafe_chr c)

(* The index cell (relative to [ix]) that points at [addr] in the row at
   [row], or -1.  An empty cell ends the probe run. *)
let find_cell pg row ix addr =
  let i = ref (home addr) and found = ref (-2) in
  while !found = -2 do
    let c = cell pg ix !i in
    if c = 0 then found := -1
    else if pg.rows.(row + c - 1) = addr then found := !i
    else i := (!i + 1) land index_mask
  done;
  !found

(* Point the first empty cell from [addr]'s home at entry [pos]. *)
let index_put pg ix addr pos =
  let i = ref (home addr) in
  while cell pg ix !i <> 0 do
    i := (!i + 1) land index_mask
  done;
  set_cell pg ix !i (pos + 1)

(* Empty cell [j] and close the hole: a later cell of the run moves back
   into it when its home does not lie after the hole (cyclically), and
   leaves a hole of its own. *)
let index_delete pg row ix j =
  set_cell pg ix j 0;
  let hole = ref j and i = ref ((j + 1) land index_mask) in
  while cell pg ix !i <> 0 do
    let c = cell pg ix !i in
    let h = home pg.rows.(row + c - 1) in
    if (!i - h) land index_mask >= (!i - !hole) land index_mask then begin
      set_cell pg ix !hole c;
      set_cell pg ix !i 0;
      hole := !i
    end;
    i := (!i + 1) land index_mask
  done

let table_insert t s addr =
  if addr >= 0 then begin
    let pg = page_of t s and row = row_of s and ix = cells_of s in
    if find_cell pg row ix addr < 0 then begin
      let fill = pg.fills.(in_page s) in
      if fill < table_size then begin
        pg.rows.(row + fill) <- addr;
        index_put pg ix addr fill;
        pg.fills.(in_page s) <- fill + 1
      end
      else begin
        (* Random replacement keeps the table a moving sample. *)
        let i = Prng.int t.rng table_size in
        index_delete pg row ix (find_cell pg row ix pg.rows.(row + i));
        pg.rows.(row + i) <- addr;
        index_put pg ix addr i
      end
    end
  end

(* A uniform entry of slot [s]'s table, or -1 when it is empty. *)
let table_random t s =
  let pg = page_of t s in
  let fill = pg.fills.(in_page s) in
  if fill = 0 then -1 else pg.rows.(row_of s + Prng.int t.rng fill)

(* Forget a dead address: the last entry takes its place. *)
let table_forget t s addr =
  let pg = page_of t s and row = row_of s and ix = cells_of s in
  let j = find_cell pg row ix addr in
  if j >= 0 then begin
    let idx = cell pg ix j - 1 and last = pg.fills.(in_page s) - 1 in
    index_delete pg row ix j;
    if idx < last then begin
      let moved = pg.rows.(row + last) in
      set_cell pg ix (find_cell pg row ix moved) (idx + 1);
      pg.rows.(row + idx) <- moved
    end;
    pg.rows.(row + last) <- -1;
    pg.fills.(in_page s) <- last
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
  let out = ref (Dyngraph.out_degree g id) and attempts = ref (4 * t.target_out) in
  while !out < t.target_out && !attempts > 0 do
    decr attempts;
    let cand = table_random t s in
    if cand < 0 then attempts := 0
    else if
      cand <> id
      && Dyngraph.is_alive g cand
      && Dyngraph.in_degree_below g cand t.max_in
      && not (links_to g id cand)
    then begin
      if Dyngraph.connect g ~src:id ~dst:cand then begin
        incr out;
        gossip t id cand
      end
    end
    else if not (Dyngraph.is_alive g cand) then table_forget t s cand
  done;
  if !out < t.target_out then Repair_churn.owe t.base id else Repair_churn.settle t.base id

(* Make the page holding slot [s].  Slots are handed out densely (a
   fresh one only when every lower slot is taken), so [s] is at most one
   past the last page. *)
let ensure_page t s =
  if s lsr page_bits >= Array.length t.pages then
    t.pages <-
      Array.append t.pages
        [|
          {
            rows = Array.make (page_slots * table_size) (-1);
            fills = Array.make page_slots 0;
            index = Bytes.make (page_slots * index_size) '\000';
          };
        |]

let birth t =
  let g = graph t in
  let id = Dyngraph.add_node_with_targets g ~birth:(Repair_churn.round t.base) ~targets:[||] in
  let s = Dyngraph.slot g id in
  ensure_page t s;
  let pg = page_of t s in
  Array.fill pg.rows (row_of s) table_size (-1);
  Bytes.fill pg.index (cells_of s) index_size '\000';
  pg.fills.(in_page s) <- 0;
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
  Dyngraph.iter_alive g (fun id ->
      let s = Dyngraph.slot g id in
      acc := !acc + (page_of t s).fills.(in_page s));
  let count = Dyngraph.alive_count g in
  if count = 0 then nan else float_of_int !acc /. float_of_int count
