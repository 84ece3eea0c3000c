module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type node_id = int

(* Paged slot arena.  Node ids are external, monotone, never reused;
   slots are internal, dense, recycled through a free list.  Slot [s]
   owns one row of [width = 3d + 7] ints, row [s mod 256] of row page
   [s / 256]:

     0        id         id living in slot s, -1 when s is free
     1        birth      its birth stamp
     2        alive_pos  position of the slot in the dense [alive] array
     3, 4     prev/next  doubly-linked list of alive slots in birth order
                         (oldest_slot .. youngest_slot), giving O(1)
                         oldest_alive / newest_alive
     5 ..     out        d out-slots: target id, -1 = empty
     5 + d    in count   k, the length of the in-edge list
     6 + d .. in block   its first min k (2d+1) in-neighbor ids

   The in-edge list is a multiset (duplicates = edge multiplicity) whose
   entries past the block continue in the slot's spill [Intvec]: its
   order and every swap-remove are exactly one [Intvec]'s.  A spill is
   made at the slot's first overflow and kept, cleared, when the slot is
   recycled.  So one row holds everything the churn hot path (kill +
   regeneration + birth) reads of a node, and the arena grows by
   appending pages: no row is ever copied, and steady-state operation
   allocates nothing.

   The id -> slot map is a ring of 1024-id pages that covers the ids
   from the oldest alive one's page to [next_id].  Ids are monotone, so
   a page below the oldest alive id holds dead ids only; it stays in
   the ring as a spare for a later page.  [base] and [window_len] keep
   stepping as the flat sliding window this map replaced did, only so
   that a checkpoint's bytes do not change.  See DESIGN.md, "Graph arena
   & CSR snapshots". *)
type t = {
  d : int;
  regenerate : bool;
  rng : Prng.t;
  width : int; (* ints per row *)
  len_at : int; (* row offset of the in-edge count; the block follows it *)
  blk : int; (* in-edge ids held in the row: 2d + 1 *)
  arena : arena option; (* where pages come from, [None] = always fresh *)
  mutable used : int; (* high-water mark: slots ever handed out *)
  mutable free : Intvec.t; (* recycled slots, reused LIFO *)
  mutable rows : int array array; (* row pages, 256 slots each; [||] once retired *)
  mutable spills : Intvec.t array array; (* per-slot spills, paged as [rows] *)
  no_spill : Intvec.t; (* the spill of a slot that never overflowed; stays empty *)
  mutable oldest_slot : int;
  mutable youngest_slot : int;
  mutable id_pages : int array array; (* ring of id pages, [||] = not made yet *)
  mutable id_head : int; (* ring cell of page [id_lo] *)
  mutable id_count : int; (* live pages: [id_lo, id_lo + id_count) *)
  mutable id_spare : int; (* spare pages after them in the ring *)
  mutable id_lo : int; (* page of the oldest alive id, of [next_id] when none *)
  mutable base : int; (* start of the serialized id window *)
  mutable window_len : int; (* its serialized capacity *)
  mutable alive : int array; (* dense array of alive slots, for O(1) sampling *)
  mutable alive_len : int;
  mutable next_id : int;
  mutable gather : int array; (* scratch: kill's sorted in-list, a neighbourhood *)
  mutable draws : int array; (* scratch: a run of bulk draws (births, regeneration) *)
  mutable seen : int array; (* per-slot stamps for in_degree; empty until its first call *)
  mutable seen_epoch : int; (* the stamp of the latest in_degree call *)
  mutable edge_hook : (src:node_id -> dst:node_id -> unit) option;
  mutable death_hook : (node_id -> unit) option;
  mutable birth_hook : (node_id -> birth:int -> unit) option;
}

(* The memory of the graphs built on one arena, one after another.  A
   graph made on it takes over its predecessor's ([owner]'s) alive,
   stamp and kill arrays and free list, and moves its row, spill and id
   pages into the pools below, from which it and its successors take
   pages before allocating any.  Row pages are pooled by row width, so a
   page always has the exact length [check_invariants] asks of it.  The
   model buffers are kept for the models over the owner. *)
and arena = {
  mutable owner : t option; (* the one live graph of the arena *)
  shared_no_spill : Intvec.t; (* every pooled spill page's empty spill *)
  mutable row_pools : row_pool list;
  mutable spill_pages : Intvec.t array list;
  mutable id_spares : int array list;
  mutable ints : int array;
  mutable bytes : Bytes.t;
  mutable floats : float array;
}

and row_pool = { pool_width : int; mutable pages : int array list }

(* Row fields. *)
let f_id = 0
let f_birth = 1
let f_pos = 2
let f_prev = 3
let f_next = 4
let f_out = 5
let page_bits = 8
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1
let id_page_bits = 10
let id_page_len = 1 lsl id_page_bits
let id_page_mask = id_page_len - 1
let initial_cap = page_slots
let initial_window = 1024

(* Make every row of page [p] pristine: free, no out-edges, no
   in-edges.  [p] is all -1 already. *)
let pristine p ~width ~len_at =
  for r = 0 to page_slots - 1 do
    p.((r * width) + f_birth) <- 0;
    p.((r * width) + len_at) <- 0
  done

let row_page ~width ~len_at =
  let p = Array.make (page_slots * width) (-1) in
  pristine p ~width ~len_at;
  p

(* --- Arenas ------------------------------------------------------- *)

let arena () =
  {
    owner = None;
    shared_no_spill = Intvec.create ~capacity:1 ();
    row_pools = [];
    spill_pages = [];
    id_spares = [];
    ints = [||];
    bytes = Bytes.empty;
    floats = [||];
  }

let rec find_pool pools width =
  match pools with
  | [] -> None
  | p :: rest -> if p.pool_width = width then Some p else find_pool rest width

let row_pool a width =
  match find_pool a.row_pools width with
  | Some p -> p
  | None ->
      let p = { pool_width = width; pages = [] } in
      a.row_pools <- p :: a.row_pools;
      p

(* A pristine row page of [width] ints a row: a pooled one reset, else a
   fresh one. *)
let take_row_page a ~width ~len_at =
  match find_pool a.row_pools width with
  | Some ({ pages = p :: rest; _ } as pool) ->
      pool.pages <- rest;
      Array.fill p 0 (Array.length p) (-1);
      pristine p ~width ~len_at;
      p
  | Some { pages = []; _ } | None -> row_page ~width ~len_at

(* A spill page whose spills are all empty: a pooled one keeps the
   spills its slots once made, cleared, as [kill] keeps a recycled
   slot's. *)
let take_spill_page a =
  match a.spill_pages with
  | sp :: rest ->
      a.spill_pages <- rest;
      Array.iter (fun v -> if v != a.shared_no_spill then Intvec.clear v) sp;
      sp
  | [] -> Array.make page_slots a.shared_no_spill

let take_id_page a =
  match a.id_spares with
  | p :: rest ->
      a.id_spares <- rest;
      Array.fill p 0 id_page_len (-1);
      p
  | [] -> Array.make id_page_len (-1)

(* Move [g]'s pages into [a]'s pools. *)
let pool_pages a g =
  let pool = row_pool a g.width in
  Array.iter (fun p -> if Array.length p > 0 then pool.pages <- p :: pool.pages) g.rows;
  Array.iter (fun sp -> if Array.length sp > 0 then a.spill_pages <- sp :: a.spill_pages) g.spills;
  Array.iter (fun p -> if Array.length p > 0 then a.id_spares <- p :: a.id_spares) g.id_pages

(* Empty [g]'s tables once a successor has taken its memory, so any
   later use of [g] fails on an empty table (Invalid_argument) instead
   of reading rows that now belong to another graph.  Its free list,
   now the successor's, is replaced by an empty one of its own. *)
let empty_tables g =
  g.rows <- [||];
  g.spills <- [||];
  g.id_pages <- [||];
  g.alive <- [||];
  g.free <- Intvec.create ~capacity:1 ();
  g.gather <- [||];
  g.draws <- [||];
  g.seen <- [||]

(* An empty graph on the given first pages.  The free list and the
   alive, kill and stamp arrays are [prev]'s when there is one: their
   contents past what the new graph writes are never read (the alive
   array past [alive_len], the stamps below the carried-over epoch). *)
let build ~arena ~prev ~rng ~d ~regenerate ~width ~len_at ~no_spill ~row ~spill_page ~id_page =
  {
    d;
    regenerate;
    rng;
    width;
    len_at;
    blk = (2 * d) + 1;
    arena;
    used = 0;
    free =
      (match prev with
      | Some g ->
          Intvec.clear g.free;
          g.free
      | None -> Intvec.create ~capacity:64 ());
    rows = [| row |];
    spills = [| spill_page |];
    no_spill;
    oldest_slot = -1;
    youngest_slot = -1;
    id_pages = [| id_page |];
    id_head = 0;
    id_count = 0;
    id_spare = 1;
    id_lo = 0;
    base = 0;
    window_len = initial_window;
    alive = (match prev with Some g -> g.alive | None -> Array.make 1024 (-1));
    alive_len = 0;
    next_id = 0;
    gather = (match prev with Some g -> g.gather | None -> Array.make 16 0);
    draws = (match prev with Some g -> g.draws | None -> Array.make 16 0);
    seen = (match prev with Some g -> g.seen | None -> [||]);
    seen_epoch = (match prev with Some g -> g.seen_epoch | None -> 0);
    edge_hook = None;
    death_hook = None;
    birth_hook = None;
  }

let create ?arena ~rng ~d ~regenerate () =
  if d <= 0 then invalid_arg "Dyngraph.create: d must be positive";
  let width = f_out + d + 1 + ((2 * d) + 1) and len_at = f_out + d in
  match arena with
  | None ->
      let no_spill = Intvec.create ~capacity:1 () in
      build ~arena ~prev:None ~rng ~d ~regenerate ~width ~len_at ~no_spill
        ~row:(row_page ~width ~len_at)
        ~spill_page:(Array.make page_slots no_spill) ~id_page:(Array.make id_page_len (-1))
  | Some a ->
      (* The predecessor's pages enter the pools before the new graph
         takes its first ones, so those can be among them. *)
      let prev = a.owner in
      Option.iter (pool_pages a) prev;
      let t =
        build ~arena ~prev ~rng ~d ~regenerate ~width ~len_at ~no_spill:a.shared_no_spill
          ~row:(take_row_page a ~width ~len_at) ~spill_page:(take_spill_page a)
          ~id_page:(take_id_page a)
      in
      Option.iter empty_tables prev;
      a.owner <- Some t;
      t

let arena_of t = t.arena

(* The arena's model buffers: the last one handed out, while its length
   fits. *)
let arena_ints a len =
  if Array.length a.ints <> len then a.ints <- Array.make len (-1)
  else Array.fill a.ints 0 len (-1);
  a.ints

let arena_bytes a len =
  if Bytes.length a.bytes <> len then a.bytes <- Bytes.create len;
  a.bytes

let arena_floats a len =
  if Array.length a.floats <> len then a.floats <- Array.make len 0.;
  a.floats

let d t = t.d
let regenerate t = t.regenerate
let set_edge_hook t hook = t.edge_hook <- hook
let edge_hook t = t.edge_hook
let set_death_hook t hook = t.death_hook <- hook
let death_hook t = t.death_hook
let set_birth_hook t hook = t.birth_hook <- hook
let alive_count t = t.alive_len

(* Slots the page tables cover: 256 per row page, made or not. *)
let cap t = Array.length t.rows lsl page_bits

let check_live t what =
  if Array.length t.rows = 0 then
    invalid_arg ("Dyngraph." ^ what ^ ": the graph was retired (its arena built a later one)")

(* Row page of slot [s], and the offset of its row in it. *)
let[@inline] page t s = t.rows.(s lsr page_bits)
let[@inline] off t s = (s land page_mask) * t.width
let[@inline] field t s f = (page t s).(off t s + f)
let[@inline] set_field t s f v = (page t s).(off t s + f) <- v
let[@inline] spill t s = t.spills.(s lsr page_bits).(s land page_mask)

(* Ring cell of the (live) page holding [id]. *)
let[@inline] id_cell t id =
  (t.id_head + (id asr id_page_bits) - t.id_lo) land (Array.length t.id_pages - 1)

let[@inline] slot_of t id =
  if id >= t.next_id || id asr id_page_bits < t.id_lo then -1
  else t.id_pages.(id_cell t id).(id land id_page_mask)

let set_slot_of t id s = t.id_pages.(id_cell t id).(id land id_page_mask) <- s
let is_alive t id = slot_of t id >= 0
let slot = slot_of

let get_slot t id =
  let s = slot_of t id in
  if s < 0 then invalid_arg (Printf.sprintf "Dyngraph: node %d is not alive" id);
  s

(* --- In-edge lists: the row's block, then the slot's spill ---------- *)

(* Entry [i] of slot [s]'s in-edge list, [p]/[o] being its row. *)
let[@inline] in_get t s p o i =
  if i < t.blk then p.(o + t.len_at + 1 + i) else Intvec.get (spill t s) (i - t.blk)

let in_push t s v =
  let p = page t s and o = off t s in
  let k = p.(o + t.len_at) in
  if k < t.blk then p.(o + t.len_at + 1 + k) <- v
  else begin
    let sp = spill t s in
    if sp == t.no_spill then begin
      let fresh = Intvec.create ~capacity:4 () in
      t.spills.(s lsr page_bits).(s land page_mask) <- fresh;
      Intvec.push fresh v
    end
    else Intvec.push sp v
  end;
  p.(o + t.len_at) <- k + 1

(* Remove one [v], the last entry taking its place: an [Intvec]'s
   swap-remove over the whole list, across the block/spill boundary. *)
let in_remove t s v =
  let p = page t s and o = off t s in
  let b = o + t.len_at + 1 in
  let k = p.(o + t.len_at) in
  let nb = if k < t.blk then k else t.blk in
  let i = ref 0 in
  while !i < nb && p.(b + !i) <> v do
    incr i
  done;
  if !i < nb then begin
    let last = k - 1 in
    p.(b + !i) <- (if last < t.blk then p.(b + last) else Intvec.pop (spill t s));
    p.(o + t.len_at) <- last
  end
  else if k > t.blk then begin
    let sp = spill t s in
    let n = Intvec.length sp in
    let j = ref 0 in
    while !j < n && Intvec.get sp !j <> v do
      incr j
    done;
    if !j < n then begin
      let x = Intvec.pop sp in
      if !j < n - 1 then Intvec.set sp !j x;
      p.(o + t.len_at) <- k - 1
    end
  end

let in_mem t s p o v =
  let k = p.(o + t.len_at) in
  let i = ref 0 in
  while !i < k && in_get t s p o !i <> v do
    incr i
  done;
  !i < k

(* --- Growth ------------------------------------------------------- *)

(* [a] copied into the front of a fresh [len]-cell array, rest [fill]. *)
let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double the arena's capacity.  Only the page tables grow: a row page
   is made when the first slot on it is handed out, and rows never
   move. *)
let grow_arena t =
  t.rows <- extend t.rows (2 * Array.length t.rows) [||];
  t.spills <- extend t.spills (2 * Array.length t.spills) [||]

let make_page t pg =
  match t.arena with
  | None ->
      t.rows.(pg) <- row_page ~width:t.width ~len_at:t.len_at;
      t.spills.(pg) <- Array.make page_slots t.no_spill
  | Some a ->
      t.rows.(pg) <- take_row_page a ~width:t.width ~len_at:t.len_at;
      t.spills.(pg) <- take_spill_page a

(* The next never-used slot, on a fresh page when it starts one. *)
let fresh_slot t =
  if t.used = cap t then grow_arena t;
  let s = t.used in
  if Array.length t.rows.(s lsr page_bits) = 0 then make_page t (s lsr page_bits);
  t.used <- s + 1;
  s

let alloc_slot t = if Intvec.length t.free > 0 then Intvec.pop t.free else fresh_slot t

(* Give the id being born ([next_id - 1]) a page when it is the first
   id past the last live page.  From [id_head] on, the ring holds the
   live pages, then [id_spare] spare ones, then empty cells: a spare is
   reused first, a page is made only when none is left, and a full ring
   doubles, unrolled from its head. *)
let add_id_page t id =
  if (id asr id_page_bits) - t.id_lo = t.id_count then begin
    if t.id_spare > 0 then t.id_spare <- t.id_spare - 1
    else begin
      let n = Array.length t.id_pages in
      if t.id_count = n then begin
        let ring = Array.make (2 * n) [||] in
        for i = 0 to n - 1 do
          ring.(i) <- t.id_pages.((t.id_head + i) land (n - 1))
        done;
        t.id_pages <- ring;
        t.id_head <- 0
      end;
      t.id_pages.((t.id_head + t.id_count) land (Array.length t.id_pages - 1)) <-
        (match t.arena with None -> Array.make id_page_len (-1) | Some a -> take_id_page a)
    end;
    t.id_count <- t.id_count + 1
  end

(* Release the pages wholly below the oldest alive id (below [next_id]
   when none is alive).  Every id on them is dead, so their cells are
   all -1 already: each moves from the head of the ring to the end of
   the spare run. *)
let drop_id_pages t =
  let lo =
    (if t.oldest_slot >= 0 then field t t.oldest_slot f_id else t.next_id) asr id_page_bits
  in
  let mask = Array.length t.id_pages - 1 in
  while t.id_lo < lo && t.id_count > 0 do
    let h = t.id_head in
    let e = (h + t.id_count + t.id_spare) land mask in
    if e <> h then begin
      t.id_pages.(e) <- t.id_pages.(h);
      t.id_pages.(h) <- [||]
    end;
    t.id_head <- (h + 1) land mask;
    t.id_count <- t.id_count - 1;
    t.id_spare <- t.id_spare + 1;
    t.id_lo <- t.id_lo + 1
  done;
  t.id_lo <- lo

(* The flat window this map replaced, as two integers: when [id] falls
   off its end it slides to the oldest alive id (or to [id]) and doubles
   until half of it is free ahead of [id]. *)
let advance_window t id =
  if id - t.base >= t.window_len then begin
    let new_base = if t.alive_len = 0 then id else field t t.oldest_slot f_id in
    while 2 * (id - new_base + 1) > t.window_len do
      t.window_len <- 2 * t.window_len
    done;
    t.base <- new_base
  end

let alive_push t s =
  if t.alive_len = Array.length t.alive then
    t.alive <- extend t.alive (2 * t.alive_len) (-1);
  t.alive.(t.alive_len) <- s;
  set_field t s f_pos t.alive_len;
  t.alive_len <- t.alive_len + 1

(* Swap-remove from the dense alive array.  When the victim is the last
   element, [moved = s] and the writes below are self-assignments — the
   uniform special case needs no branch. *)
let alive_remove t s =
  let pos = field t s f_pos in
  if pos < 0 then invalid_arg "Dyngraph: removing a node that is not alive";
  let last = t.alive_len - 1 in
  let moved = t.alive.(last) in
  t.alive.(pos) <- moved;
  set_field t moved f_pos pos;
  t.alive_len <- last;
  set_field t s f_pos (-1)

let random_alive_slot t =
  if t.alive_len = 0 then invalid_arg "Dyngraph.random_alive: empty graph";
  t.alive.(Prng.int t.rng t.alive_len)

let random_alive t = field t (random_alive_slot t) f_id

(* Grow the two scratch arrays to at least [n] cells, doubling. *)
let scratch_at_least t n =
  if Array.length t.gather < n then begin
    let len = ref (Array.length t.gather) in
    while !len < n do
      len := 2 * !len
    done;
    t.gather <- Array.make !len 0;
    t.draws <- Array.make !len 0
  end

let fire_hook t ~src ~dst =
  match t.edge_hook with None -> () | Some f -> f ~src ~dst

(* Link a fresh slot at the young end of the birth-order list. *)
let birth_link t s =
  set_field t s f_prev t.youngest_slot;
  set_field t s f_next (-1);
  if t.youngest_slot >= 0 then set_field t t.youngest_slot f_next s
  else t.oldest_slot <- s;
  t.youngest_slot <- s

let birth_unlink t s =
  let p = field t s f_prev and nx = field t s f_next in
  if p >= 0 then set_field t p f_next nx else t.oldest_slot <- nx;
  if nx >= 0 then set_field t nx f_prev p else t.youngest_slot <- p;
  set_field t s f_prev (-1);
  set_field t s f_next (-1)

(* Returns the slot only (the fresh id is its row's id): a tuple return
   here would allocate on every churn jump.  The slot needs no scrub:
   [kill] clears a slot before freeing it, [grow_arena] appends cleared
   rows, and [check_invariants] rejects a decoded arena with a dirty
   free slot. *)
let begin_birth t ~birth =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s = alloc_slot t in
  advance_window t id;
  add_id_page t id;
  set_slot_of t id s;
  set_field t s f_id id;
  set_field t s f_birth birth;
  s

let finish_birth t id s ~birth =
  birth_link t s;
  alive_push t s;
  (match t.birth_hook with None -> () | Some f -> f id ~birth);
  let p = page t s and o = off t s + f_out in
  for i = 0 to t.d - 1 do
    let dst = p.(o + i) in
    if dst >= 0 then fire_hook t ~src:id ~dst
  done;
  id

(* Sample destinations among nodes alive *before* this birth: the
   newborn joins [alive] only in [finish_birth], so no draw can hit it
   and the d slots take d successive draws at [alive_len], made in one
   [Prng.fill_int].  Nothing between them draws: [in_push] does not,
   and the hooks fire after the last one. *)
let add_node t ~birth =
  let s = begin_birth t ~birth in
  let p = page t s and o = off t s in
  let id = p.(o + f_id) in
  let n = t.alive_len in
  if n > 0 then begin
    scratch_at_least t t.d;
    let draws = t.draws in
    Prng.fill_int t.rng n draws 0 t.d;
    for slot = 0 to t.d - 1 do
      let ts = t.alive.(draws.(slot)) in
      p.(o + f_out + slot) <- field t ts f_id;
      in_push t ts id
    done
  end;
  finish_birth t id s ~birth

let add_node_with_targets t ~birth ~targets =
  let s = begin_birth t ~birth in
  let p = page t s and o = off t s in
  let id = p.(o + f_id) in
  let slot = ref 0 in
  for i = 0 to Array.length targets - 1 do
    let target_id = targets.(i) in
    if !slot < t.d && target_id <> id && is_alive t target_id then begin
      p.(o + f_out + !slot) <- target_id;
      in_push t (slot_of t target_id) id;
      incr slot
    end
  done;
  finish_birth t id s ~birth

let peek_next_id t = t.next_id

let connect t ~src ~dst =
  if src = dst then false
  else
    let ss = slot_of t src and ds = slot_of t dst in
    if ss < 0 || ds < 0 then false
    else begin
      let p = page t ss and o = off t ss + f_out in
      let slot = ref (-1) in
      for i = t.d - 1 downto 0 do
        if p.(o + i) < 0 then slot := i
      done;
      if !slot < 0 then false
      else begin
        p.(o + !slot) <- dst;
        in_push t ds src;
        fire_hook t ~src ~dst;
        true
      end
    end

let disconnect t ~src ~dst =
  let ss = slot_of t src and ds = slot_of t dst in
  if ss < 0 || ds < 0 then false
  else begin
    let p = page t ss and o = off t ss + f_out in
    let slot = ref (-1) in
    for i = t.d - 1 downto 0 do
      if p.(o + i) = dst then slot := i
    done;
    if !slot < 0 then false
    else begin
      p.(o + !slot) <- -1;
      in_remove t ds src;
      true
    end
  end

(* Number of distinct entries of slot [s]'s in-edge list; O(k^2)
   backward scan with k of the order of d, where it beats any allocated
   dedup structure.  The same rule as [iter_neighbors]' in-edge pass: an
   entry counts at its first occurrence. *)
let distinct_in t s p o =
  let k = p.(o + t.len_at) in
  let c = ref 0 in
  for i = 0 to k - 1 do
    let x = in_get t s p o i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if in_get t s p o j = x then dup := true
    done;
    if not !dup then incr c
  done;
  !c

(* Distinct alive sources in slot [s]'s in-edge list, counted up to
   [limit]: O(k) over the multiset, a source counting the first time its
   slot is stamped with this call's epoch.  The stamp array is sized on
   the first call and regrown with the arena, so models that never ask
   for in-degrees pay nothing for it. *)
let distinct_sources t s limit =
  let p = page t s and o = off t s in
  if Array.length t.seen < cap t then begin
    t.seen <- Array.make (cap t) 0;
    t.seen_epoch <- 0
  end;
  let epoch = t.seen_epoch + 1 in
  t.seen_epoch <- epoch;
  let seen = t.seen and k = p.(o + t.len_at) in
  let c = ref 0 and i = ref 0 in
  while !c < limit && !i < k do
    let ss = slot_of t (in_get t s p o !i) in
    if ss >= 0 && seen.(ss) <> epoch then begin
      seen.(ss) <- epoch;
      incr c
    end;
    incr i
  done;
  !c

let in_degree t id = distinct_sources t (get_slot t id) max_int

(* The in-edge list's length bounds the distinct count from above, so a
   list shorter than [bound] answers at once; otherwise the count stops
   at the [bound]-th distinct source. *)
let in_degree_below t id bound =
  let s = get_slot t id in
  field t s t.len_at < bound || (bound > 0 && distinct_sources t s bound < bound)

(* Insertion sort of [a.(lo) .. a.(lo + n - 1)].  The annotation keeps
   the comparison an integer one: unannotated, [>] is the polymorphic
   [caml_greaterthan] and every store a [caml_modify], which made this
   sort a quarter of the kill path. *)
let sort_range (a : int array) lo n =
  for i = lo + 1 to lo + n - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Sort [a.(lo) .. a.(lo + n - 1)] and move its distinct values to the
   front of that range, ascending; their number. *)
let sort_uniq (a : int array) lo n =
  sort_range a lo n;
  let w = ref lo in
  for r = lo to lo + n - 1 do
    if r = lo || a.(r) <> a.(r - 1) then begin
      a.(!w) <- a.(r);
      incr w
    end
  done;
  !w - lo

(* Without regeneration: every in-edge entry clears one slot of its
   source that points at [id].  Nothing is drawn and no hook fires, so
   the entries are taken in list order, with no copy or sort; a source
   of multiplicity c has its first c such slots cleared, as in the
   ordered pass below. *)
let clear_in_edges t s p o id k =
  for i = 0 to k - 1 do
    let ss = slot_of t (in_get t s p o i) in
    if ss >= 0 then begin
      let sp = page t ss and so = off t ss + f_out in
      let j = ref 0 in
      while !j < t.d && sp.(so + !j) <> id do
        incr j
      done;
      if !j < t.d then sp.(so + !j) <- -1
    end
  done

(* With regeneration, in-neighbours are processed oldest-first
   (ascending id), so the mapping of draws to regenerated slots is a
   fixed, documented order, not an artifact of the in-edge container's
   layout.  The list is copied to [gather] and sorted; each run of equal
   sources is one source and its multiplicity [c], and the source's
   first [c] slots that point at [id] are redrawn in increasing slot
   order.  Sequentially each lost slot takes one [Prng.int] at
   [alive_len] per try, a try that names the source's own slot being
   redrawn.  All [k] lost slots draw at that one bound, and each takes
   at least one try, so the [k] are drawn up front in one
   [Prng.fill_int] into [draws]; a self-hit takes the next buffered
   value, and an exhausted buffer is refilled with only the slots still
   missing.  That consumes exactly the sequential stream, provided
   nothing between the draws draws from the graph's generator: [in_push]
   does not, and no edge hook may ({!set_edge_hook}).  The sources are
   alive, so [alive_len < 2] leaves them no other node: their slots stay
   empty and nothing is drawn. *)
let regenerate_in_edges t s p o id k =
  scratch_at_least t k;
  let srcs = t.gather and draws = t.draws in
  for i = 0 to k - 1 do
    srcs.(i) <- in_get t s p o i
  done;
  sort_range srcs 0 k;
  let n = t.alive_len in
  let drawing = n >= 2 in
  if drawing then Prng.fill_int t.rng n draws 0 k;
  let have = ref k and next = ref 0 and left = ref k and i = ref 0 in
  while !i < k do
    let src = srcs.(!i) in
    let j = ref (!i + 1) in
    while !j < k && srcs.(!j) = src do
      incr j
    done;
    let ss = slot_of t src in
    if ss < 0 then left := !left - (!j - !i)
    else begin
      let sp = page t ss and so = off t ss + f_out in
      let c = ref (!j - !i) and slot = ref 0 in
      while !c > 0 && !slot < t.d do
        if sp.(so + !slot) = id then begin
          sp.(so + !slot) <- -1;
          if drawing then begin
            let fresh = ref ss in
            while !fresh = ss do
              if !next = !have then begin
                Prng.fill_int t.rng n draws 0 !left;
                have := !left;
                next := 0
              end;
              fresh := t.alive.(draws.(!next));
              incr next
            done;
            let dst = field t !fresh f_id in
            sp.(so + !slot) <- dst;
            in_push t !fresh src;
            fire_hook t ~src ~dst
          end;
          decr c;
          decr left
        end;
        incr slot
      done
    end;
    i := !j
  done

let kill_slot t s =
  let id = field t s f_id in
  (match t.death_hook with None -> () | Some f -> f id);
  (* Remove from the alive set first so regeneration cannot choose [id]. *)
  alive_remove t s;
  set_slot_of t id (-1);
  let was_oldest = s = t.oldest_slot in
  birth_unlink t s;
  if was_oldest then drop_id_pages t;
  (* Drop this node's out-edges from its targets' in-edge lists. *)
  let p = page t s and o = off t s in
  for i = 0 to t.d - 1 do
    let target = p.(o + f_out + i) in
    if target >= 0 then begin
      let ts = slot_of t target in
      if ts >= 0 then in_remove t ts id
    end
  done;
  (* Each surviving in-neighbor loses the slots that pointed here and,
     with regeneration, immediately re-samples them. *)
  let k = p.(o + t.len_at) in
  if k > 0 then
    if t.regenerate then regenerate_in_edges t s p o id k else clear_in_edges t s p o id k;
  (* Recycle the slot: clear everything so the next occupant starts
     pristine, then push it on the free list. *)
  p.(o + f_id) <- -1;
  for i = o + f_out to o + f_out + t.d - 1 do
    p.(i) <- -1
  done;
  p.(o + t.len_at) <- 0;
  Intvec.clear (spill t s);
  Intvec.push t.free s

let kill t id = kill_slot t (get_slot t id)

(* Apply a pre-drawn run of churn decisions in one arena pass.  The graph
   operations — and hence the draws they take from the graph PRNG — happen
   in batch order, exactly as the equivalent add_node/kill loop would make
   them, so the resulting arena (including its serialized bytes) is
   identical.  A victim is drawn as [random_alive] draws it, straight as
   a slot. *)
let churn_batch t ~decisions ~count ~birth0 =
  if count < 0 || count > Bytes.length decisions then
    invalid_arg "Dyngraph.churn_batch: count out of range";
  for i = 0 to count - 1 do
    if Bytes.get decisions i = '\000' then ignore (add_node t ~birth:(birth0 + i))
    else kill_slot t (random_alive_slot t)
  done

let iter_alive t f =
  for i = 0 to t.alive_len - 1 do
    f (field t t.alive.(i) f_id)
  done

let alive_ids t =
  let ids = Array.make t.alive_len 0 in
  for i = 0 to t.alive_len - 1 do
    ids.(i) <- field t t.alive.(i) f_id
  done;
  ids

let birth_of t id = field t (get_slot t id) f_birth

let out_targets t id =
  let s = get_slot t id in
  let p = page t s and o = off t s + f_out in
  let acc = ref [] in
  for i = t.d - 1 downto 0 do
    let target = p.(o + i) in
    if target >= 0 then acc := target :: !acc
  done;
  !acc

let out_slots_raw t id =
  let s = get_slot t id in
  Array.sub (page t s) (off t s + f_out) t.d

let out_slot t id slot =
  let s = get_slot t id in
  if slot < 0 || slot >= t.d then invalid_arg "Dyngraph.out_slot: slot out of range";
  field t s (f_out + slot)

(* The list queries below are wrappers over these buffer fills, so one
   sort-and-dedupe serves both. *)
let in_neighbors_into t id buf =
  let s = get_slot t id in
  let p = page t s and o = off t s in
  Intvec.clear buf;
  for i = 0 to p.(o + t.len_at) - 1 do
    Intvec.push buf (in_get t s p o i)
  done;
  Intvec.sort_uniq buf

let neighbors_into t id buf =
  let s = get_slot t id in
  let p = page t s and o = off t s in
  Intvec.clear buf;
  for i = 0 to t.d - 1 do
    let target = p.(o + f_out + i) in
    if target >= 0 then Intvec.push buf target
  done;
  for i = 0 to p.(o + t.len_at) - 1 do
    Intvec.push buf (in_get t s p o i)
  done;
  Intvec.sort_uniq buf

(* [neighbors_into]'s set, gathered, sorted and deduped in [gather]: the
   draw and the value of a uniform pick from that buffer. *)
let random_neighbor t id rng =
  let s = get_slot t id in
  let p = page t s and o = off t s in
  let k = p.(o + t.len_at) in
  scratch_at_least t (t.d + k);
  let a = t.gather in
  let n = ref 0 in
  for i = 0 to t.d - 1 do
    let target = p.(o + f_out + i) in
    if target >= 0 then begin
      a.(!n) <- target;
      incr n
    end
  done;
  for i = 0 to k - 1 do
    a.(!n + i) <- in_get t s p o i
  done;
  let m = sort_uniq a 0 (!n + k) in
  if m = 0 then -1 else a.(Prng.int rng m)

let list_of_intvec buf =
  let acc = ref [] in
  for i = Intvec.length buf - 1 downto 0 do
    acc := Intvec.get buf i :: !acc
  done;
  !acc

let in_neighbors t id =
  let buf = Intvec.create () in
  in_neighbors_into t id buf;
  list_of_intvec buf

let neighbors t id =
  let buf = Intvec.create () in
  neighbors_into t id buf;
  list_of_intvec buf

(* Allocation-free neighborhood iteration for the simulation hot loops.
   Distinctness without a scratch set: an out-slot target is skipped when
   it is also an in-neighbor (the in-edge pass will visit it) or when an
   earlier slot already holds it; an in-edge entry is visited only at its
   first occurrence.  Both scans are O(k^2) with k of the order of d. *)
let iter_neighbors t id f =
  let s = get_slot t id in
  let p = page t s and o = off t s in
  for i = 0 to t.d - 1 do
    let v = p.(o + f_out + i) in
    if v >= 0 && not (in_mem t s p o v) then begin
      let dup = ref false in
      for j = 0 to i - 1 do
        if p.(o + f_out + j) = v then dup := true
      done;
      if not !dup then f v
    end
  done;
  for i = 0 to p.(o + t.len_at) - 1 do
    let src = in_get t s p o i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if in_get t s p o j = src then dup := true
    done;
    if not !dup then f src
  done

let iter_in_neighbors t id f =
  let s = get_slot t id in
  let p = page t s and o = off t s in
  for i = 0 to p.(o + t.len_at) - 1 do
    let src = in_get t s p o i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if in_get t s p o j = src then dup := true
    done;
    if not !dup then f src
  done

(* [iter_neighbors] counted, as plain loops with its dedup rule: a
   counting closure would allocate on every call. *)
let degree_of_slot t s =
  let p = page t s and o = off t s in
  let count = ref (distinct_in t s p o) in
  for i = 0 to t.d - 1 do
    let v = p.(o + f_out + i) in
    if v >= 0 && not (in_mem t s p o v) then begin
      let dup = ref false in
      for j = 0 to i - 1 do
        if p.(o + f_out + j) = v then dup := true
      done;
      if not !dup then incr count
    end
  done;
  !count

let degree t id = degree_of_slot t (get_slot t id)

let iter_degrees t f =
  for s = 0 to t.used - 1 do
    if field t s f_id >= 0 then f (degree_of_slot t s)
  done

let out_degree t id =
  let s = get_slot t id in
  let p = page t s and o = off t s + f_out in
  let count = ref 0 in
  for i = 0 to t.d - 1 do
    if p.(o + i) >= 0 then incr count
  done;
  !count

let edge_count t =
  let total = ref 0 in
  iter_alive t (fun id -> total := !total + out_degree t id);
  !total

let oldest_alive t = if t.oldest_slot < 0 then None else Some (field t t.oldest_slot f_id)

let newest_alive t =
  if t.youngest_slot < 0 then None else Some (field t t.youngest_slot f_id)

(* Snapshot straight from the arena into CSR form: one growable flat
   buffer, rows gathered per node then sorted + deduped in place.  The
   id -> index translation is an O(1) slot-indexed lookup, not a search. *)
let snapshot t =
  check_live t "snapshot";
  let n = t.alive_len in
  let ids = alive_ids t in
  Array.sort Int.compare ids;
  let births = Array.make n 0 in
  let out_deg = Array.make n 0 in
  let index_of_slot = Array.make (max 1 t.used) (-1) in
  for i = 0 to n - 1 do
    let s = slot_of t ids.(i) in
    index_of_slot.(s) <- i;
    births.(i) <- field t s f_birth
  done;
  let offsets = Array.make (n + 1) 0 in
  let buf = ref (Array.make (max 16 (4 * n)) 0) in
  let len = ref 0 in
  let push v =
    let b = !buf in
    if !len = Array.length b then begin
      let bigger = Array.make (2 * !len) 0 in
      Array.blit b 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- v;
    incr len
  in
  for i = 0 to n - 1 do
    let s = slot_of t ids.(i) in
    let p = page t s and o = off t s in
    let start = !len in
    let odeg = ref 0 in
    for k = 0 to t.d - 1 do
      let target = p.(o + f_out + k) in
      if target >= 0 then begin
        incr odeg;
        push index_of_slot.(slot_of t target)
      end
    done;
    out_deg.(i) <- !odeg;
    for k = 0 to p.(o + t.len_at) - 1 do
      push index_of_slot.(slot_of t (in_get t s p o k))
    done;
    len := start + sort_uniq !buf start (!len - start);
    offsets.(i + 1) <- !len
  done;
  Snapshot.of_csr ~ids ~births ~offsets ~adj:(Array.sub !buf 0 !len) ~out_deg

let check_invariants t =
  check_live t "check_invariants";
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* paging: 256 rows per page, a spill page per row page *)
  if
    cap t < initial_cap
    || cap t land (cap t - 1) <> 0
    || Array.length t.spills <> Array.length t.rows
    || t.used > cap t
  then fail "arena pages out of step with cap %d" (cap t)
  else begin
    (* pages exist up to the last used slot's (page 0 always); a spill
       holds exactly what overflows a full block; unused rows are
       pristine *)
    let made = max 1 ((t.used + page_mask) lsr page_bits) in
    for pg = 0 to Array.length t.rows - 1 do
      let want = if pg < made then page_slots else 0 in
      if Array.length t.rows.(pg) <> want * t.width || Array.length t.spills.(pg) <> want then
        fail "row page %d made out of turn" pg
    done;
    if !err = None then
      for s = 0 to (made * page_slots) - 1 do
        let k = field t s t.len_at in
        let sp = spill t s in
        if k < 0 || Intvec.length sp <> max 0 (k - t.blk) then
          fail "slot %d: spill of %d entries behind %d in-edges" s (Intvec.length sp) k;
        if s >= t.used && (field t s f_id <> -1 || k <> 0) then
          fail "unused slot %d is not pristine" s
      done;
    if Intvec.length t.no_spill <> 0 then fail "the empty spill is not empty"
  end;
  let mapped = ref 0 in
  if !err = None then begin
    (* id pages: from the oldest alive id's page to next_id's, no lower *)
    let lo_id = if t.oldest_slot >= 0 then field t t.oldest_slot f_id else t.next_id in
    let ring = Array.length t.id_pages in
    if t.id_lo <> lo_id asr id_page_bits then
      fail "id page %d kept below the oldest alive id %d" t.id_lo lo_id;
    if t.id_count <> max 0 (((t.next_id - 1) asr id_page_bits) - t.id_lo + 1) then
      fail "%d id pages for ids up to %d" t.id_count t.next_id;
    if ring land (ring - 1) <> 0 || t.id_spare < 0 || t.id_count + t.id_spare > ring then
      fail "bad id page ring";
    for c = 0 to ring - 1 do
      let pg = t.id_pages.(c) in
      let rel = (c - t.id_head) land (ring - 1) in
      let made = rel < t.id_count + t.id_spare in
      if Array.length pg <> (if made then id_page_len else 0) then
        fail "id page ring cell %d out of turn" c;
      Array.iter
        (fun s ->
          if s >= 0 then if rel < t.id_count then incr mapped else fail "spare id page %d maps" c)
        pg
    done
  end;
  if !err = None then begin
    (* alive array, alive_pos and the id map agree *)
    for i = 0 to t.alive_len - 1 do
      let s = t.alive.(i) in
      if s < 0 || s >= t.used then fail "alive entry %d is slot %d, not a used one" i s
      else begin
        let id = field t s f_id in
        if id < 0 then fail "alive entry %d is free slot %d" i s
        else if slot_of t id <> s then fail "alive node %d not mapped to its slot %d" id s;
        if field t s f_pos <> i then fail "alive index mismatch for node %d" id
      end
    done;
    if !mapped <> t.alive_len then fail "alive index size mismatch"
  end;
  (* the checks below read the rows of the alive slots *)
  if !err = None then begin
    (* used slots partition into alive slots and the free list *)
    if Intvec.length t.free + t.alive_len <> t.used then fail "slot accounting mismatch";
    Intvec.iter
      (fun s ->
        if field t s f_id >= 0 then fail "free slot %d still mapped" s;
        if field t s f_pos >= 0 then fail "free slot %d still in alive array" s;
        if field t s t.len_at <> 0 then fail "free slot %d keeps in-edges" s;
        for i = 0 to t.d - 1 do
          if field t s (f_out + i) >= 0 then fail "free slot %d keeps out-edges" s
        done)
      t.free;
    (* birth-order list covers exactly the alive slots, ids ascending *)
    let steps = ref 0 in
    let prev_id = ref (-1) in
    let cursor = ref t.oldest_slot in
    let broken = ref false in
    while !cursor >= 0 && not !broken do
      let s = !cursor in
      let id = field t s f_id in
      if id < 0 then begin
        fail "birth list visits free slot %d" s;
        broken := true
      end
      else begin
        if id <= !prev_id then fail "birth list not ascending at node %d" id;
        prev_id := id;
        let nx = field t s f_next in
        if nx >= 0 && field t nx f_prev <> s then fail "birth list links broken at slot %d" s;
        incr steps;
        if !steps > t.alive_len then begin
          fail "birth list longer than the alive set";
          broken := true
        end;
        cursor := nx
      end
    done;
    if (not !broken) && !steps <> t.alive_len then fail "birth list length mismatch";
    if t.alive_len > 0 && t.youngest_slot >= 0 && field t t.youngest_slot f_next >= 0 then
      fail "youngest slot has a successor";
    (* slot / in-edge symmetry, counted in both directions *)
    let count_row s v =
      let c = ref 0 in
      for i = 0 to t.d - 1 do
        if field t s (f_out + i) = v then incr c
      done;
      !c
    in
    let count_in s v =
      let p = page t s and o = off t s in
      let c = ref 0 in
      for i = 0 to p.(o + t.len_at) - 1 do
        if in_get t s p o i = v then incr c
      done;
      !c
    in
    iter_alive t (fun id ->
        let s = slot_of t id in
        (* an unmapped alive node was reported above *)
        if s >= 0 then begin
          for i = 0 to t.d - 1 do
            let target = field t s (f_out + i) in
            if target >= 0 then begin
              if target = id then fail "self-loop at node %d" id;
              let ts = slot_of t target in
              if ts < 0 then fail "node %d has slot to dead node %d" id target
              else if count_in ts id <> count_row s target then
                fail "multiplicity mismatch %d->%d: slots %d, recorded %d" id target
                  (count_row s target) (count_in ts id)
            end
          done;
          let p = page t s and o = off t s in
          for i = 0 to p.(o + t.len_at) - 1 do
            let src = in_get t s p o i in
            let ss = slot_of t src in
            if ss < 0 then fail "in-edge from dead node %d at %d" src id
            else if count_row ss id <> count_in s src then
              fail "multiplicity mismatch %d->%d: slots %d, recorded %d" src id
                (count_row ss id) (count_in s src)
          done
        end)
  end;
  match !err with None -> Ok () | Some e -> Error e

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)
(* ------------------------------------------------------------------ *)

module Codec = Churnet_util.Codec

(* Everything observable is serialized verbatim: besides the obvious
   topology, the free list's LIFO order decides which slot the next
   birth recycles, the dense alive array's order is what random_alive
   indexes into, and the id window ([base], its length and one cell per
   id from [base] to [next_id]) shifts nothing observable but is kept so
   a decode/encode cycle is byte-identical.  The layout is the flat
   per-field one of the arena before paging: field by field over the
   used slots, each in-edge list as an [Intvec].  Deliberately NOT
   serialized: the three hooks (observers re-attach after resume), the
   gather and draw scratch buffers (rebuilt empty), the in_degree stamps
   (sized again on first use), spill capacities and spare id pages.  The
   alive array holds slots; it is written as the ids in them. *)
let encode w t =
  check_live t "encode";
  Codec.varint w t.d;
  Codec.bool w t.regenerate;
  Prng.encode w t.rng;
  Codec.varint w (cap t);
  Codec.varint w t.used;
  Intvec.encode w t.free;
  let prefix f = for s = 0 to t.used - 1 do Codec.varint w (field t s f) done in
  List.iter prefix [ f_id; f_birth; f_pos; f_prev; f_next ];
  for s = 0 to t.used - 1 do
    for i = 0 to t.d - 1 do
      Codec.varint w (field t s (f_out + i))
    done
  done;
  for s = 0 to t.used - 1 do
    let p = page t s and o = off t s in
    let k = p.(o + t.len_at) in
    Codec.varint w k;
    for i = 0 to k - 1 do
      Codec.varint w (in_get t s p o i)
    done
  done;
  Codec.varint w t.oldest_slot;
  Codec.varint w t.youngest_slot;
  Codec.varint w t.base;
  Codec.varint w t.window_len;
  let window = max 0 (t.next_id - t.base) in
  Codec.varint w window;
  for i = 0 to window - 1 do
    Codec.varint w (slot_of t (t.base + i))
  done;
  Codec.varint w t.alive_len;
  for i = 0 to t.alive_len - 1 do
    Codec.varint w (field t t.alive.(i) f_id)
  done;
  Codec.varint w t.next_id

let decode r =
  let fail msg = raise (Codec.Error ("Dyngraph.decode: " ^ msg)) in
  (* Damaged input must raise [Codec.Error], never index out of bounds
     or allocate absurdly: every count is checked against the bytes left
     before it sizes an array, the serialized prefixes are read first,
     every slot and id in them is range-checked, and the arena's spare
     capacity is added only after that. *)
  let d = Codec.read_varint r in
  if d <= 0 then fail "non-positive degree";
  let regenerate = Codec.read_bool r in
  let rng = Prng.decode r in
  let cap = Codec.read_varint r in
  let used = Codec.read_varint r in
  (* [cap] starts at [initial_cap] and doubles only once every slot is
     used, so it is a power of two (a whole number of row pages) that no
     slot lies beyond *)
  if
    used < 0
    || used > Codec.remaining r
    || cap < initial_cap
    || used > cap
    || cap > max initial_cap (2 * used)
    || cap land (cap - 1) <> 0
    || d > Sys.max_array_length / (4 * cap)
    || (used > 0 && d > Codec.remaining r / used)
  then fail "bad arena bounds";
  let free = Intvec.decode r in
  let read_ints len = Array.init len (fun _ -> Codec.read_varint r) in
  let id_of_slot = read_ints used in
  let birth_of_slot = read_ints used in
  let alive_pos = read_ints used in
  let prev_slot = read_ints used in
  let next_slot = read_ints used in
  let out = read_ints (used * d) in
  let in_edges = Array.init used (fun _ -> Codec.read_int_array r) in
  let oldest_slot = Codec.read_varint r in
  let youngest_slot = Codec.read_varint r in
  let base = Codec.read_varint r in
  let window_len = Codec.read_varint r in
  let window = Codec.read_varint r in
  if base < 0 || window < 0 || window > Codec.remaining r then fail "bad id window";
  let slot_of_id = read_ints window in
  let alive_len = Codec.read_varint r in
  if alive_len < 0 || alive_len > used then fail "bad alive count";
  let alive = read_ints alive_len in
  let next_id = Codec.read_varint r in
  if next_id < base || next_id - base <> window then fail "id window out of sync";
  (* the window starts at [initial_window] cells and only ever doubles
     to fewer than 4 * next_id *)
  if
    window_len < max initial_window window
    || window_len > max initial_window (4 * next_id)
  then fail "bad id window";
  let check what lo hi v =
    if v < lo || v >= hi then fail (Printf.sprintf "%s %d out of range" what v)
  in
  Intvec.iter (check "free slot" 0 used) free;
  Array.iter (check "slot owner" (-1) next_id) id_of_slot;
  Array.iter (check "alive position" (-1) alive_len) alive_pos;
  Array.iter (check "birth-list link" (-1) used) prev_slot;
  Array.iter (check "birth-list link" (-1) used) next_slot;
  Array.iter (check "out-slot target" (-1) next_id) out;
  Array.iter (Array.iter (check "in-edge source" 0 next_id)) in_edges;
  check "oldest slot" (-1) used oldest_slot;
  check "youngest slot" (-1) used youngest_slot;
  Array.iter (check "id-window slot" (-1) used) slot_of_id;
  Array.iter (check "alive id" base next_id) alive;
  (* The id pages start at the oldest alive id's page: nothing below
     that id may be mapped. *)
  let lo_id =
    if oldest_slot >= 0 && id_of_slot.(oldest_slot) >= 0 then id_of_slot.(oldest_slot)
    else next_id
  in
  Array.iteri
    (fun i s -> if base + i < lo_id && s >= 0 then fail "id window maps a dead id")
    slot_of_id;
  (* The alive array holds slots: each alive id must have one before any
     row is read through it. *)
  let alive =
    Array.map
      (fun id ->
        let s = slot_of_id.(id - base) in
        if s < 0 then fail (Printf.sprintf "alive id %d has no slot" id);
        s)
      alive
  in
  let id_lo = lo_id asr id_page_bits in
  let id_count = max 0 (((next_id - 1) asr id_page_bits) - id_lo + 1) in
  let ring = ref 1 in
  while !ring < id_count do
    ring := 2 * !ring
  done;
  let id_pages =
    Array.init !ring (fun c -> if c < id_count then Array.make id_page_len (-1) else [||])
  in
  let t = create ~rng ~d ~regenerate () in
  let t =
    {
      t with
      used;
      free;
      oldest_slot;
      youngest_slot;
      id_pages;
      id_count;
      id_spare = 0;
      id_lo;
      base;
      window_len;
      alive = extend alive (max 1024 alive_len) (-1);
      alive_len;
      next_id;
    }
  in
  while Array.length t.rows < cap / page_slots do
    grow_arena t
  done;
  for pg = 1 to (used - 1) asr page_bits do
    make_page t pg
  done;
  for i = 0 to window - 1 do
    if base + i >= lo_id then set_slot_of t (base + i) slot_of_id.(i)
  done;
  for s = 0 to used - 1 do
    set_field t s f_id id_of_slot.(s);
    set_field t s f_birth birth_of_slot.(s);
    set_field t s f_pos alive_pos.(s);
    set_field t s f_prev prev_slot.(s);
    set_field t s f_next next_slot.(s);
    for i = 0 to d - 1 do
      set_field t s (f_out + i) out.((s * d) + i)
    done;
    Array.iter (in_push t s) in_edges.(s)
  done;
  (* The CRC catches corruption; this catches a structurally valid file
     whose fields contradict each other (schema drift, hand editing). *)
  (match check_invariants t with
  | Ok () -> ()
  | Error e -> fail ("invariant violation after decode: " ^ e));
  t
