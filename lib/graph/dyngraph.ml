module Prng = Churnet_util.Prng
module Intvec = Churnet_util.Intvec

type node_id = int

(* Slot-arena representation.  Node ids are external, monotone, never
   reused; slots are internal, dense, recycled through a free list.  All
   per-node state lives in parallel arrays indexed by slot, so the churn
   hot path (kill + regeneration + birth) walks flat int arrays instead
   of chasing hashtable buckets, and steady-state operation allocates
   nothing.

     id_of_slot.(s)    id living in slot s, -1 when s is free
     birth_of_slot.(s) its birth stamp
     out.(s*d + i)     target id of out-slot i, -1 = empty
     in_edges.(s)      in-neighbor ids, duplicates = edge multiplicity
     alive_pos.(s)     position of the id in the dense [alive] array
     prev/next_slot    doubly-linked list of alive slots in birth order
                       (oldest_slot .. youngest_slot), giving O(1)
                       oldest_alive / newest_alive

   The id -> slot map is a plain array over the window
   [base, base + length slot_of_id): ids below [base] are dead forever
   (ids are monotone), so the window slides forward and is compacted or
   doubled only when a new id falls off its end — amortized O(1) per
   birth.  See DESIGN.md, "Graph arena & CSR snapshots". *)
type t = {
  d : int;
  regenerate : bool;
  rng : Prng.t;
  mutable cap : int; (* slots allocated in the arena *)
  mutable used : int; (* high-water mark: slots ever handed out *)
  free : Intvec.t; (* recycled slots, reused LIFO *)
  mutable id_of_slot : int array;
  mutable birth_of_slot : int array;
  mutable out : int array; (* flat [cap * d] out-slot matrix *)
  mutable in_edges : Intvec.t array;
  mutable alive_pos : int array;
  mutable prev_slot : int array;
  mutable next_slot : int array;
  mutable oldest_slot : int;
  mutable youngest_slot : int;
  mutable base : int; (* smallest id the slot map can still resolve *)
  mutable slot_of_id : int array; (* (id - base) -> slot, -1 = dead *)
  mutable alive : int array; (* dense array of alive ids, for O(1) sampling *)
  mutable alive_len : int;
  mutable next_id : int;
  mutable kill_srcs : int array; (* scratch for kill's canonical regen order *)
  mutable kill_cnts : int array; (* per-src slot multiplicity, parallel to kill_srcs *)
  mutable edge_hook : (src:node_id -> dst:node_id -> unit) option;
  mutable death_hook : (node_id -> unit) option;
  mutable birth_hook : (node_id -> birth:int -> unit) option;
}

let initial_cap = 256
let initial_window = 1024

let create ~rng ~d ~regenerate () =
  if d <= 0 then invalid_arg "Dyngraph.create: d must be positive";
  {
    d;
    regenerate;
    rng;
    cap = initial_cap;
    used = 0;
    free = Intvec.create ~capacity:64 ();
    id_of_slot = Array.make initial_cap (-1);
    birth_of_slot = Array.make initial_cap 0;
    out = Array.make (initial_cap * d) (-1);
    in_edges = Array.init initial_cap (fun _ -> Intvec.create ~capacity:4 ());
    alive_pos = Array.make initial_cap (-1);
    prev_slot = Array.make initial_cap (-1);
    next_slot = Array.make initial_cap (-1);
    oldest_slot = -1;
    youngest_slot = -1;
    base = 0;
    slot_of_id = Array.make initial_window (-1);
    alive = Array.make 1024 (-1);
    alive_len = 0;
    next_id = 0;
    kill_srcs = Array.make 16 0;
    kill_cnts = Array.make 16 0;
    edge_hook = None;
    death_hook = None;
    birth_hook = None;
  }

let d t = t.d
let regenerate t = t.regenerate
let set_edge_hook t hook = t.edge_hook <- hook
let edge_hook t = t.edge_hook
let set_death_hook t hook = t.death_hook <- hook
let set_birth_hook t hook = t.birth_hook <- hook
let alive_count t = t.alive_len

let[@inline] slot_of t id =
  if id < t.base || id >= t.next_id then -1 else t.slot_of_id.(id - t.base)

let is_alive t id = slot_of t id >= 0

let get_slot t id =
  let s = slot_of t id in
  if s < 0 then invalid_arg (Printf.sprintf "Dyngraph: node %d is not alive" id);
  s

(* [a] copied into the front of a fresh [len]-cell array, rest [fill]. *)
let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_arena t =
  let old_cap = t.cap in
  let cap = 2 * old_cap in
  t.id_of_slot <- extend t.id_of_slot cap (-1);
  t.birth_of_slot <- extend t.birth_of_slot cap 0;
  t.alive_pos <- extend t.alive_pos cap (-1);
  t.prev_slot <- extend t.prev_slot cap (-1);
  t.next_slot <- extend t.next_slot cap (-1);
  t.out <- extend t.out (cap * t.d) (-1);
  let inn = Array.make cap t.in_edges.(0) in
  Array.blit t.in_edges 0 inn 0 old_cap;
  for s = old_cap to cap - 1 do
    inn.(s) <- Intvec.create ~capacity:4 ()
  done;
  t.in_edges <- inn;
  t.cap <- cap

let alloc_slot t =
  if Intvec.length t.free > 0 then Intvec.pop t.free
  else begin
    if t.used = t.cap then grow_arena t;
    let s = t.used in
    t.used <- t.used + 1;
    s
  end

(* Slide / grow the id -> slot window so [id] (= the id being born) has a
   cell.  Every id below the oldest alive id is dead forever, so the
   window can drop that prefix.  Both branches leave at least half the
   window free ahead of [id], which amortizes the O(window) move to O(1)
   per birth. *)
let ensure_id_window t id =
  let len = Array.length t.slot_of_id in
  if id - t.base >= len then begin
    let new_base = if t.alive_len = 0 then id else t.id_of_slot.(t.oldest_slot) in
    let keep = id - new_base in
    if 2 * (keep + 1) <= len then begin
      Array.blit t.slot_of_id (new_base - t.base) t.slot_of_id 0 keep;
      Array.fill t.slot_of_id keep (len - keep) (-1);
      t.base <- new_base
    end
    else begin
      let nlen = ref len in
      while 2 * (keep + 1) > !nlen do
        nlen := 2 * !nlen
      done;
      let arr = Array.make !nlen (-1) in
      Array.blit t.slot_of_id (new_base - t.base) arr 0 keep;
      t.slot_of_id <- arr;
      t.base <- new_base
    end
  end

let alive_push t id s =
  if t.alive_len = Array.length t.alive then
    t.alive <- extend t.alive (2 * t.alive_len) (-1);
  t.alive.(t.alive_len) <- id;
  t.alive_pos.(s) <- t.alive_len;
  t.alive_len <- t.alive_len + 1

(* Swap-remove from the dense alive array.  When the victim is the last
   element, [moved = id] and the writes below are self-assignments — the
   uniform special case needs no branch. *)
let alive_remove t s =
  let pos = t.alive_pos.(s) in
  if pos < 0 then invalid_arg "Dyngraph: removing a node that is not alive";
  let last = t.alive_len - 1 in
  let moved = t.alive.(last) in
  t.alive.(pos) <- moved;
  t.alive_pos.(slot_of t moved) <- pos;
  t.alive_len <- last;
  t.alive_pos.(s) <- -1

let random_alive t =
  if t.alive_len = 0 then invalid_arg "Dyngraph.random_alive: empty graph";
  t.alive.(Prng.int t.rng t.alive_len)

(* Uniform alive node distinct from [self]; -1 when no such node exists.
   Returned unboxed (rather than as an option) because this runs once per
   out-slot on every birth and regeneration — the churn hot path must not
   allocate.  The rejection loop's draw sequence is part of the
   interface. *)
let random_alive_excluding t self =
  if t.alive_len = 0 then -1
  else if t.alive_len = 1 && t.alive.(0) = self then -1
  else begin
    let rec go () =
      let cand = t.alive.(Prng.int t.rng t.alive_len) in
      if cand = self then go () else cand
    in
    go ()
  end

let fire_hook t ~src ~dst =
  match t.edge_hook with None -> () | Some f -> f ~src ~dst

(* Link a fresh slot at the young end of the birth-order list. *)
let birth_link t s =
  t.prev_slot.(s) <- t.youngest_slot;
  t.next_slot.(s) <- -1;
  if t.youngest_slot >= 0 then t.next_slot.(t.youngest_slot) <- s
  else t.oldest_slot <- s;
  t.youngest_slot <- s

let birth_unlink t s =
  let p = t.prev_slot.(s) and nx = t.next_slot.(s) in
  if p >= 0 then t.next_slot.(p) <- nx else t.oldest_slot <- nx;
  if nx >= 0 then t.prev_slot.(nx) <- p else t.youngest_slot <- p;
  t.prev_slot.(s) <- -1;
  t.next_slot.(s) <- -1

(* Returns the slot only (the fresh id is [id_of_slot.(s)]): a tuple
   return here would allocate on every churn jump.  The slot needs no
   scrub: [kill] clears a slot before freeing it, [grow_arena] creates
   cleared slots, and [check_invariants] rejects a decoded arena with a
   dirty free slot. *)
let begin_birth t ~birth =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s = alloc_slot t in
  ensure_id_window t id;
  t.slot_of_id.(id - t.base) <- s;
  t.id_of_slot.(s) <- id;
  t.birth_of_slot.(s) <- birth;
  s

let finish_birth t id s ~birth =
  birth_link t s;
  alive_push t id s;
  (match t.birth_hook with None -> () | Some f -> f id ~birth);
  let row = s * t.d in
  for i = 0 to t.d - 1 do
    let dst = t.out.(row + i) in
    if dst >= 0 then fire_hook t ~src:id ~dst
  done;
  id

let add_node t ~birth =
  let s = begin_birth t ~birth in
  let id = t.id_of_slot.(s) in
  (* Sample destinations among nodes alive *before* this birth. *)
  let row = s * t.d in
  for slot = 0 to t.d - 1 do
    let target_id = random_alive_excluding t id in
    if target_id >= 0 then begin
      t.out.(row + slot) <- target_id;
      Intvec.push t.in_edges.(slot_of t target_id) id
    end
  done;
  finish_birth t id s ~birth

let add_node_with_targets t ~birth ~targets =
  let s = begin_birth t ~birth in
  let id = t.id_of_slot.(s) in
  let row = s * t.d in
  let slot = ref 0 in
  Array.iter
    (fun target_id ->
      if !slot < t.d && target_id <> id && is_alive t target_id then begin
        t.out.(row + !slot) <- target_id;
        Intvec.push t.in_edges.(slot_of t target_id) id;
        incr slot
      end)
    targets;
  finish_birth t id s ~birth

let peek_next_id t = t.next_id

let connect t ~src ~dst =
  if src = dst then false
  else
    let ss = slot_of t src and ds = slot_of t dst in
    if ss < 0 || ds < 0 then false
    else begin
      let row = ss * t.d in
      let slot = ref (-1) in
      for i = t.d - 1 downto 0 do
        if t.out.(row + i) < 0 then slot := i
      done;
      if !slot < 0 then false
      else begin
        t.out.(row + !slot) <- dst;
        Intvec.push t.in_edges.(ds) src;
        fire_hook t ~src ~dst;
        true
      end
    end

let disconnect t ~src ~dst =
  let ss = slot_of t src and ds = slot_of t dst in
  if ss < 0 || ds < 0 then false
  else begin
    let row = ss * t.d in
    let slot = ref (-1) in
    for i = t.d - 1 downto 0 do
      if t.out.(row + i) = dst then slot := i
    done;
    if !slot < 0 then false
    else begin
      t.out.(row + !slot) <- -1;
      ignore (Intvec.swap_remove_first t.in_edges.(ds) src);
      true
    end
  end

(* Number of distinct values in [v]; O(k^2) backward scan with k of the
   order of d, where it beats any allocated dedup structure. *)
let distinct_count v =
  let k = Intvec.length v in
  let c = ref 0 in
  for i = 0 to k - 1 do
    let x = Intvec.get v i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if Intvec.get v j = x then dup := true
    done;
    if not !dup then incr c
  done;
  !c

let in_degree t id = distinct_count t.in_edges.(get_slot t id)

let sort_range a lo n =
  for i = lo + 1 to lo + n - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let kill t id =
  let s = get_slot t id in
  (match t.death_hook with None -> () | Some f -> f id);
  (* Remove from the alive set first so regeneration cannot choose [id]. *)
  alive_remove t s;
  t.slot_of_id.(id - t.base) <- -1;
  birth_unlink t s;
  (* Drop this node's out-edges from its targets' in-edge lists. *)
  let row = s * t.d in
  for i = 0 to t.d - 1 do
    let target = t.out.(row + i) in
    if target >= 0 then begin
      let ts = slot_of t target in
      if ts >= 0 then ignore (Intvec.swap_remove_first t.in_edges.(ts) id)
    end
  done;
  (* Each surviving in-neighbor loses the slots that pointed here and, with
     regeneration, immediately re-samples them over the current alive set.
     In-neighbors are processed oldest-first (ascending id) so the mapping
     of PRNG draws to regenerated slots is a fixed, documented order — not
     an artifact of the in-edge container's internal layout.  The in-edge
     list is copied to scratch, sorted, and deduped (duplicates encode
     multiplicity) without allocating. *)
  let inv = t.in_edges.(s) in
  let k = Intvec.length inv in
  if k > 0 then begin
    if Array.length t.kill_srcs < k then begin
      let n = ref (Array.length t.kill_srcs) in
      while !n < k do
        n := 2 * !n
      done;
      t.kill_srcs <- Array.make !n 0;
      t.kill_cnts <- Array.make !n 0
    end;
    let srcs = t.kill_srcs and cnts = t.kill_cnts in
    for i = 0 to k - 1 do
      srcs.(i) <- Intvec.get inv i
    done;
    sort_range srcs 0 k;
    (* Duplicates are adjacent after the sort; fold each run into a count
       so the slot scan below can stop after that many matches instead of
       always walking all [d] slots (most in-neighbors point here once). *)
    let m = ref 0 in
    for i = 0 to k - 1 do
      if i = 0 || srcs.(i) <> srcs.(i - 1) then begin
        srcs.(!m) <- srcs.(i);
        cnts.(!m) <- 1;
        incr m
      end
      else cnts.(!m - 1) <- cnts.(!m - 1) + 1
    done;
    for i = 0 to !m - 1 do
      let src = srcs.(i) in
      let ss = slot_of t src in
      if ss >= 0 then begin
        let srow = ss * t.d in
        let remaining = ref cnts.(i) in
        let slot = ref 0 in
        while !remaining > 0 && !slot < t.d do
          if t.out.(srow + !slot) = id then begin
            decr remaining;
            t.out.(srow + !slot) <- -1;
            if t.regenerate then begin
              let fresh = random_alive_excluding t src in
              if fresh >= 0 then begin
                t.out.(srow + !slot) <- fresh;
                Intvec.push t.in_edges.(slot_of t fresh) src;
                fire_hook t ~src ~dst:fresh
              end
            end
          end;
          incr slot
        done
      end
    done
  end;
  (* Recycle the slot: clear everything so the next occupant starts
     pristine, then push it on the free list. *)
  t.id_of_slot.(s) <- -1;
  Array.fill t.out row t.d (-1);
  Intvec.clear t.in_edges.(s);
  Intvec.push t.free s

(* Apply a pre-drawn run of churn decisions in one arena pass.  The graph
   operations — and hence the draws they take from the graph PRNG — happen
   in batch order, exactly as the equivalent add_node/kill loop would make
   them, so the resulting arena (including its serialized bytes) is
   identical. *)
let churn_batch t ~decisions ~count ~birth0 =
  if count < 0 || count > Bytes.length decisions then
    invalid_arg "Dyngraph.churn_batch: count out of range";
  for i = 0 to count - 1 do
    if Bytes.get decisions i = '\000' then ignore (add_node t ~birth:(birth0 + i))
    else kill t (random_alive t)
  done

let iter_alive t f =
  for i = 0 to t.alive_len - 1 do
    f t.alive.(i)
  done

let alive_ids t = Array.sub t.alive 0 t.alive_len
let birth_of t id = t.birth_of_slot.(get_slot t id)

let out_targets t id =
  let s = get_slot t id in
  let row = s * t.d in
  let acc = ref [] in
  for i = t.d - 1 downto 0 do
    let target = t.out.(row + i) in
    if target >= 0 then acc := target :: !acc
  done;
  !acc

let out_slots_raw t id =
  let s = get_slot t id in
  Array.sub t.out (s * t.d) t.d

let out_slot t id slot =
  let s = get_slot t id in
  if slot < 0 || slot >= t.d then invalid_arg "Dyngraph.out_slot: slot out of range";
  t.out.((s * t.d) + slot)

let in_neighbors t id =
  let s = get_slot t id in
  let acc = ref [] in
  Intvec.iter (fun src -> acc := src :: !acc) t.in_edges.(s);
  List.sort_uniq Int.compare !acc

let neighbors t id =
  let s = get_slot t id in
  let acc = ref [] in
  let row = s * t.d in
  for i = 0 to t.d - 1 do
    let target = t.out.(row + i) in
    if target >= 0 then acc := target :: !acc
  done;
  Intvec.iter (fun src -> acc := src :: !acc) t.in_edges.(s);
  List.sort_uniq Int.compare !acc

(* Allocation-free neighborhood iteration for the simulation hot loops.
   Distinctness without a scratch set: an out-slot target is skipped when
   it is also an in-neighbor (the in-edge pass will visit it) or when an
   earlier slot already holds it; an in-edge entry is visited only at its
   first occurrence.  Both scans are O(k^2) with k of the order of d. *)
let iter_neighbors t id f =
  let s = get_slot t id in
  let row = s * t.d in
  let inv = t.in_edges.(s) in
  for i = 0 to t.d - 1 do
    let v = t.out.(row + i) in
    if v >= 0 && not (Intvec.mem inv v) then begin
      let dup = ref false in
      for j = 0 to i - 1 do
        if t.out.(row + j) = v then dup := true
      done;
      if not !dup then f v
    end
  done;
  let k = Intvec.length inv in
  for i = 0 to k - 1 do
    let src = Intvec.get inv i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if Intvec.get inv j = src then dup := true
    done;
    if not !dup then f src
  done

let iter_in_neighbors t id f =
  let s = get_slot t id in
  let inv = t.in_edges.(s) in
  let k = Intvec.length inv in
  for i = 0 to k - 1 do
    let src = Intvec.get inv i in
    let dup = ref false in
    for j = 0 to i - 1 do
      if Intvec.get inv j = src then dup := true
    done;
    if not !dup then f src
  done

let degree t id =
  let count = ref 0 in
  iter_neighbors t id (fun _ -> incr count);
  !count

let out_degree t id =
  let s = get_slot t id in
  let row = s * t.d in
  let count = ref 0 in
  for i = 0 to t.d - 1 do
    if t.out.(row + i) >= 0 then incr count
  done;
  !count

let edge_count t =
  let total = ref 0 in
  iter_alive t (fun id -> total := !total + out_degree t id);
  !total

let oldest_alive t = if t.oldest_slot < 0 then None else Some t.id_of_slot.(t.oldest_slot)

let newest_alive t =
  if t.youngest_slot < 0 then None else Some t.id_of_slot.(t.youngest_slot)

(* Snapshot straight from the arena into CSR form: one growable flat
   buffer, rows gathered per node then sorted + deduped in place.  The
   id -> index translation is an O(1) slot-indexed lookup, not a search. *)
let snapshot t =
  let n = t.alive_len in
  let ids = alive_ids t in
  Array.sort Int.compare ids;
  let births = Array.make n 0 in
  let out_deg = Array.make n 0 in
  let index_of_slot = Array.make (max 1 t.used) (-1) in
  for i = 0 to n - 1 do
    let s = slot_of t ids.(i) in
    index_of_slot.(s) <- i;
    births.(i) <- t.birth_of_slot.(s)
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
    let start = !len in
    let row = s * t.d in
    let odeg = ref 0 in
    for k = 0 to t.d - 1 do
      let target = t.out.(row + k) in
      if target >= 0 then begin
        incr odeg;
        push index_of_slot.(slot_of t target)
      end
    done;
    out_deg.(i) <- !odeg;
    Intvec.iter (fun src -> push index_of_slot.(slot_of t src)) t.in_edges.(s);
    let b = !buf in
    sort_range b start (!len - start);
    let w = ref start in
    for r = start to !len - 1 do
      if r = start || b.(r) <> b.(r - 1) then begin
        b.(!w) <- b.(r);
        incr w
      end
    done;
    len := !w;
    offsets.(i + 1) <- !len
  done;
  Snapshot.of_csr ~ids ~births ~offsets ~adj:(Array.sub !buf 0 !len) ~out_deg

let check_invariants t =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* alive array, alive_pos and the id map agree *)
  for i = 0 to t.alive_len - 1 do
    let id = t.alive.(i) in
    let s = slot_of t id in
    if s < 0 then fail "alive node %d not mapped to a slot" id
    else begin
      if t.alive_pos.(s) <> i then fail "alive index mismatch for node %d" id;
      if t.id_of_slot.(s) <> id then fail "slot %d does not map back to node %d" s id
    end
  done;
  let mapped = ref 0 in
  Array.iter (fun s -> if s >= 0 then incr mapped) t.slot_of_id;
  if !mapped <> t.alive_len then fail "alive index size mismatch";
  (* used slots partition into alive slots and the free list *)
  if Intvec.length t.free + t.alive_len <> t.used then fail "slot accounting mismatch";
  Intvec.iter
    (fun s ->
      if t.id_of_slot.(s) >= 0 then fail "free slot %d still mapped" s;
      if t.alive_pos.(s) >= 0 then fail "free slot %d still in alive array" s;
      if Intvec.length t.in_edges.(s) <> 0 then fail "free slot %d keeps in-edges" s;
      for i = 0 to t.d - 1 do
        if t.out.((s * t.d) + i) >= 0 then fail "free slot %d keeps out-edges" s
      done)
    t.free;
  (* birth-order list covers exactly the alive slots, ids ascending *)
  let steps = ref 0 in
  let prev_id = ref (-1) in
  let cursor = ref t.oldest_slot in
  let broken = ref false in
  while !cursor >= 0 && not !broken do
    let s = !cursor in
    let id = t.id_of_slot.(s) in
    if id < 0 then begin
      fail "birth list visits free slot %d" s;
      broken := true
    end
    else begin
      if id <= !prev_id then fail "birth list not ascending at node %d" id;
      prev_id := id;
      let nx = t.next_slot.(s) in
      if nx >= 0 && t.prev_slot.(nx) <> s then fail "birth list links broken at slot %d" s;
      incr steps;
      if !steps > t.alive_len then begin
        fail "birth list longer than the alive set";
        broken := true
      end;
      cursor := nx
    end
  done;
  if (not !broken) && !steps <> t.alive_len then fail "birth list length mismatch";
  if t.alive_len > 0 && t.youngest_slot >= 0 && t.next_slot.(t.youngest_slot) >= 0 then
    fail "youngest slot has a successor";
  (* slot / in-edge symmetry, counted in both directions *)
  let count_row s v =
    let row = s * t.d in
    let c = ref 0 in
    for i = 0 to t.d - 1 do
      if t.out.(row + i) = v then incr c
    done;
    !c
  in
  let count_in s v =
    let c = ref 0 in
    Intvec.iter (fun x -> if x = v then incr c) t.in_edges.(s);
    !c
  in
  iter_alive t (fun id ->
      let s = slot_of t id in
      (* an unmapped alive node was reported above *)
      if s >= 0 then begin
        let row = s * t.d in
        for i = 0 to t.d - 1 do
          let target = t.out.(row + i) in
          if target >= 0 then begin
            if target = id then fail "self-loop at node %d" id;
            let ts = slot_of t target in
            if ts < 0 then fail "node %d has slot to dead node %d" id target
            else if count_in ts id <> count_row s target then
              fail "multiplicity mismatch %d->%d: slots %d, recorded %d" id target
                (count_row s target) (count_in ts id)
          end
        done;
        Intvec.iter
          (fun src ->
            let ss = slot_of t src in
            if ss < 0 then fail "in-edge from dead node %d at %d" src id
            else if count_row ss id <> count_in s src then
              fail "multiplicity mismatch %d->%d: slots %d, recorded %d" src id
                (count_row ss id) (count_in s src))
          t.in_edges.(s)
      end);
  match !err with None -> Ok () | Some e -> Error e

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)
(* ------------------------------------------------------------------ *)

module Codec = Churnet_util.Codec

(* Everything observable is serialized verbatim: besides the obvious
   topology, the free list's LIFO order decides which slot the next
   birth recycles, the dense alive array's order is what random_alive
   indexes into, and the id-window base shifts nothing observable but is
   kept so a decode/encode cycle is byte-identical.  Deliberately NOT
   serialized: the three hooks (observers re-attach after resume) and
   the kill_srcs scratch buffer (rebuilt empty). *)
let encode w t =
  Codec.varint w t.d;
  Codec.bool w t.regenerate;
  Prng.encode w t.rng;
  Codec.varint w t.cap;
  Codec.varint w t.used;
  Intvec.encode w t.free;
  let prefix a = for s = 0 to t.used - 1 do Codec.varint w a.(s) done in
  prefix t.id_of_slot;
  prefix t.birth_of_slot;
  prefix t.alive_pos;
  prefix t.prev_slot;
  prefix t.next_slot;
  for i = 0 to (t.used * t.d) - 1 do
    Codec.varint w t.out.(i)
  done;
  for s = 0 to t.used - 1 do
    Intvec.encode w t.in_edges.(s)
  done;
  Codec.varint w t.oldest_slot;
  Codec.varint w t.youngest_slot;
  Codec.varint w t.base;
  Codec.varint w (Array.length t.slot_of_id);
  let window = max 0 (t.next_id - t.base) in
  Codec.varint w window;
  for i = 0 to window - 1 do
    Codec.varint w t.slot_of_id.(i)
  done;
  Codec.varint w t.alive_len;
  for i = 0 to t.alive_len - 1 do
    Codec.varint w t.alive.(i)
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
  (* [cap] starts at [initial_cap] and doubles only once every slot is used *)
  if
    used < 0
    || used > Codec.remaining r
    || cap < initial_cap
    || cap > max initial_cap (2 * used)
    || d > Sys.max_array_length / cap
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
  let in_edges = Array.init used (fun _ -> Intvec.decode r) in
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
  Array.iter (Intvec.iter (check "in-edge source" 0 next_id)) in_edges;
  check "oldest slot" (-1) used oldest_slot;
  check "youngest slot" (-1) used youngest_slot;
  Array.iter (check "id-window slot" (-1) used) slot_of_id;
  Array.iter (check "alive id" base next_id) alive;
  let id_of_slot = extend id_of_slot cap (-1) in
  let birth_of_slot = extend birth_of_slot cap 0 in
  let alive_pos = extend alive_pos cap (-1) in
  let prev_slot = extend prev_slot cap (-1) in
  let next_slot = extend next_slot cap (-1) in
  let out = extend out (cap * d) (-1) in
  let in_edges =
    Array.init cap (fun s ->
        if s < used then in_edges.(s) else Intvec.create ~capacity:4 ())
  in
  let slot_of_id = extend slot_of_id window_len (-1) in
  let alive = extend alive (max 1024 alive_len) (-1) in
  let t =
    {
      d;
      regenerate;
      rng;
      cap;
      used;
      free;
      id_of_slot;
      birth_of_slot;
      out;
      in_edges;
      alive_pos;
      prev_slot;
      next_slot;
      oldest_slot;
      youngest_slot;
      base;
      slot_of_id;
      alive;
      alive_len;
      next_id;
      kill_srcs = Array.make 16 0;
      kill_cnts = Array.make 16 0;
      edge_hook = None;
      death_hook = None;
      birth_hook = None;
    }
  in
  (* The CRC catches corruption; this catches a structurally valid file
     whose fields contradict each other (schema drift, hand editing). *)
  (match check_invariants t with
  | Ok () -> ()
  | Error e -> fail ("invariant violation after decode: " ^ e));
  t
