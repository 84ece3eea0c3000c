(* Chained hashing on int arrays, laid out as Stdlib.Hashtbl lays out its
   bucket lists:

     heads.(b)   first cell of bucket b's chain, -1 = empty; only the
                 first [buckets] entries are live (the array keeps its
                 largest length across [reset])
     keys.(c)    key held in cell c
     next.(c)    next cell of c's chain, -1 = end of chain; for a free
                 cell, the next free cell

   Free cells form a stack threaded through [next] from [free]; cells
   at or above [used] have never been handed out.  Which cell holds a
   key never shows: only the chain links decide the order. *)
type t = {
  initial : int;
  mutable buckets : int;
  mutable heads : int array;
  mutable keys : int array;
  mutable next : int array;
  mutable free : int;
  mutable used : int;
  mutable size : int;
}

let create n =
  let buckets = ref 16 in
  while !buckets < n do
    buckets := 2 * !buckets
  done;
  {
    initial = !buckets;
    buckets = !buckets;
    heads = Array.make !buckets (-1);
    keys = Array.make !buckets 0;
    next = Array.make !buckets (-1);
    free = -1;
    used = 0;
    size = 0;
  }

let length t = t.size

(* [Hashtbl.hash] is the unseeded [seeded_hash_param 10 100 0], the
   index function of a table made without [~random:true]. *)
let[@inline] bucket t key = Hashtbl.hash key land (t.buckets - 1)

(* The cell holding [key] in bucket [b], or -1. *)
let find t b key =
  let c = ref t.heads.(b) in
  while !c >= 0 && t.keys.(!c) <> key do
    c := t.next.(!c)
  done;
  !c

let mem t key = find t (bucket t key) key >= 0

let alloc_cell t =
  if t.free >= 0 then begin
    let c = t.free in
    t.free <- t.next.(c);
    c
  end
  else begin
    if t.used = Array.length t.keys then begin
      let cap = 2 * t.used in
      let keys = Array.make cap 0 and next = Array.make cap (-1) in
      Array.blit t.keys 0 keys 0 t.used;
      Array.blit t.next 0 next 0 t.used;
      t.keys <- keys;
      t.next <- next
    end;
    t.used <- t.used + 1;
    t.used - 1
  end

(* Double the buckets.  A key of old bucket b lands in b or b + old, so
   each chain splits in two in place, both halves in the chain's order:
   the stdlib's resize, which appends every cell to the tail of its new
   bucket while it walks the old buckets in order, builds the same
   chains. *)
let grow t =
  let old = t.buckets in
  t.buckets <- 2 * old;
  if Array.length t.heads < t.buckets then begin
    let heads = Array.make t.buckets (-1) in
    Array.blit t.heads 0 heads 0 old;
    t.heads <- heads
  end;
  for b = 0 to old - 1 do
    let c = ref t.heads.(b) and lo_tail = ref (-1) and hi_tail = ref (-1) in
    t.heads.(b) <- -1;
    t.heads.(b + old) <- -1;
    while !c >= 0 do
      let cell = !c in
      c := t.next.(cell);
      t.next.(cell) <- -1;
      if bucket t t.keys.(cell) = b then begin
        if !lo_tail < 0 then t.heads.(b) <- cell else t.next.(!lo_tail) <- cell;
        lo_tail := cell
      end
      else begin
        if !hi_tail < 0 then t.heads.(b + old) <- cell else t.next.(!hi_tail) <- cell;
        hi_tail := cell
      end
    done
  done

let add t key =
  let b = bucket t key in
  if find t b key < 0 then begin
    let c = alloc_cell t in
    t.keys.(c) <- key;
    t.next.(c) <- t.heads.(b);
    t.heads.(b) <- c;
    t.size <- t.size + 1;
    if t.size > 2 * t.buckets then grow t
  end

let remove t key =
  let b = bucket t key in
  let prev = ref (-1) and c = ref t.heads.(b) in
  while !c >= 0 && t.keys.(!c) <> key do
    prev := !c;
    c := t.next.(!c)
  done;
  if !c >= 0 then begin
    let cell = !c in
    if !prev < 0 then t.heads.(b) <- t.next.(cell) else t.next.(!prev) <- t.next.(cell);
    t.next.(cell) <- t.free;
    t.free <- cell;
    t.size <- t.size - 1
  end

let reset t =
  t.buckets <- t.initial;
  Array.fill t.heads 0 t.initial (-1);
  t.free <- -1;
  t.used <- 0;
  t.size <- 0

let iter f t =
  for b = 0 to t.buckets - 1 do
    let c = ref t.heads.(b) in
    while !c >= 0 do
      f t.keys.(!c);
      c := t.next.(!c)
    done
  done

let to_intvec t v =
  Intvec.clear v;
  for b = 0 to t.buckets - 1 do
    let c = ref t.heads.(b) in
    while !c >= 0 do
      Intvec.push v t.keys.(!c);
      c := t.next.(!c)
    done
  done
