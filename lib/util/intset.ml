(* Chained hashing on int arrays, laid out as Stdlib.Hashtbl lays out its
   bucket lists:

     heads.(b)   first cell of bucket b's chain, -1 = empty; only the
                 first [buckets] entries are live (the array keeps its
                 largest length across [reset])
     keys.(c)    key held in cell c
     next.(c)    next cell of c's chain, -1 = end of chain; for a free
                 cell, the next free cell

     filled      one bit per bucket, 32 buckets a word: bit b is set
                 exactly when bucket b's chain is non-empty, so a pass
                 skips the empty buckets a word at a time

   Free cells form a stack threaded through [next] from [free]; cells
   at or above [used] have never been handed out.  Which cell holds a
   key never shows: only the chain links decide the order. *)
type t = {
  initial : int;
  mutable buckets : int;
  mutable heads : int array;
  mutable keys : int array;
  mutable next : int array;
  mutable filled : int array;
  mutable free : int;
  mutable used : int;
  mutable size : int;
}

(* Bitmap words covering [buckets] buckets. *)
let words buckets = (buckets + 31) lsr 5

let[@inline] mark t b = t.filled.(b lsr 5) <- t.filled.(b lsr 5) lor (1 lsl (b land 31))
let[@inline] unmark t b = t.filled.(b lsr 5) <- t.filled.(b lsr 5) land lnot (1 lsl (b land 31))

(* Index of the one set bit of [bit], a power of two below 2^32: the
   de Bruijn multiply-and-lookup.  The table is a string literal, a
   static constant: an array literal would be allocated when the module
   is initialized, in every program that links it. *)
let de_bruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] bit_index bit = Char.code de_bruijn.[((bit * 0x077CB531) land 0xFFFF_FFFF) lsr 27]

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
    filled = Array.make (words !buckets) 0;
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
  if Array.length t.filled < words t.buckets then begin
    let filled = Array.make (words t.buckets) 0 in
    Array.blit t.filled 0 filled 0 (Array.length t.filled);
    t.filled <- filled
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
    done;
    if t.heads.(b) < 0 then unmark t b;
    if t.heads.(b + old) < 0 then unmark t (b + old) else mark t (b + old)
  done

let add t key =
  let b = bucket t key in
  if find t b key < 0 then begin
    let c = alloc_cell t in
    t.keys.(c) <- key;
    t.next.(c) <- t.heads.(b);
    t.heads.(b) <- c;
    mark t b;
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
    if !prev < 0 then begin
      t.heads.(b) <- t.next.(cell);
      if t.heads.(b) < 0 then unmark t b
    end
    else t.next.(!prev) <- t.next.(cell);
    t.next.(cell) <- t.free;
    t.free <- cell;
    t.size <- t.size - 1
  end

let reset t =
  t.buckets <- t.initial;
  Array.fill t.heads 0 t.initial (-1);
  Array.fill t.filled 0 (words t.initial) 0;
  t.free <- -1;
  t.used <- 0;
  t.size <- 0

(* The non-empty buckets in ascending order, each chain from its head:
   the bitmap word by word, lowest set bit first. *)
let iter f t =
  for w = 0 to words t.buckets - 1 do
    let bits = ref t.filled.(w) in
    while !bits <> 0 do
      let low = !bits land (- !bits) in
      bits := !bits lxor low;
      let c = ref t.heads.((w lsl 5) + bit_index low) in
      while !c >= 0 do
        f t.keys.(!c);
        c := t.next.(!c)
      done
    done
  done

(* [iter]'s loop with the push inlined, so a pass makes no closure. *)
let to_intvec t v =
  Intvec.clear v;
  for w = 0 to words t.buckets - 1 do
    let bits = ref t.filled.(w) in
    while !bits <> 0 do
      let low = !bits land (- !bits) in
      bits := !bits lxor low;
      let c = ref t.heads.((w lsl 5) + bit_index low) in
      while !c >= 0 do
        Intvec.push v t.keys.(!c);
        c := t.next.(!c)
      done
    done
  done
