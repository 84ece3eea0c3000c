type t = { mutable words : Bytes.t; mutable capacity : int; mutable cardinal : int }

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { words = Bytes.make ((capacity + 7) / 8) '\000'; capacity; cardinal = 0 }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let ensure_capacity t capacity =
  if capacity < 0 then invalid_arg "Bitset.ensure_capacity"
  else if capacity > t.capacity then begin
    (* Amortized doubling so hot loops that grow one id at a time stay O(1). *)
    let capacity = max capacity (2 * t.capacity) in
    let words = Bytes.make ((capacity + 7) / 8) '\000' in
    Bytes.blit t.words 0 words 0 (Bytes.length t.words);
    t.words <- words;
    t.capacity <- capacity
  end

let mem t i =
  check t i;
  Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let byte = Char.code (Bytes.get t.words (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask = 0 then begin
    Bytes.set t.words (i lsr 3) (Char.chr (byte lor mask));
    t.cardinal <- t.cardinal + 1
  end

let remove t i =
  check t i;
  let byte = Char.code (Bytes.get t.words (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask <> 0 then begin
    Bytes.set t.words (i lsr 3) (Char.chr (byte land lnot mask));
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let clear t =
  Bytes.fill t.words 0 (Bytes.length t.words) '\000';
  t.cardinal <- 0

(* Index of the lowest set bit per byte value; entry 0 is never read. *)
let ctz8 =
  let a = Array.make 256 0 in
  for v = 1 to 255 do
    let i = ref 0 in
    while v land (1 lsl !i) = 0 do
      incr i
    done;
    a.(v) <- !i
  done;
  a

(* Drain the set bits of one byte, lowest first: a table lookup per set
   bit and a clear-lowest-bit trick, so cost scales with the population
   of the byte rather than 8 mask tests.  The byte value is a snapshot,
   which is what lets [f] remove the element it was just handed. *)
let[@inline] visit_byte f base byte =
  let m = ref byte in
  while !m <> 0 do
    f (base lor Array.unsafe_get ctz8 !m);
    m := !m land (!m - 1)
  done

let iter f t =
  (* Scan 8-byte words and skip all-zero ones with a single load: the
     dominant case when the set is sparse in a large id space (e.g. the
     informed set early in a flood).  Only nonzero words descend to their
     bytes, and only nonzero bytes pay per-bit work. *)
  let words = t.words in
  let nbytes = Bytes.length words in
  let full = nbytes land lnot 7 in
  let b = ref 0 in
  while !b < full do
    if Int64.equal (Bytes.get_int64_le words !b) 0L then b := !b + 8
    else begin
      let stop = !b + 8 in
      while !b < stop do
        visit_byte f (!b lsl 3) (Char.code (Bytes.unsafe_get words !b));
        incr b
      done
    end
  done;
  while !b < nbytes do
    visit_byte f (!b lsl 3) (Char.code (Bytes.unsafe_get words !b));
    incr b
  done

let iter_words f t =
  let words = t.words in
  let nbytes = Bytes.length words in
  let full = nbytes land lnot 7 in
  let b = ref 0 in
  while !b < full do
    f (!b lsl 3) (Bytes.get_int64_le words !b);
    b := !b + 8
  done;
  if !b < nbytes then begin
    (* Tail word (capacity not a multiple of 64): assemble the remaining
       bytes little-endian and zero-pad the rest. *)
    let w = ref 0L in
    for i = nbytes - 1 downto !b do
      w := Int64.logor (Int64.shift_left !w 8)
             (Int64.of_int (Char.code (Bytes.unsafe_get words i)))
    done;
    f (!b lsl 3) !w
  end
