type t = { mutable buf : int array; mutable len : int }

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Intvec.create";
  { buf = Array.make capacity 0; len = 0 }

let length t = t.len
let clear t = t.len <- 0

let push t v =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intvec.get";
  t.buf.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Intvec.set";
  t.buf.(i) <- v

let pop t =
  if t.len = 0 then invalid_arg "Intvec.pop: empty";
  t.len <- t.len - 1;
  t.buf.(t.len)

(* Sort ascending and drop duplicates, in place: an insertion sort, since
   the callers' vectors hold a neighbourhood of size O(d). *)
let sort_uniq t =
  let a = t.buf in
  for i = 1 to t.len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  if t.len > 1 then begin
    let m = ref 1 in
    for i = 1 to t.len - 1 do
      if a.(i) <> a.(!m - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    t.len <- !m
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

(* Checkpoint support: only the live prefix is state; capacity is a
   performance detail the decoder re-derives. *)
let encode w t = Codec.int_array w (Array.sub t.buf 0 t.len)

let decode r =
  let a = Codec.read_int_array r in
  let len = Array.length a in
  { buf = (if len = 0 then Array.make 16 0 else a); len }
