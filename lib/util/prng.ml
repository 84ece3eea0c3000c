(* The four xoshiro256** words s0..s3, little-endian at byte offsets
   0, 8, 16, 24.  A record of [mutable int64] fields would box the word on
   every store (this build has no flambda); [Bytes.get_int64_le] and
   [Bytes.set_int64_le] move them unboxed, so a draw that returns an
   immediate allocates nothing. *)
type t = Bytes.t

(* SplitMix64 step, used only for seeding so that nearby seeds yield
   unrelated xoshiro states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64 state)
  done;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  Every draw below inlines it, so the state
   words and the result stay in registers; only [bits64] hands a boxed
   [int64] across the module boundary. *)
let[@inline] next t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 in
  let s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 in
  let s3 = Bytes.get_int64_le t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 (logxor s2 tmp);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let bits64 t = next t
let split t = create (Int64.to_int (next t))
let copy = Bytes.copy

(* The top 62 bits of a draw: what fits a native int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let r = ref (bits62 t) in
  let v = ref (!r mod bound) in
  while !r - !v > max_int - bound + 1 do
    r := bits62 t;
    v := !r mod bound
  done;
  !v

(* [len] successive [int t bound] draws into [a.(pos) ..], with the
   state words in locals for the whole run: one load and one store of
   the state per call instead of per draw.  The step and the rejection
   rule are [next] and [int]'s, so the values and the final state are
   theirs.  The int64 refs never escape, so they stay unboxed. *)
let fill_int t bound a pos len =
  if bound <= 0 then invalid_arg "Prng.fill_int: bound must be positive";
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Prng.fill_int: range out of bounds";
  let limit = max_int - bound + 1 in
  let open Int64 in
  let s0 = ref (Bytes.get_int64_le t 0) in
  let s1 = ref (Bytes.get_int64_le t 8) in
  let s2 = ref (Bytes.get_int64_le t 16) in
  let s3 = ref (Bytes.get_int64_le t 24) in
  for i = pos to pos + len - 1 do
    let v = ref 0 and again = ref true in
    while !again do
      let result = mul (rotl (mul !s1 5L) 7) 9L in
      let tmp = shift_left !s1 17 in
      s2 := logxor !s2 !s0;
      s3 := logxor !s3 !s1;
      s1 := logxor !s1 !s2;
      s0 := logxor !s0 !s3;
      s2 := logxor !s2 tmp;
      s3 := rotl !s3 45;
      let r = to_int (shift_right_logical result 2) in
      v := r mod bound;
      again := r - !v > limit
    done;
    Array.unsafe_set a i !v
  done;
  Bytes.set_int64_le t 0 !s0;
  Bytes.set_int64_le t 8 !s1;
  Bytes.set_int64_le t 16 !s2;
  Bytes.set_int64_le t 24 !s3

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 random bits scaled to [0,1). *)
let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

(* The store into a [float array] is unboxed, so unlike [unit_float]
   this hands its draw across the module boundary without a box. *)
let unit_float_into t a i = a.(i) <- unit_float t

let bool t = Int64.to_int (next t) land 1 = 1
let bernoulli t p = unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  if k * 3 >= n then begin
    (* Dense case: partial Fisher-Yates on the full range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse case: rejection into a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

(* Checkpoint support: the full state is the four xoshiro words, written
   s0..s3 as fixed 8-byte little-endian fields. *)
let encode w t =
  for i = 0 to 3 do
    Codec.i64 w (Bytes.get_int64_le t (8 * i))
  done

let decode r =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (Codec.read_i64 r)
  done;
  t
