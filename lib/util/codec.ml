(* Dependency-free versioned binary codec for checkpoint files.

   Framing: the schema magic line, an 8-byte little-endian payload
   length, the payload, and a CRC-32 of the payload.  Readers validate
   all three before any field is decoded, so a truncated or corrupted
   checkpoint (the expected failure mode of a SIGKILLed writer) is
   detected up front instead of surfacing as a garbled decode. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents (w : writer) = Buffer.contents w

type reader = { data : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit data =
  let limit = match limit with Some l -> l | None -> String.length data in
  if pos < 0 || limit > String.length data || pos > limit then
    fail "Codec.reader: bounds [%d, %d) outside data of length %d" pos limit
      (String.length data);
  { data; pos; limit }

let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit

let expect_end r =
  if not (at_end r) then fail "Codec: %d trailing bytes after decode" (remaining r)

let need r n =
  if remaining r < n then
    fail "Codec: truncated input (need %d bytes, have %d)" n (remaining r)

(* --- primitives --- *)

let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

let read_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

(* Zigzag + LEB128: small magnitudes (the common case for counts and
   ids) take one byte; the full native int range round-trips. *)
let varint w v =
  let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
  let rec go z =
    if z land lnot 0x7f = 0 then u8 w z
    else begin
      u8 w (0x80 lor (z land 0x7f));
      go (z lsr 7)
    end
  in
  go z

let read_varint r =
  let rec go shift acc =
    if shift >= Sys.int_size then fail "Codec: varint overflow";
    let b = read_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

let i64 w v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Buffer.add_bytes w b

let read_i64 r =
  need r 8;
  let v = Bytes.get_int64_le (Bytes.unsafe_of_string r.data) r.pos in
  r.pos <- r.pos + 8;
  v

let f64 w v = i64 w (Int64.bits_of_float v)
let read_f64 r = Int64.float_of_bits (read_i64 r)

let bool w v = u8 w (if v then 1 else 0)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | b -> fail "Codec: invalid bool byte %d" b

let string w s =
  varint w (String.length s);
  Buffer.add_string w s

let read_string r =
  let len = read_varint r in
  if len < 0 then fail "Codec: negative string length %d" len;
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let option enc w = function
  | None -> bool w false
  | Some v ->
      bool w true;
      enc w v

let read_option dec r = if read_bool r then Some (dec r) else None

let array enc w a =
  varint w (Array.length a);
  Array.iter (fun v -> enc w v) a

let read_array dec r =
  let len = read_varint r in
  if len < 0 then fail "Codec: negative array length %d" len;
  (* Guard against absurd lengths from corrupted input before allocating. *)
  if len > remaining r then fail "Codec: array length %d exceeds input" len;
  Array.init len (fun _ -> dec r)

let int_array w a = array varint w a
let read_int_array r = read_array read_varint r

(* --- CRC-32 (IEEE 802.3, reflected), table-driven --- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* --- framing --- *)

let schema = "churnet-ckpt/1"

let frame ~schema:tag fill =
  let w = writer () in
  fill w;
  let payload = contents w in
  let out = Buffer.create (String.length payload + String.length tag + 16) in
  Buffer.add_string out tag;
  Buffer.add_char out '\n';
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (String.length payload));
  Buffer.add_bytes out b;
  Buffer.add_string out payload;
  Bytes.set_int64_le b 0 (Int64.of_int (crc32 payload));
  Buffer.add_subbytes out b 0 4;
  Buffer.contents out

let unframe ~schema:tag data =
  let magic = tag ^ "\n" in
  let mlen = String.length magic in
  if String.length data < mlen || String.sub data 0 mlen <> magic then
    fail "Codec: bad magic (expected %S)" tag;
  if String.length data < mlen + 8 then fail "Codec: truncated header";
  (* Range-check the 64-bit length before narrowing it: [Int64.to_int]
     drops bit 63, so a frame with that bit flipped would otherwise pass
     for intact. *)
  let declared = Bytes.get_int64_le (Bytes.unsafe_of_string data) mlen in
  if declared < 0L || declared > Int64.of_int (String.length data) then
    fail "Codec: truncated payload (declared %Ld bytes)" declared;
  let payload_len = Int64.to_int declared in
  if String.length data < mlen + 8 + payload_len + 4 then
    fail "Codec: truncated payload (declared %d bytes)" payload_len;
  if String.length data > mlen + 8 + payload_len + 4 then
    fail "Codec: %d trailing bytes after the frame"
      (String.length data - (mlen + 8 + payload_len + 4));
  let payload_start = mlen + 8 in
  let payload = String.sub data payload_start payload_len in
  let stored =
    Int64.to_int
      (Int64.logand
         (Int64.of_int32
            (Bytes.get_int32_le (Bytes.unsafe_of_string data)
               (payload_start + payload_len)))
         0xffffffffL)
  in
  let actual = crc32 payload in
  if stored <> actual then
    fail "Codec: checksum mismatch (stored %08x, computed %08x)" stored actual;
  reader payload

(* --- files --- *)

let read_file ~schema:tag path =
  let ic =
    try open_in_bin path
    with Sys_error e -> fail "Codec: cannot open %s: %s" path e
  in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  unframe ~schema:tag data

(* Atomic + durable write: the bytes land in a sibling temp file first
   and the final name appears only via rename, so a crash mid-write can
   never leave a half-written checkpoint under the real path.  The temp
   file is fsynced before the rename — otherwise a power loss could make
   the rename durable while the data is not, leaving a truncated file
   under the real path, exactly the torn state the rename is meant to
   rule out.  A failed write unlinks the temp file instead of leaking
   it, and the temp name carries a pid + per-process counter suffix so
   concurrent writers (sweep worker domains, parallel processes)
   checkpointing the same path never clobber each other's staging
   bytes. *)
let tmp_seq = Atomic.make 0

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

let write_file ~schema:tag path fill =
  let data = frame ~schema:tag fill in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc =
    try open_out_bin tmp
    with Sys_error e -> fail "Codec: cannot write %s: %s" tmp e
  in
  (try
     output_string oc data;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | Sys_error e ->
      close_out_noerr oc;
      remove_noerr tmp;
      fail "Codec: cannot write %s: %s" tmp e
  | Unix.Unix_error (err, _, _) ->
      close_out_noerr oc;
      remove_noerr tmp;
      fail "Codec: cannot sync %s: %s" tmp (Unix.error_message err));
  close_out_noerr oc;
  try Sys.rename tmp path
  with Sys_error e ->
    remove_noerr tmp;
    fail "Codec: cannot rename %s to %s: %s" tmp path e
