(* Tests for the checkpoint codec: primitive round-trips, frame
   integrity (schema, length, CRC), and a state round-trip for every
   serialized module — PRNG, Intvec, Bitset, the graph arena (including
   a populated free list and a slid id window), the Poisson churn clock,
   both models, and the in-flight Flood and Onion states — plus decode
   totality: damaged model bytes decode or raise [Codec.Error].

   The strongest check used throughout is re-encode byte equality:
   [decode] then [encode] must reproduce the exact bytes, so nothing is
   lost or renormalized in either direction. *)

open Churnet_util
module Dyngraph = Churnet_graph.Dyngraph
module Streaming_model = Churnet_core.Streaming_model
module Poisson_model = Churnet_core.Poisson_model
module Models = Churnet_core.Models
module Flood = Churnet_core.Flood
module Onion = Churnet_core.Onion
module Poisson_churn = Churnet_churn.Poisson_churn

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let encode_bytes enc v =
  let w = Codec.writer () in
  enc w v;
  Codec.contents w

let roundtrip enc dec v =
  let r = Codec.reader (encode_bytes enc v) in
  let v' = dec r in
  Codec.expect_end r;
  v'

(* --- primitives --- *)

let test_varint_roundtrip () =
  List.iter
    (fun v -> check_int (string_of_int v) v (roundtrip Codec.varint Codec.read_varint v))
    [ 0; 1; -1; 63; 64; -64; -65; 127; 128; 12345; -98765; max_int; min_int ]

let test_i64_f64_bool () =
  check_bool "i64" true
    (Int64.equal 0x1234_5678_9abc_def0L
       (roundtrip Codec.i64 Codec.read_i64 0x1234_5678_9abc_def0L));
  check_bool "i64 negative" true
    (Int64.equal Int64.min_int (roundtrip Codec.i64 Codec.read_i64 Int64.min_int));
  check_bool "f64 pi" true (roundtrip Codec.f64 Codec.read_f64 Float.pi = Float.pi);
  check_bool "f64 neg zero keeps sign" true
    (1. /. roundtrip Codec.f64 Codec.read_f64 (-0.) = Float.neg_infinity);
  check_bool "f64 nan stays nan" true
    (Float.is_nan (roundtrip Codec.f64 Codec.read_f64 Float.nan));
  check_bool "bool true" true (roundtrip Codec.bool Codec.read_bool true);
  check_bool "bool false" false (roundtrip Codec.bool Codec.read_bool false)

let test_string_option_containers () =
  check_string "string" "hello \x00 world"
    (roundtrip Codec.string Codec.read_string "hello \x00 world");
  check_string "empty string" "" (roundtrip Codec.string Codec.read_string "");
  check_bool "option none" true
    (roundtrip (Codec.option Codec.varint) (Codec.read_option Codec.read_varint) None
    = None);
  check_bool "option some" true
    (roundtrip (Codec.option Codec.varint) (Codec.read_option Codec.read_varint)
       (Some (-7))
    = Some (-7));
  check_bool "int_array" true
    (roundtrip Codec.int_array Codec.read_int_array [| 3; -1; 4; 1; 5; max_int |]
    = [| 3; -1; 4; 1; 5; max_int |]);
  check_bool "int_array empty" true
    (roundtrip Codec.int_array Codec.read_int_array [||] = [||]);
  check_bool "int_list order" true
    (roundtrip Codec.int_list Codec.read_int_list [ 9; 8; 7; -6 ] = [ 9; 8; 7; -6 ]);
  check_bool "nested array of arrays" true
    (roundtrip (Codec.array Codec.int_array)
       (Codec.read_array Codec.read_int_array)
       [| [| 1 |]; [||]; [| 2; 3 |] |]
    = [| [| 1 |]; [||]; [| 2; 3 |] |])

let test_crc32_check_value () =
  (* The standard CRC-32 check value over "123456789". *)
  check_int "crc32" 0xCBF43926 (Codec.crc32 "123456789")

(* --- framing --- *)

let frame_payload () = Codec.frame ~schema:Codec.schema (fun w -> Codec.varint w 4242)

let test_frame_roundtrip () =
  let data = frame_payload () in
  let r = Codec.unframe ~schema:Codec.schema data in
  check_int "payload" 4242 (Codec.read_varint r);
  Codec.expect_end r

let expect_codec_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Codec.Error" name
  | exception Codec.Error _ -> ()

let test_frame_rejects_corruption () =
  let data = frame_payload () in
  (* Flip one payload byte: CRC must catch it. *)
  let corrupt = Bytes.of_string data in
  let last = Bytes.length corrupt - 5 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0xff));
  expect_codec_error "bit flip" (fun () ->
      Codec.unframe ~schema:Codec.schema (Bytes.to_string corrupt));
  (* Truncation. *)
  expect_codec_error "truncated" (fun () ->
      Codec.unframe ~schema:Codec.schema (String.sub data 0 (String.length data - 3)));
  (* Wrong schema line. *)
  expect_codec_error "wrong schema" (fun () ->
      Codec.unframe ~schema:"churnet-ckpt/999" data);
  (* Trailing garbage after the CRC. *)
  expect_codec_error "trailing bytes" (fun () ->
      Codec.unframe ~schema:Codec.schema (data ^ "x"))

(* --- Prng --- *)

let test_prng_roundtrip () =
  let rng = Prng.create 99 in
  for _ = 1 to 17 do
    ignore (Prng.int rng 1000)
  done;
  let rng' = roundtrip Prng.encode Prng.decode rng in
  for i = 1 to 50 do
    check_int (Printf.sprintf "draw %d" i) (Prng.int rng 1_000_000)
      (Prng.int rng' 1_000_000)
  done

(* --- Intvec / Bitset --- *)

let test_intvec_roundtrip () =
  let v = Intvec.create ~capacity:4 () in
  for i = 0 to 99 do
    Intvec.push v (i * 3)
  done;
  let v' = roundtrip Intvec.encode Intvec.decode v in
  check_int "length" (Intvec.length v) (Intvec.length v');
  for i = 0 to Intvec.length v - 1 do
    check_int "elt" (Intvec.get v i) (Intvec.get v' i)
  done;
  let empty = Intvec.create () in
  check_int "empty" 0 (Intvec.length (roundtrip Intvec.encode Intvec.decode empty));
  (* A decoded empty vector must still accept pushes. *)
  let e' = roundtrip Intvec.encode Intvec.decode empty in
  Intvec.push e' 7;
  check_int "push after decode" 7 (Intvec.get e' 0)

let test_bitset_roundtrip () =
  let b = Bitset.create 77 in
  List.iter (fun i -> Bitset.add b i) [ 0; 1; 13; 31; 32; 33; 76 ];
  let b' = roundtrip Bitset.encode Bitset.decode b in
  check_int "capacity" (Bitset.capacity b) (Bitset.capacity b');
  check_int "cardinal" (Bitset.cardinal b) (Bitset.cardinal b');
  for i = 0 to 76 do
    check_bool (Printf.sprintf "mem %d" i) (Bitset.mem b i) (Bitset.mem b' i)
  done

let test_bitset_rejects_bad_words () =
  (* capacity says 9 bits (2 bytes) but the words string has 1 byte. *)
  let w = Codec.writer () in
  Codec.varint w 9;
  Codec.varint w 0;
  Codec.string w "\x00";
  expect_codec_error "short words" (fun () ->
      Bitset.decode (Codec.reader (Codec.contents w)))

let test_bitset_rejects_cardinal_mismatch () =
  (* Structurally valid payloads whose recorded cardinal disagrees with
     the popcount of the words — a flipped count or a flipped bit in a
     checkpoint must not produce a bitset that silently miscounts. *)
  let payload ~cardinal ~words ~capacity =
    let w = Codec.writer () in
    Codec.varint w capacity;
    Codec.varint w cardinal;
    Codec.string w words;
    Codec.contents w
  in
  (* 3 bits set, cardinal claims 2 *)
  expect_codec_error "cardinal too small" (fun () ->
      Bitset.decode (Codec.reader (payload ~capacity:16 ~cardinal:2 ~words:"\x07\x00")));
  (* 1 bit set, cardinal claims 4 *)
  expect_codec_error "cardinal too large" (fun () ->
      Bitset.decode (Codec.reader (payload ~capacity:16 ~cardinal:4 ~words:"\x10\x00")));
  (* the agreeing payload decodes fine, so the two above failed on the
     count check and not on something structural *)
  let b = Bitset.decode (Codec.reader (payload ~capacity:16 ~cardinal:3 ~words:"\x07\x00")) in
  check_int "control payload decodes" 3 (Bitset.cardinal b)

(* --- Dyngraph --- *)

let graph_bytes g = encode_bytes Dyngraph.encode g

(* Drive a graph through scripted churn with its own PRNG state; kills
   leave recycled slots on the free list. *)
let scripted_graph ~seed ~births ~p_kill =
  let g = Dyngraph.create ~rng:(Prng.create seed) ~d:4 ~regenerate:true () in
  let script = Prng.create (seed + 1) in
  for i = 1 to births do
    if Dyngraph.alive_count g > 5 && Prng.bernoulli script p_kill then
      Dyngraph.kill g (Dyngraph.random_alive g)
    else ignore (Dyngraph.add_node g ~birth:i)
  done;
  (g, script)

let test_dyngraph_roundtrip_free_list () =
  let g, script = scripted_graph ~seed:11 ~births:400 ~p_kill:0.45 in
  let bytes = graph_bytes g in
  let g' = Dyngraph.decode (Codec.reader bytes) in
  check_string "re-encode is byte-identical" (String.escaped bytes)
    (String.escaped (graph_bytes g'));
  (* The decoded arena must evolve identically: same churn script, same
     internal PRNG state, so the same draws and the same recycled slots. *)
  let script' = roundtrip Prng.encode Prng.decode script in
  for i = 1 to 200 do
    if Dyngraph.alive_count g > 5 && Prng.bernoulli script 0.45 then
      Dyngraph.kill g (Dyngraph.random_alive g)
    else ignore (Dyngraph.add_node g ~birth:(1000 + i));
    if Dyngraph.alive_count g' > 5 && Prng.bernoulli script' 0.45 then
      Dyngraph.kill g' (Dyngraph.random_alive g')
    else ignore (Dyngraph.add_node g' ~birth:(1000 + i))
  done;
  check_string "still identical after 200 more churn events"
    (String.escaped (graph_bytes g))
    (String.escaped (graph_bytes g'))

let test_dyngraph_roundtrip_slid_window () =
  (* More than 1024 births forces the id->slot window to slide past its
     initial base. *)
  let g, _ = scripted_graph ~seed:12 ~births:3000 ~p_kill:0.48 in
  let bytes = graph_bytes g in
  let g' = Dyngraph.decode (Codec.reader bytes) in
  check_string "slid window re-encodes byte-identical" (String.escaped bytes)
    (String.escaped (graph_bytes g'));
  check_int "alive counts agree" (Dyngraph.alive_count g) (Dyngraph.alive_count g')

let test_dyngraph_decode_rejects_corruption () =
  let g, _ = scripted_graph ~seed:13 ~births:50 ~p_kill:0.3 in
  let bytes = graph_bytes g in
  (* Truncated payload must not decode. *)
  expect_codec_error "truncated graph" (fun () ->
      let r = Codec.reader (String.sub bytes 0 (String.length bytes / 2)) in
      Dyngraph.decode r)

(* --- churn + models --- *)

let test_poisson_churn_roundtrip () =
  let c = Poisson_churn.create ~rng:(Prng.create 21) ~n:500 () in
  for _ = 1 to 300 do
    ignore (Poisson_churn.decide c ~alive:480)
  done;
  let c' = roundtrip Poisson_churn.encode Poisson_churn.decode c in
  check_int "round" (Poisson_churn.round c) (Poisson_churn.round c');
  for i = 1 to 100 do
    let d1, dt1 = Poisson_churn.decide c ~alive:470 in
    let d2, dt2 = Poisson_churn.decide c' ~alive:470 in
    check_bool (Printf.sprintf "decision %d" i) true (d1 = d2 && dt1 = dt2)
  done

let model_bytes m = encode_bytes Models.encode m

let test_streaming_model_roundtrip () =
  let m = Streaming_model.create ~rng:(Prng.create 31) ~n:120 ~d:6 ~regenerate:true () in
  Streaming_model.warm_up m;
  Streaming_model.run m 37;
  let bytes = encode_bytes Streaming_model.encode m in
  let m' = Streaming_model.decode (Codec.reader bytes) in
  check_string "re-encode byte-identical" (String.escaped bytes)
    (String.escaped (encode_bytes Streaming_model.encode m'));
  Streaming_model.run m 100;
  Streaming_model.run m' 100;
  check_string "identical after 100 more rounds"
    (String.escaped (encode_bytes Streaming_model.encode m))
    (String.escaped (encode_bytes Streaming_model.encode m'))

let test_poisson_model_roundtrip () =
  let m = Poisson_model.create ~rng:(Prng.create 32) ~n:120 ~d:6 ~regenerate:true () in
  Poisson_model.warm_up m;
  (* Materialize the lazily pre-drawn jump so the pending field is Some. *)
  ignore (Poisson_model.next_jump_time m);
  let bytes = encode_bytes Poisson_model.encode m in
  let m' = Poisson_model.decode (Codec.reader bytes) in
  check_string "re-encode byte-identical" (String.escaped bytes)
    (String.escaped (encode_bytes Poisson_model.encode m'));
  Poisson_model.run_rounds m 400;
  Poisson_model.run_rounds m' 400;
  check_string "identical after 400 more jumps"
    (String.escaped (encode_bytes Poisson_model.encode m))
    (String.escaped (encode_bytes Poisson_model.encode m'))

let test_models_dispatch () =
  let s = Models.create ~rng:(Prng.create 33) Models.SDGR ~n:80 ~d:4 in
  Models.warm_up_batch s;
  let s' = roundtrip Models.encode Models.decode s in
  check_string "kind preserved" (Models.kind_name (Models.kind s))
    (Models.kind_name (Models.kind s'));
  check_string "payload identical" (String.escaped (model_bytes s))
    (String.escaped (model_bytes s'));
  expect_codec_error "bad model tag" (fun () ->
      let w = Codec.writer () in
      Codec.u8 w 9;
      Models.decode (Codec.reader (Codec.contents w)))

(* Decoding is total: a damaged payload of any model kind either
   decodes or raises [Codec.Error] — never an out-of-bounds index or any
   other exception.  The frame CRC normally stops such bytes first; this
   pins the decoder's own range checks behind it. *)
let warmed_model_bytes =
  List.map
    (fun kind ->
      let m = Models.create ~rng:(Prng.create 34) kind ~n:40 ~d:3 in
      Models.warm_up_batch m;
      Models.advance_batch m 25;
      model_bytes m)
    Models.all_kinds

let damaged_encoding =
  let open QCheck.Gen in
  let* bytes = oneofl warmed_model_bytes in
  let len = String.length bytes in
  let mutate =
    let+ edits = list_size (int_range 1 3) (pair (int_bound (len - 1)) (int_bound 255)) in
    let b = Bytes.of_string bytes in
    List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
    Bytes.to_string b
  in
  let truncate =
    let+ k = int_bound (len - 1) in
    String.sub bytes 0 k
  in
  frequency [ (4, mutate); (1, truncate) ]

let decode_total_prop =
  QCheck.Test.make ~name:"models decode damaged bytes or raise Codec.Error" ~count:10000
    (QCheck.make ~print:String.escaped damaged_encoding)
    (fun bytes ->
      match Models.decode (Codec.reader bytes) with
      | _ -> true
      | exception Codec.Error _ -> true)

(* --- in-flight Flood state --- *)

let flood_state_bytes st = encode_bytes Flood.encode_state st

let sync_harness seed =
  let m = Streaming_model.create ~rng:(Prng.create seed) ~n:150 ~d:6 ~regenerate:true () in
  Streaming_model.warm_up m;
  ( (fun () -> Streaming_model.step m),
    (fun () -> Streaming_model.newest m),
    Streaming_model.graph m )

let test_flood_sync_inflight_roundtrip () =
  let step_a, newest_a, graph_a = sync_harness 41 in
  let step_b, newest_b, graph_b = sync_harness 41 in
  let st_a = Flood.sync_start ~max_rounds:600 ~graph:graph_a ~step:step_a ~newest:newest_a in
  let st_b = Flood.sync_start ~max_rounds:600 ~graph:graph_b ~step:step_b ~newest:newest_b in
  for _ = 1 to 3 do
    if not (Flood.state_finished st_a) then begin
      Flood.sync_round ~graph:graph_a ~step:step_a ~newest:newest_a st_a;
      Flood.sync_round ~graph:graph_b ~step:step_b ~newest:newest_b st_b
    end
  done;
  let bytes = flood_state_bytes st_a in
  let st' = Flood.decode_state (Codec.reader bytes) in
  check_string "re-encode byte-identical" (String.escaped bytes)
    (String.escaped (flood_state_bytes st'));
  check_int "round preserved" (Flood.state_round st_a) (Flood.state_round st');
  (* Continue the original on model A and the decoded state on the
     identical twin model B: the final traces must agree. *)
  while not (Flood.state_finished st_a) do
    Flood.sync_round ~graph:graph_a ~step:step_a ~newest:newest_a st_a
  done;
  while not (Flood.state_finished st') do
    Flood.sync_round ~graph:graph_b ~step:step_b ~newest:newest_b st'
  done;
  let tr = Flood.finish_state st_a and tr' = Flood.finish_state st' in
  check_bool "identical traces" true (tr = tr')

let test_flood_poisson_inflight_roundtrip () =
  let make () =
    let m = Poisson_model.create ~rng:(Prng.create 42) ~n:150 ~d:6 ~regenerate:true () in
    Poisson_model.warm_up m;
    m
  in
  let m_a = make () and m_b = make () in
  let st_a = Flood.poisson_start ~max_rounds:100 m_a in
  let st_b = Flood.poisson_start ~max_rounds:100 m_b in
  for _ = 1 to 2 do
    if not (Flood.state_finished st_a) then begin
      Flood.poisson_round m_a st_a;
      Flood.poisson_round m_b st_b
    end
  done;
  let bytes = flood_state_bytes st_a in
  let st' = Flood.decode_state (Codec.reader bytes) in
  check_string "re-encode byte-identical" (String.escaped bytes)
    (String.escaped (flood_state_bytes st'));
  while not (Flood.state_finished st_a) do
    Flood.poisson_round m_a st_a
  done;
  while not (Flood.state_finished st') do
    Flood.poisson_round m_b st'
  done;
  check_bool "identical traces" true (Flood.finish_state st_a = Flood.finish_state st')

let test_flood_state_rejects_inconsistency () =
  let step, newest, graph = sync_harness 43 in
  let st = Flood.sync_start ~max_rounds:600 ~graph ~step ~newest in
  Flood.sync_round ~graph ~step ~newest st;
  let bytes = flood_state_bytes st in
  expect_codec_error "truncated flood state" (fun () ->
      Flood.decode_state (Codec.reader (String.sub bytes 0 (String.length bytes - 2))))

(* --- in-flight Onion state --- *)

let onion_state_bytes st = encode_bytes Onion.encode_state st

let test_onion_inflight_roundtrip () =
  let st = Onion.start ~rng:(Prng.create 51) ~n:400 ~d:6 () in
  for _ = 1 to 2 do
    if not (Onion.state_finished st) then Onion.phase_step st
  done;
  let bytes = onion_state_bytes st in
  let st' = Onion.decode_state (Codec.reader bytes) in
  check_string "re-encode byte-identical" (String.escaped bytes)
    (String.escaped (onion_state_bytes st'));
  check_int "phase preserved" (Onion.state_phase st) (Onion.state_phase st');
  (* The phase loop is deterministic (all randomness was consumed at
     start), so both copies must finish identically. *)
  while not (Onion.state_finished st) do
    Onion.phase_step st
  done;
  while not (Onion.state_finished st') do
    Onion.phase_step st'
  done;
  check_bool "identical results" true (Onion.finish_state st = Onion.finish_state st')

(* --- write_file durability hygiene --- *)

let fresh_dir =
  let seq = ref 0 in
  fun () ->
    incr seq;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "churnet-codec-%d-%d" (Unix.getpid ()) !seq)
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
    dir

let tmp_leftovers dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         let rec has_sub i =
           i + 4 <= String.length f && (String.sub f i 4 = ".tmp" || has_sub (i + 1))
         in
         has_sub 0)

(* A successful write leaves exactly the target file: the staging temp
   must have been renamed away, never left as a sibling. *)
let test_write_file_leaves_no_tmp () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "state.ckpt" in
  Codec.write_file ~schema:Codec.schema path (fun w -> Codec.varint w 42);
  let r = Codec.read_file ~schema:Codec.schema path in
  check_int "payload survives" 42 (Codec.read_varint r);
  Codec.expect_end r;
  check_int "no tmp leftovers" 0 (List.length (tmp_leftovers dir))

(* A failed write (here: the rename refused because the target is a
   directory) must raise Codec.Error and unlink its temp file instead of
   leaking it next to the checkpoint path. *)
let test_write_file_failure_removes_tmp () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "occupied" in
  Sys.mkdir path 0o700;
  check_bool "write into a directory path is refused" true
    (match Codec.write_file ~schema:Codec.schema path (fun w -> Codec.varint w 1) with
    | () -> false
    | exception Codec.Error _ -> true);
  check_int "failed write leaves no tmp file" 0 (List.length (tmp_leftovers dir))

(* An unwritable destination fails before any temp file exists. *)
let test_write_file_unwritable_dir () =
  let dir = fresh_dir () in
  let path = Filename.concat (Filename.concat dir "missing") "state.ckpt" in
  check_bool "missing directory is a clean Codec.Error" true
    (match Codec.write_file ~schema:Codec.schema path (fun w -> Codec.varint w 1) with
    | () -> false
    | exception Codec.Error _ -> true)

(* Concurrent writers to the same path (sweep worker domains share a
   pid!) must not clobber each other's staging bytes: every temp name is
   unique, the surviving file is one of the complete payloads, and no
   temp files are left behind. *)
let test_write_file_concurrent_same_path () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "shared.ckpt" in
  let writers = 4 and rounds = 8 in
  let handles =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for r = 1 to rounds do
              Codec.write_file ~schema:Codec.schema path (fun wr ->
                  Codec.varint wr w;
                  Codec.varint wr r;
                  (* bulk payload so staged writes overlap in time *)
                  Codec.int_array wr (Array.make 4096 (w * 1000 + r)))
            done))
  in
  List.iter Domain.join handles;
  let r = Codec.read_file ~schema:Codec.schema path in
  let w = Codec.read_varint r in
  let rnd = Codec.read_varint r in
  let bulk = Codec.read_int_array r in
  Codec.expect_end r;
  check_bool "winning writer id in range" true (w >= 0 && w < writers);
  check_bool "winning round in range" true (rnd >= 1 && rnd <= rounds);
  check_bool "payload internally consistent" true
    (Array.for_all (fun v -> v = (w * 1000) + rnd) bulk && Array.length bulk = 4096);
  check_int "no tmp leftovers" 0 (List.length (tmp_leftovers dir))

let qcheck_props =
  [
    QCheck.Test.make ~name:"varint round-trips any int" ~count:500 QCheck.int (fun v ->
        roundtrip Codec.varint Codec.read_varint v = v);
    QCheck.Test.make ~name:"int_array round-trips" ~count:100
      QCheck.(array small_signed_int)
      (fun a -> roundtrip Codec.int_array Codec.read_int_array a = a);
    decode_total_prop;
  ]

let suite =
  [
    ("varint round-trip", `Quick, test_varint_roundtrip);
    ("i64/f64/bool round-trip", `Quick, test_i64_f64_bool);
    ("string/option/containers", `Quick, test_string_option_containers);
    ("crc32 check value", `Quick, test_crc32_check_value);
    ("frame round-trip", `Quick, test_frame_roundtrip);
    ("frame rejects corruption", `Quick, test_frame_rejects_corruption);
    ("prng round-trip", `Quick, test_prng_roundtrip);
    ("intvec round-trip", `Quick, test_intvec_roundtrip);
    ("bitset round-trip", `Quick, test_bitset_roundtrip);
    ("bitset rejects bad words", `Quick, test_bitset_rejects_bad_words);
    ("bitset rejects cardinal mismatch", `Quick, test_bitset_rejects_cardinal_mismatch);
    ("dyngraph round-trip with free list", `Quick, test_dyngraph_roundtrip_free_list);
    ("dyngraph round-trip with slid window", `Quick, test_dyngraph_roundtrip_slid_window);
    ("dyngraph rejects corruption", `Quick, test_dyngraph_decode_rejects_corruption);
    ("poisson churn round-trip", `Quick, test_poisson_churn_roundtrip);
    ("streaming model round-trip", `Quick, test_streaming_model_roundtrip);
    ("poisson model round-trip", `Quick, test_poisson_model_roundtrip);
    ("models dispatch", `Quick, test_models_dispatch);
    ("flood sync in-flight round-trip", `Quick, test_flood_sync_inflight_roundtrip);
    ("flood poisson in-flight round-trip", `Quick, test_flood_poisson_inflight_roundtrip);
    ("flood state rejects inconsistency", `Quick, test_flood_state_rejects_inconsistency);
    ("onion in-flight round-trip", `Quick, test_onion_inflight_roundtrip);
    ("write_file leaves no tmp", `Quick, test_write_file_leaves_no_tmp);
    ("write_file failure removes tmp", `Quick, test_write_file_failure_removes_tmp);
    ("write_file unwritable dir", `Quick, test_write_file_unwritable_dir);
    ("write_file concurrent same path", `Quick, test_write_file_concurrent_same_path);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
