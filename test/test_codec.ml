(* Tests for the checkpoint codec: primitive round-trips, frame
   integrity (schema, length, CRC), and a state round-trip for every
   serialized module — PRNG, Intvec, the graph arena (including a
   populated free list and a slid id window), the Poisson churn clock
   and both models — plus decode totality: damaged model bytes and
   frames decode or raise [Codec.Error], and damaged JSON, sweep configs
   and event logs parse to [Ok] or [Error].

   The strongest check used throughout is re-encode byte equality:
   [decode] then [encode] must reproduce the exact bytes, so nothing is
   lost or renormalized in either direction. *)

open Churnet_util
module Dyngraph = Churnet_graph.Dyngraph
module Streaming_model = Churnet_core.Streaming_model
module Poisson_model = Churnet_core.Poisson_model
module Models = Churnet_core.Models
module Poisson_churn = Churnet_churn.Poisson_churn
module Event_log = Churnet_graph.Event_log
module Sweep = Churnet_experiments.Sweep

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
      Codec.unframe ~schema:Codec.schema (data ^ "x"));
  (* Bit 63 of the length field: narrowing the length to a native int
     used to drop it and accept the frame. *)
  let high = Bytes.of_string data in
  let top = String.length Codec.schema + 1 + 7 in
  Bytes.set high top (Char.chr (Char.code (Bytes.get high top) lxor 0x80));
  expect_codec_error "length bit 63" (fun () ->
      Codec.unframe ~schema:Codec.schema (Bytes.to_string high))

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

(* --- Intvec --- *)

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

(* Encoders write [cap] as 256 * 2^k, a whole number of 256-slot row
   pages, and never below [used].  A [cap] within the old bounds
   ([256, 2 * used]) but not of that form, or below [used], must be
   rejected, not index past the last page. *)
let graph_with_cap ~births cap =
  let g = Dyngraph.create ~rng:(Prng.create 14) ~d:3 ~regenerate:false () in
  for i = 1 to births do
    ignore (Dyngraph.add_node g ~birth:i)
  done;
  let bytes = graph_bytes g in
  let r = Codec.reader bytes in
  ignore (Codec.read_varint r);
  ignore (Codec.read_bool r);
  ignore (Prng.decode r);
  let at = String.length bytes - Codec.remaining r in
  ignore (Codec.read_varint r);
  let rest = String.sub bytes (String.length bytes - Codec.remaining r) (Codec.remaining r) in
  (bytes, String.sub bytes 0 at ^ encode_bytes Codec.varint cap ^ rest)

let test_dyngraph_decode_rejects_partial_page () =
  let bytes, same = graph_with_cap ~births:200 256 in
  check_string "cap 256 re-encodes to the same bytes" (String.escaped bytes) (String.escaped same);
  check_string "cap 256 decodes" (String.escaped bytes)
    (String.escaped (graph_bytes (Dyngraph.decode (Codec.reader same))));
  List.iter
    (fun (births, cap) ->
      expect_codec_error (Printf.sprintf "cap %d with used %d" cap births) (fun () ->
          Dyngraph.decode (Codec.reader (snd (graph_with_cap ~births cap)))))
    [ (200, 300); (200, 384); (300, 256) ]

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

(* Every id [Streaming_model.decode] reads back must be -1 or one the
   arena has issued, and a model past round 0 has a newest node.  The
   fields after the arena are parsed out of a real encoding and written
   back with one of them patched. *)
let test_streaming_model_rejects_bad_ids () =
  let fresh = Streaming_model.create ~rng:(Prng.create 36) ~n:40 ~d:3 ~regenerate:false () in
  ignore (Streaming_model.decode (Codec.reader (encode_bytes Streaming_model.encode fresh)));
  let m = Streaming_model.create ~rng:(Prng.create 36) ~n:40 ~d:3 ~regenerate:false () in
  (* 25 < n rounds: the ring holds both issued ids and -1 slots. *)
  Streaming_model.run m 25;
  let bytes = encode_bytes Streaming_model.encode m in
  let r = Codec.reader bytes in
  let n = Codec.read_varint r in
  let d = Codec.read_varint r in
  let graph = Dyngraph.decode r in
  let round = Codec.read_varint r in
  let ring = Codec.read_int_array r in
  let newest = Codec.read_varint r in
  let encode_with ~ring ~newest =
    let w = Codec.writer () in
    Codec.varint w n;
    Codec.varint w d;
    Dyngraph.encode w graph;
    Codec.varint w round;
    Codec.int_array w ring;
    Codec.varint w newest;
    Codec.contents w
  in
  check_string "unpatched fields re-encode" (String.escaped bytes)
    (String.escaped (encode_with ~ring ~newest));
  check_int "slot 0 not yet filled" (-1) ring.(0);
  let next_id = Dyngraph.peek_next_id graph in
  let ring_with v =
    let a = Array.copy ring in
    a.(0) <- v;
    a
  in
  List.iter
    (fun (what, ring, newest) ->
      expect_codec_error what (fun () ->
          Streaming_model.decode (Codec.reader (encode_with ~ring ~newest))))
    [
      ("no newest after round 0", ring, -1);
      ("newest below -1", ring, -2);
      ("newest never issued", ring, next_id);
      ("ring entry below -1", ring_with (-2), newest);
      ("ring entry never issued", ring_with next_id, newest);
    ]

(* Only the uniform policy can be rebuilt by [decode], so a model built
   on another policy refuses to encode. *)
let test_policy_model_refuses_encode () =
  let m = Churnet_p2p.Rw_streaming.create ~rng:(Prng.create 37) ~n:30 ~d:3 () in
  Streaming_model.run m 10;
  check_bool "encode raises Invalid_argument" true
    (match encode_bytes Streaming_model.encode m with
    | _ -> false
    | exception Invalid_argument _ -> true)

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
      Models.decode (Codec.reader (Codec.contents w)));
  (* The model's [d] varint must agree with its arena's degree.  Byte 0
     is the kind tag and byte 1 the one-byte varint n = 40, so [d] is
     byte 2 (varints are zigzag-coded: d = 3 is 6, d = 5 is 10). *)
  List.iter
    (fun kind ->
      let m = Models.create ~rng:(Prng.create 35) kind ~n:40 ~d:3 in
      Models.warm_up_batch m;
      let b = Bytes.of_string (model_bytes m) in
      check_int "d varint at byte 2" 6 (Char.code (Bytes.get b 2));
      Bytes.set b 2 '\010';
      expect_codec_error ("d disagrees with the arena: " ^ Models.kind_name kind)
        (fun () -> Models.decode (Codec.reader (Bytes.to_string b))))
    [ Models.SDGR; Models.PDGR ]

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

(* One of [samples], damaged: 1-3 overwritten bytes, 1-3 flipped bits,
   a truncation, or a varint overflow (up to ten 0xff continuation bytes
   written from a random offset). *)
let damaged_encoding samples =
  let open QCheck.Gen in
  let* bytes = oneofl samples in
  let len = String.length bytes in
  let edit f =
    let+ edits = list_size (int_range 1 3) (pair (int_bound (len - 1)) (int_bound 255)) in
    let b = Bytes.of_string bytes in
    List.iter (fun (i, v) -> Bytes.set b i (f (Bytes.get b i) v)) edits;
    Bytes.to_string b
  in
  let overwrite = edit (fun _ v -> Char.chr v) in
  let flip = edit (fun c v -> Char.chr (Char.code c lxor (1 lsl (v land 7)))) in
  let truncate =
    let+ k = int_bound (len - 1) in
    String.sub bytes 0 k
  in
  let overflow =
    let+ at = int_bound (len - 1) in
    let b = Bytes.of_string bytes in
    Bytes.fill b at (min 10 (len - at)) '\xff';
    Bytes.to_string b
  in
  frequency [ (3, overwrite); (3, flip); (1, truncate); (1, overflow) ]

let decode_total_prop =
  QCheck.Test.make ~name:"models decode damaged bytes or raise Codec.Error" ~count:10000
    (QCheck.make ~print:String.escaped (damaged_encoding warmed_model_bytes))
    (fun bytes ->
      match Models.decode (Codec.reader bytes) with
      | _ -> true
      | exception Codec.Error _ -> true)

(* --- the other decoders --- *)

(* Each decoder below fails only in its declared way — [Codec.Error] for
   the frame, an [Error _] result for the text formats — whatever the
   damage: any other exception escapes the property and fails it. *)

let framed_samples =
  Codec.frame ~schema:Codec.schema (fun _ -> ())
  :: Codec.frame ~schema:Codec.schema (fun w -> Codec.varint w 42)
  :: List.map
       (fun b -> Codec.frame ~schema:Codec.schema (fun w -> Codec.string w b))
       warmed_model_bytes

(* The envelope covers every byte (magic, length, payload, CRC), so a
   damaged frame must never unframe; a CRC32 collision is the only way
   through, at odds of 2^-32 per case. *)
let unframe_total_prop =
  QCheck.Test.make ~name:"unframe accepts only intact frames, else Codec.Error" ~count:10000
    (QCheck.make ~print:String.escaped (damaged_encoding framed_samples))
    (fun bytes ->
      match Codec.unframe ~schema:Codec.schema bytes with
      | _ -> List.mem bytes framed_samples
      | exception Codec.Error _ -> true)

let sweep_config_samples =
  [
    {|{"schema": "churnet-sweep-config/1", "name": "grid",
       "grid": {"models": ["SDGR", "PDG"], "n": [120, 240], "d": [3],
                "lambda": [1.0, 0.5], "seeds": [7, 8]}}|};
    {|{"schema": "churnet-sweep-config/1", "name": "both",
       "grid": {"models": ["SDG"], "n": [60], "d": [2], "seeds": [1]},
       "experiments": {"ids": ["E1", "F5"], "seeds": [42], "scale": "smoke"}}|};
  ]

let json_samples =
  {|[1, -2.5e3, 0.125, 1E-7, true, false, null, "é
"x\\",
     {"": [], "k": {"nested": [[]]}}, 12345678901234567890]|}
  :: sweep_config_samples

let json_total_prop =
  QCheck.Test.make ~name:"Json.of_string returns Ok or Error on damaged text" ~count:10000
    (QCheck.make ~print:String.escaped (damaged_encoding json_samples))
    (fun text -> match Json.of_string text with Ok _ | Error _ -> true)

let sweep_config_total_prop =
  QCheck.Test.make ~name:"Sweep.config_of_json returns Ok or Error on damaged configs"
    ~count:10000
    (QCheck.make ~print:String.escaped (damaged_encoding sweep_config_samples))
    (fun text ->
      match Json.of_string text with
      | Error _ -> true
      | Ok json -> ( match Sweep.config_of_json json with Ok _ | Error _ -> true))

let event_log_samples =
  List.map
    (fun regenerate ->
      let g = Dyngraph.create ~rng:(Prng.create 5) ~d:3 ~regenerate () in
      let log = Event_log.create () in
      Event_log.attach log g;
      let rng = Prng.create 6 in
      for i = 1 to 60 do
        if Dyngraph.alive_count g > 3 && Prng.bernoulli rng 0.45 then
          Dyngraph.kill g (Dyngraph.random_alive g)
        else ignore (Dyngraph.add_node g ~birth:i)
      done;
      Event_log.detach log g;
      Event_log.to_string log)
    [ false; true ]

(* A log that parses must also replay. *)
let event_log_total_prop =
  QCheck.Test.make ~name:"Event_log.of_string returns Ok or Error on damaged logs"
    ~count:10000
    (QCheck.make ~print:String.escaped (damaged_encoding event_log_samples))
    (fun text ->
      match Event_log.of_string text with
      | Error _ -> true
      | Ok log ->
          ignore (Event_log.replay log);
          ignore (Event_log.population_series log);
          true)

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
    unframe_total_prop;
    json_total_prop;
    sweep_config_total_prop;
    event_log_total_prop;
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
    ("dyngraph round-trip with free list", `Quick, test_dyngraph_roundtrip_free_list);
    ("dyngraph round-trip with slid window", `Quick, test_dyngraph_roundtrip_slid_window);
    ("dyngraph rejects corruption", `Quick, test_dyngraph_decode_rejects_corruption);
    ("dyngraph rejects a partial row page", `Quick, test_dyngraph_decode_rejects_partial_page);
    ("poisson churn round-trip", `Quick, test_poisson_churn_roundtrip);
    ("streaming model round-trip", `Quick, test_streaming_model_roundtrip);
    ("streaming model rejects bad ids", `Quick, test_streaming_model_rejects_bad_ids);
    ("policy model refuses encode", `Quick, test_policy_model_refuses_encode);
    ("poisson model round-trip", `Quick, test_poisson_model_roundtrip);
    ("models dispatch", `Quick, test_models_dispatch);
    ("write_file leaves no tmp", `Quick, test_write_file_leaves_no_tmp);
    ("write_file failure removes tmp", `Quick, test_write_file_failure_removes_tmp);
    ("write_file unwritable dir", `Quick, test_write_file_unwritable_dir);
    ("write_file concurrent same path", `Quick, test_write_file_concurrent_same_path);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
