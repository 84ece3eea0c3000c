(* Crash-fault injection harness for the checkpoint/resume guarantee.

   For each target the harness first probes a full checkpointed run to
   learn how many work units it journals, then for several randomized
   kill points k:

     1. runs a fresh child with [--ckpt F --checkpoint-every 1
        --crash-at k] and requires it to die by SIGKILL (the CLI arms a
        self-kill as the k-th fresh unit completes);
     2. resumes with [--resume F] and requires the resumed stdout to be
        byte-identical to the checked-in golden of an uninterrupted run.

   The record-replay target exercises the full-state codecs instead of
   the work-unit journal: its kill points are step numbers
   ([--crash-at-step]) and its golden is the event-stream + replay DOT.

   Kill points are drawn from the repo's own PRNG, so a given --seed
   reproduces the exact same schedule.  On failure the offending
   checkpoint file is preserved (copied into --artifacts when given) so
   CI can upload it. *)

module Prng = Churnet_util.Prng
module Checkpoint = Churnet_util.Checkpoint

(* Every registry cell that journals work units.  The other seven (E12,
   F5, F10, F12, F13, T1, S1) have no journaled [Parallel.map] site, so
   the harness rejects them with "journaled no work units". *)
let experiment_ids =
  [
    "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
    "F1"; "F2"; "F3"; "F4"; "F6"; "F7"; "F8"; "F9"; "F11"; "F14";
    "E13"; "X1"; "X2"; "X3"; "A1"; "R1";
  ]
let record_replay_steps = 150

(* The sweep target reads its grid from the checked-in smoke config and
   must reproduce both checked-in outputs: the rendered text (stdout)
   and the churnet-sweep/1 trajectory file (--json). *)
let sweep_config = "sweep_smoke_config.json"
let sweep_golden = "sweep_smoke"

(* --- tiny arg parser (the harness must not depend on cmdliner) ------- *)

type config = {
  mutable bin : string;
  mutable golden : string;
  mutable kills : int;
  mutable seed : int;
  mutable artifacts : string option;
  mutable ids : string list;
}

let usage () =
  prerr_endline
    "usage: crash_harness --bin CLI --golden DIR [--kills N] [--seed N]\n\
    \       [--artifacts DIR] [--ids E1,F4,record-replay]";
  exit 2

let parse_args () =
  let cfg =
    {
      bin = "";
      golden = "";
      kills = 3;
      seed = 42;
      artifacts = None;
      ids = experiment_ids @ [ "record-replay"; "sweep" ];
    }
  in
  let rec go = function
    | [] -> ()
    | "--bin" :: v :: rest ->
        cfg.bin <- v;
        go rest
    | "--golden" :: v :: rest ->
        cfg.golden <- v;
        go rest
    | "--kills" :: v :: rest ->
        cfg.kills <- int_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        cfg.seed <- int_of_string v;
        go rest
    | "--artifacts" :: v :: rest ->
        cfg.artifacts <- Some v;
        go rest
    | "--ids" :: v :: rest ->
        cfg.ids <- String.split_on_char ',' v;
        go rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if cfg.bin = "" || cfg.golden = "" then usage ();
  cfg

(* --- child processes -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let copy_file src dst =
  let oc = open_out_bin dst in
  output_string oc (read_file src);
  close_out oc

(* Run [bin args], stdout to [out] (stderr discarded), return the wait
   status. *)
let run_child bin args ~out =
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null_fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin out_fd null_fd
  in
  Unix.close out_fd;
  Unix.close null_fd;
  let _, status = Unix.waitpid [] pid in
  status

let status_name = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* --- the checks ------------------------------------------------------- *)

type outcome = { mutable failures : int; mutable checks : int }

let fail cfg outcome ~ckpt fmt =
  Printf.ksprintf
    (fun msg ->
      outcome.failures <- outcome.failures + 1;
      Printf.eprintf "FAIL: %s\n%!" msg;
      match cfg.artifacts with
      | Some dir when Sys.file_exists ckpt ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let dst = Filename.concat dir (Filename.basename ckpt) in
          copy_file ckpt dst;
          Printf.eprintf "  checkpoint preserved at %s\n%!" dst
      | _ -> ())
    fmt

let check_bytes cfg outcome ~ckpt ~golden_path ~out ~what =
  outcome.checks <- outcome.checks + 1;
  let expected = read_file golden_path in
  let actual = read_file out in
  if String.equal expected actual then
    Printf.printf "  ok: %s byte-identical (%d bytes)\n%!" what (String.length actual)
  else
    fail cfg outcome ~ckpt "%s: output differs from %s (%d vs %d bytes)" what
      golden_path (String.length actual) (String.length expected)

let expect_sigkill cfg outcome ~ckpt ~what status =
  outcome.checks <- outcome.checks + 1;
  match status with
  | Unix.WSIGNALED s when s = Sys.sigkill ->
      Printf.printf "  ok: %s died by SIGKILL as armed\n%!" what
  | other -> fail cfg outcome ~ckpt "%s: expected SIGKILL, got %s" what (status_name other)

(* Distinct kill points in [1, hi], uniformly drawn; fewer when the range
   is too small to hold [wanted] distinct values. *)
let kill_points rng ~wanted ~hi =
  let hi = max hi 1 in
  let points = ref [] in
  let attempts = ref 0 in
  while List.length !points < min wanted hi && !attempts < 100 * wanted do
    incr attempts;
    let k = 1 + Prng.int rng hi in
    if not (List.mem k !points) then points := k :: !points
  done;
  List.sort Int.compare !points

let run_experiment cfg outcome rng tmp id =
  let golden_path = Filename.concat cfg.golden (id ^ ".txt") in
  let ckpt = Filename.concat tmp (Printf.sprintf "%s.ckpt" id) in
  let out k tag = Filename.concat tmp (Printf.sprintf "%s.%d.%s" id k tag) in
  let base_args = [ "run"; id; "--seed"; "42"; "--scale"; "smoke" ] in
  (* Probe: a full checkpointed run tells us how many units there are. *)
  let probe_status =
    run_child cfg.bin
      (base_args @ [ "--ckpt"; ckpt; "--checkpoint-every"; "1" ])
      ~out:(out 0 "probe")
  in
  (match probe_status with
  | Unix.WEXITED 0 | Unix.WEXITED 2 -> ()
  | other -> fail cfg outcome ~ckpt "%s probe run: %s" id (status_name other));
  check_bytes cfg outcome ~ckpt ~golden_path ~out:(out 0 "probe")
    ~what:(id ^ " probe run");
  let _, units = Checkpoint.inspect ckpt in
  if units < 1 then fail cfg outcome ~ckpt "%s journaled no work units" id
  else begin
    Printf.printf "%s: %d work units, kill points from [1, %d]\n%!" id units units;
    List.iter
      (fun k ->
        Sys.remove ckpt;
        let what = Printf.sprintf "%s --crash-at %d" id k in
        let status =
          run_child cfg.bin
            (base_args
            @ [
                "--ckpt"; ckpt; "--checkpoint-every"; "1"; "--crash-at"; string_of_int k;
              ])
            ~out:(out k "crash")
        in
        expect_sigkill cfg outcome ~ckpt ~what status;
        let resume_status =
          run_child cfg.bin (base_args @ [ "--resume"; ckpt ]) ~out:(out k "resumed")
        in
        (match resume_status with
        | Unix.WEXITED 0 | Unix.WEXITED 2 -> ()
        | other ->
            fail cfg outcome ~ckpt "%s resume after kill at %d: %s" id k
              (status_name other));
        check_bytes cfg outcome ~ckpt ~golden_path ~out:(out k "resumed")
          ~what:(Printf.sprintf "%s resumed after kill at unit %d" id k))
      (kill_points rng ~wanted:cfg.kills ~hi:units)
  end

(* Sweep crash/resume: like run_experiment but the unit of work is a
   grid cell (or an inner unit of an experiment cell), and on top of the
   stdout golden the aggregated trajectory file must also come out
   byte-identical after a mid-sweep SIGKILL. *)
let run_sweep cfg outcome rng tmp =
  let id = sweep_golden in
  let config_path = Filename.concat cfg.golden sweep_config in
  let golden_txt = Filename.concat cfg.golden (sweep_golden ^ ".txt") in
  let golden_json = Filename.concat cfg.golden (sweep_golden ^ ".json") in
  let ckpt = Filename.concat tmp "sweep.ckpt" in
  let out k tag = Filename.concat tmp (Printf.sprintf "%s.%d.%s" id k tag) in
  let base_args = [ "sweep"; "--config"; config_path ] in
  let probe_status =
    run_child cfg.bin
      (base_args
      @ [ "--ckpt"; ckpt; "--checkpoint-every"; "1"; "--json"; out 0 "probe.json" ])
      ~out:(out 0 "probe")
  in
  (match probe_status with
  | Unix.WEXITED 0 | Unix.WEXITED 2 -> ()
  | other -> fail cfg outcome ~ckpt "sweep probe run: %s" (status_name other));
  check_bytes cfg outcome ~ckpt ~golden_path:golden_txt ~out:(out 0 "probe")
    ~what:"sweep probe stdout";
  check_bytes cfg outcome ~ckpt ~golden_path:golden_json ~out:(out 0 "probe.json")
    ~what:"sweep probe trajectory file";
  let _, units = Checkpoint.inspect ckpt in
  if units < 1 then fail cfg outcome ~ckpt "sweep journaled no work units"
  else begin
    Printf.printf "sweep: %d work units, kill points from [1, %d]\n%!" units units;
    List.iter
      (fun k ->
        Sys.remove ckpt;
        let what = Printf.sprintf "sweep --crash-at %d" k in
        let status =
          run_child cfg.bin
            (base_args
            @ [
                "--ckpt"; ckpt; "--checkpoint-every"; "1"; "--crash-at"; string_of_int k;
              ])
            ~out:(out k "crash")
        in
        expect_sigkill cfg outcome ~ckpt ~what status;
        let resume_status =
          run_child cfg.bin
            (base_args @ [ "--resume"; ckpt; "--json"; out k "resumed.json" ])
            ~out:(out k "resumed")
        in
        (match resume_status with
        | Unix.WEXITED 0 | Unix.WEXITED 2 -> ()
        | other ->
            fail cfg outcome ~ckpt "sweep resume after kill at %d: %s" k
              (status_name other));
        check_bytes cfg outcome ~ckpt ~golden_path:golden_txt ~out:(out k "resumed")
          ~what:(Printf.sprintf "sweep stdout resumed after kill at unit %d" k);
        check_bytes cfg outcome ~ckpt ~golden_path:golden_json
          ~out:(out k "resumed.json")
          ~what:(Printf.sprintf "sweep trajectory resumed after kill at unit %d" k))
      (kill_points rng ~wanted:cfg.kills ~hi:units)
  end

let run_record_replay cfg outcome rng tmp =
  let id = "record_replay" in
  let golden_path = Filename.concat cfg.golden (id ^ ".txt") in
  let ckpt = Filename.concat tmp "record_replay.ckpt" in
  let out k tag = Filename.concat tmp (Printf.sprintf "%s.%d.%s" id k tag) in
  (* Kill strictly before the last step so the resume has work left. *)
  List.iter
    (fun k ->
      if Sys.file_exists ckpt then Sys.remove ckpt;
      let what = Printf.sprintf "record-replay --crash-at-step %d" k in
      let status =
        run_child cfg.bin
          [ "record-replay"; "--ckpt"; ckpt; "--crash-at-step"; string_of_int k ]
          ~out:(out k "crash")
      in
      expect_sigkill cfg outcome ~ckpt ~what status;
      let resume_status =
        run_child cfg.bin [ "record-replay"; "--resume"; ckpt ] ~out:(out k "resumed")
      in
      (match resume_status with
      | Unix.WEXITED 0 -> ()
      | other ->
          fail cfg outcome ~ckpt "record-replay resume after step %d: %s" k
            (status_name other));
      check_bytes cfg outcome ~ckpt ~golden_path ~out:(out k "resumed")
        ~what:(Printf.sprintf "record-replay resumed after step %d" k))
    (kill_points rng ~wanted:cfg.kills ~hi:(record_replay_steps - 1))

let () =
  let cfg = parse_args () in
  let rng = Prng.create cfg.seed in
  let tmp =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "churnet-fault-%d" (Unix.getpid ()))
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
    dir
  in
  let outcome = { failures = 0; checks = 0 } in
  List.iter
    (fun id ->
      if id = "record-replay" || id = "record_replay" then
        run_record_replay cfg outcome rng tmp
      else if id = "sweep" then run_sweep cfg outcome rng tmp
      else run_experiment cfg outcome rng tmp id)
    cfg.ids;
  Printf.printf "crash harness: %d checks, %d failures\n%!" outcome.checks
    outcome.failures;
  if outcome.failures > 0 then exit 1
