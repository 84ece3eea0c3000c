module Json = Churnet_util.Json
module Checkpoint = Churnet_util.Checkpoint

type ckpt = {
  units_stored : int;
  units_restored : int;
  writes : int;
  write_seconds : float;
}

type t = {
  wall_seconds : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  domains : int;
  seed : int;
  scale : Scale.t;
  checkpoint : ckpt option;
  peak_rss_kb : int option;
  cell_peak_rss_kb : int option;
}

(* Telemetry is the one library module allowed to read the wall clock
   (see churnet-lint's no-wallclock rule); everything else — including
   the CLI — borrows this accessor. *)
let now () = Unix.gettimeofday ()

(* VmHWM ("high-water mark") from /proc/self/status: the process's peak
   resident set, in kB.  It is monotone over the process lifetime, so one
   read after the measured call captures the peak the run reached — the
   number the XL tier's memory envelope is stated in.  [None] on systems
   without procfs (or a different status format); telemetry then simply
   omits the field. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            let prefix = "VmHWM:" in
            if String.length line > String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then
              let rest =
                String.trim
                  (String.sub line (String.length prefix)
                     (String.length line - String.length prefix))
              in
              let kb =
                match String.index_opt rest ' ' with
                | Some i -> String.sub rest 0 i
                | None -> rest
              in
              int_of_string_opt kb
            else scan ()
      in
      let result = scan () in
      close_in_noerr ic;
      result

let ckpt_delta (s0 : Checkpoint.stats option) (s1 : Checkpoint.stats option) =
  match (s0, s1) with
  | Some a, Some b ->
      Some
        {
          units_stored = b.Checkpoint.units_stored - a.Checkpoint.units_stored;
          units_restored = b.Checkpoint.units_restored - a.Checkpoint.units_restored;
          writes = b.Checkpoint.writes - a.Checkpoint.writes;
          write_seconds = b.Checkpoint.write_seconds -. a.Checkpoint.write_seconds;
        }
  | None, Some b ->
      Some
        {
          units_stored = b.Checkpoint.units_stored;
          units_restored = b.Checkpoint.units_restored;
          writes = b.Checkpoint.writes;
          write_seconds = b.Checkpoint.write_seconds;
        }
  | _, None -> None

let measure ~seed ~scale ?domains f =
  let domains =
    match domains with
    | Some d -> d
    | None -> Churnet_util.Parallel.domains_from_env ()
  in
  let c0 = Checkpoint.active_stats () in
  let rss0 = peak_rss_kb () in
  let g0 = Gc.quick_stat () in
  let minor0, major0 = Churnet_util.Parallel.words () in
  let t0 = now () in
  let result = f () in
  let wall_seconds = now () -. t0 in
  let minor1, major1 = Churnet_util.Parallel.words () in
  let g1 = Gc.quick_stat () in
  let rss1 = peak_rss_kb () in
  let c1 = Checkpoint.active_stats () in
  (* VmHWM is process-wide and monotone, so in a multi-cell run every
     cell after the first inherits the maximum of its predecessors.  The
     watermark is honestly attributable to *this* cell only when it rose
     during the call; when it predates the cell we omit the per-cell
     field rather than report a predecessor's footprint. *)
  let cell_peak_rss_kb =
    match (rss0, rss1) with
    | Some before, Some after when after > before -> Some after
    | _ -> None
  in
  ( result,
    {
      wall_seconds;
      minor_words = minor1 -. minor0;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_words = major1 -. major0;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      domains;
      seed;
      scale;
      checkpoint = ckpt_delta c0 c1;
      peak_rss_kb = rss1;
      cell_peak_rss_kb;
    } )

let ckpt_to_json c =
  Json.Obj
    [
      ("units_stored", Json.Int c.units_stored);
      ("units_restored", Json.Int c.units_restored);
      ("writes", Json.Int c.writes);
      ("write_seconds", Json.of_finite c.write_seconds);
    ]

let to_json t =
  Json.Obj
    ([
       ("wall_seconds", Json.of_finite t.wall_seconds);
       ("minor_words", Json.of_finite t.minor_words);
       ("promoted_words", Json.of_finite t.promoted_words);
       ("major_words", Json.of_finite t.major_words);
       ("minor_collections", Json.Int t.minor_collections);
       ("major_collections", Json.Int t.major_collections);
       ("domains", Json.Int t.domains);
       ("seed", Json.Int t.seed);
       ("scale", Json.String (Scale.to_string t.scale));
     ]
    @ (match t.peak_rss_kb with None -> [] | Some kb -> [ ("peak_rss_kb", Json.Int kb) ])
    @ (match t.cell_peak_rss_kb with
      | None -> []
      | Some kb -> [ ("cell_peak_rss_kb", Json.Int kb) ])
    @ match t.checkpoint with None -> [] | Some c -> [ ("checkpoint", ckpt_to_json c) ])
