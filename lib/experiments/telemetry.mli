(** Per-experiment telemetry: wall-clock time and GC deltas captured
    around one experiment run, plus the run configuration (seed, scale,
    domain count) so a serialized report is self-describing.  This is
    what turns a report into a point on the perf trajectory — the
    [churnet-report/1] files diffable across commits. *)

type ckpt = {
  units_stored : int;  (** work units journaled during the run *)
  units_restored : int;  (** units served from the journal (resume hits) *)
  writes : int;  (** journal file writes *)
  write_seconds : float;  (** wall-clock time spent writing the journal *)
}

type t = {
  wall_seconds : float;  (** elapsed wall-clock time *)
  minor_words : float;  (** [Parallel.words] delta *)
  promoted_words : float;  (** [Gc.quick_stat] delta, as the collection counts *)
  major_words : float;  (** [Parallel.words] delta *)
  minor_collections : int;
  major_collections : int;
  domains : int;  (** worker domains the run was configured with *)
  seed : int;
  scale : Scale.t;
  checkpoint : ckpt option;
      (** checkpoint-journal activity during the run; [None] when no
          journal was installed *)
  peak_rss_kb : int option;
      (** the process's peak resident set (VmHWM, in kB) as of the end of
          the run; [None] where procfs is unavailable.  Process-wide and
          monotone: in a multi-cell run it carries the maximum over this
          cell {e and all predecessors}. *)
  cell_peak_rss_kb : int option;
      (** the watermark when it is honestly attributable to this cell:
          [Some] (the end-of-run VmHWM) only when the watermark rose
          during the measured call, [None] when it predates the cell (a
          predecessor's footprint) or procfs is unavailable *)
}

val now : unit -> float
(** The wall clock ([Unix.gettimeofday]).  Telemetry is the one library
    module allowed to observe wall-clock time (churnet-lint's
    no-wallclock rule); callers that need a clock — e.g. the CLI handing
    one to [Checkpoint.set_clock] — must take this one rather than
    reading the OS clock themselves. *)

val peak_rss_kb : unit -> int option
(** The process's peak resident set so far (VmHWM from
    [/proc/self/status], in kB); monotone over the process lifetime.
    [None] where procfs is unavailable.  The kernels bench reports it
    next to its timings for the XL memory envelope. *)

val measure :
  seed:int -> scale:Scale.t -> ?domains:int -> (unit -> 'a) -> 'a * t
(** [measure ~seed ~scale f] runs [f ()] and returns its result together
    with the wall-clock/GC telemetry of the call.  [?domains] defaults
    to [Churnet_util.Parallel.domains_from_env ()].  Words come from
    {!Churnet_util.Parallel.words}, so they count worker domains too.
    When a {!Churnet_util.Checkpoint} journal is installed the telemetry
    also carries the journal-activity delta across the call. *)

val to_json : t -> Churnet_util.Json.t
(** Flat object: wall_seconds, minor/promoted/major words, collection
    counts, domains, seed and scale (as a string); plus "peak_rss_kb" /
    "cell_peak_rss_kb" when known and a "checkpoint" object (units
    stored/restored, writes, write_seconds) when a journal was
    active. *)
