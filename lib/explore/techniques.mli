(** Uniform front-end over the concurrency-testing techniques of the study
    (paper §5): the race-detection phase followed by any of the IPB, IDB,
    DFS, Rand and MapleAlg phases, plus the PCT and SURW extensions.

    Every technique is a {!Strategy.STRATEGY} value. {!run} has two
    routes: the {!Por.Walk} reduction when [options.por] is set and the
    technique supports it, else {!Driver.explore} applied to the
    registered strategy. *)

type t =
  | IPB
  | IDB
  | DFS
  | Rand
  | PCT
  | Maple
  | SURW
  | Fair  (** fair bounding over iterative preemption bounding ({!Axes}) *)
  | Length  (** length bounding ({!Axes}) *)
  | IVB  (** iterative variable bounding ({!Axes}) *)
  | ITB  (** iterative thread bounding ({!Axes}) *)

val all_paper : t list
(** The five techniques of Table 3, in the paper's column order. PCT and
    SURW are study extensions, excluded from the paper tables by default;
    so are the {!Axes} bounding axes (Fair, Length, IVB, ITB). *)

val all : t list
(** Every technique, paper order first, then the extensions. *)

val name : t -> string
val of_name : string -> t option

val valid_names : string list
(** The canonical names accepted by {!of_name}, for CLI error messages. *)

val parse_list : ?default:t list -> string list -> (t list, string) result
(** Parse a [--technique] specification: each element may hold several
    comma-separated names; empty fragments (as in ["ipb,,rand"] or a
    trailing comma) are ignored. Duplicate names are {e deduplicated} —
    the first occurrence wins and order is preserved — so repeating a
    technique never runs it twice. An empty [specs] list yields [default]
    ([all_paper] unless overridden); a non-empty [specs] that reduces to
    zero names is an error (the flag was given but named nothing), as is
    any unknown name — both errors list every valid name. *)

type options = {
  limit : int;  (** schedule limit per technique (paper: 10,000) *)
  seed : int;
  max_steps : int;  (** per-execution live-lock guard *)
  race_runs : int;  (** data-race detection executions (paper: 10) *)
  pct_change_points : int;
  maple_profile_runs : int;
  jobs : int;
      (** worker domains for the parallel engine (lib/parallel); [run] and
          [run_all] below are always sequential — a value > 1 takes effect
          through [Sct_parallel.Drivers] / [Sct_parallel.Suite], which
          produce identical statistics for every [jobs] value *)
  split_depth : int;
      (** decision depth at which the parallel engine splits the DFS/IPB/IDB
          schedule tree into subtree partitions *)
  time_limit : float option;
      (** wall-clock budget in seconds per campaign; [None] (the default)
          disables the deadline and keeps runs fully deterministic *)
  por : Por.mode option;
      (** compose the systematic tree walkers (strategies declaring
          [supports_por]) with the bounded partial-order reduction of
          {!Por.Walk}: sleep sets / DPOR with BPOR's conservative
          backtracking points under IPB/IDB bounds. A POR cell runs
          sequential for every [jobs] value; other techniques are
          unaffected *)
  fair_bound : int;
      (** the Fair technique's yield-difference bound ([--fair-bound],
          default {!Axes.default_fair_bound}); other techniques ignore it *)
  length_bound : int;
      (** the Length technique's schedule-length bound ([--length-bound],
          default {!Axes.default_length_bound}); other techniques ignore
          it *)
}

val default_options : options
(** [limit = 10_000; seed = 0; max_steps = 100_000; race_runs = 10;
    pct_change_points = 2; maple_profile_runs = 10; jobs = 1;
    split_depth = 3; time_limit = None; por = None;
    fair_bound = 5; length_bound = 250]. *)

val deadline_of : options -> float option
(** The absolute deadline for a campaign starting now, from
    [options.time_limit]. *)

val dfs_stats : technique:string -> Dfs.level_result -> Stats.t
(** Lift a DFS level result into the Table 3 statistics record. *)

val strategy :
  ?promote:(string -> bool) -> options -> t -> (unit -> unit) -> Strategy.t
(** The registered strategy of a technique under the given options — pure
    registration; all control flow lives in {!Driver.explore}. *)

val sequential_only : t -> bool
(** The technique runs on the sequential driver for every [--jobs] value
    (the {!Axes} techniques: their schedule trees cannot be partitioned by
    the frontier). [Sct_parallel.Drivers.run] consults this before
    {!sharding}; suite-level cell parallelism still applies, and cell
    statistics stay byte-identical across [jobs]. *)

val sharding :
  ?promote:(string -> bool) ->
  options ->
  t ->
  (unit -> unit) ->
  Strategy.sharding
(** The declared parallel plan of a technique, dispatched by
    [Sct_parallel.Drivers] from the capability constructor alone.
    @raise Invalid_argument on a {!sequential_only} technique. *)

val supports_por : t -> bool
(** The technique's declared [supports_por] capability (read off its
    {!Strategy.STRATEGY} instance): true for the systematic tree walkers
    DFS, IPB and IDB. *)

val run :
  ?promote:(string -> bool) -> options -> t -> (unit -> unit) -> Stats.t
(** Run one technique with an externally supplied promotion predicate
    (defaults to promoting nothing): {!Driver.explore} over {!strategy},
    budgeted by [options.limit] and [options.time_limit]. With
    [options.por], techniques whose strategy declares [supports_por] run
    the {!Por.Walk} reduction instead — fewer executions to the same bugs,
    [Stats.por_pruned] counting the sleep-pruned runs. *)

val detect_races : options -> (unit -> unit) -> Sct_race.Promotion.result
(** Phase 1: the data-race detection phase. *)

val run_all :
  ?techniques:t list ->
  options ->
  (unit -> unit) ->
  Sct_race.Promotion.result * (t * Stats.t) list
(** The full per-benchmark pipeline: detect races, promote racy locations,
    then run each technique ([all_paper] by default). *)
