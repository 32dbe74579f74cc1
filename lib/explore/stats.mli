(** Per-technique exploration statistics: the columns of the paper's
    Table 3. *)

module Sched_set : Set.S with type elt = Sct_core.Tid.t list
(** Sets of terminal schedules, used to count distinct schedules exactly
    even when shards of a campaign are merged. *)

type bug_witness = {
  w_bug : Sct_core.Outcome.bug;
  w_by : Sct_core.Tid.t;
  w_schedule : Sct_core.Schedule.t;
  w_pc : int;  (** preemption count of the witness schedule *)
  w_dc : int;  (** delay count of the witness schedule *)
}

type t = {
  technique : string;
  bound : int option;
      (** bound at which the bug was found, or the bound reached when the
          schedule limit was hit; [None] for unbounded techniques *)
  bound_complete : bool;
      (** the final bound level was fully explored (Figures 3/4 worst-case
          analysis is valid only in this case) *)
  to_first_bug : int option;
      (** number of terminal schedules explored up to and including the
          first buggy one *)
  total : int;  (** total terminal schedules explored (counted once each) *)
  new_at_bound : int;
      (** schedules with exactly the final bound (the paper's
          "# new schedules") *)
  buggy : int;  (** buggy schedules among [total] *)
  complete : bool;  (** the entire schedule space was explored *)
  hit_limit : bool;  (** stopped because the schedule limit was reached *)
  hit_deadline : bool;
      (** stopped because the wall-clock [--time-limit] deadline passed;
          never set on deadline-free campaigns, whose statistics are
          byte-for-byte deterministic *)
  first_bug : bug_witness option;
  n_threads : int;  (** max threads created over all runs *)
  max_enabled : int;  (** max simultaneously enabled threads over all runs *)
  max_sched_points : int;
      (** max number of decisions with >1 enabled thread in one run *)
  executions : int;
      (** real program executions, including bounded-level replays *)
  steps_executed : int;
      (** scheduler decisions paid for: the decisions of every execution,
          counted or not, summed over the campaign (and by {!merge}) *)
  por_pruned : int;
      (** schedules pruned by partial-order reduction: executions cut
          because every in-bound enabled thread was asleep (the branch
          only held interleavings equivalent to already-explored ones).
          [0] on campaigns without [--por]; summed by {!merge}; emitted by
          the store codec only when nonzero, so pre-POR journals and
          fingerprints round-trip byte-identically. *)
  cut_runs : int;
      (** executions abandoned mid-run by an execution-level bound (fair or
          length bounding): truncated prefixes, not terminal schedules, but
          charged against the budget alongside [total]. [0] for every other
          technique; summed by {!merge}; emitted by the store codec only
          when nonzero, so pre-existing journals and fingerprints
          round-trip byte-identically. *)
  distinct_schedules : Sched_set.t option;
      (** the distinct schedules among [total], when the technique tracks
          them (the random scheduler re-explores duplicates, paper §3);
          kept as a set so shard merges union rather than double-count *)
}

val found : t -> bool

val distinct : t -> int option
(** Number of distinct schedules, when tracked. *)

val coverage : t -> int
(** Distinct schedules when tracked, the counted total otherwise
    (systematic techniques count every schedule once, so the total {e is}
    the distinct count). The campaign scheduler's per-cell coverage
    signal. *)

val base : technique:string -> t
(** All-zero statistics to be folded over. *)

val observe_run : t -> Sct_core.Runtime.result -> t
(** Fold a run's structural aggregates (threads / enabled / points). *)

val merge : t -> t -> t
(** Combine the statistics of two disjoint shards of one campaign (seed
    ranges of a random technique, partitions of a schedule space, repeated
    multi-seed campaigns). Counters are summed, structural maxima taken,
    distinct-schedule sets unioned, and the first bug is the one with the
    smaller [to_first_bug] — provided shards report [to_first_bug] in a
    common (absolute) index space. Equal indices are resolved by a stable
    total order on witnesses, making [merge] associative and commutative,
    with [base ~technique] as identity:
    {ul
    {- [merge a (merge b c) = merge (merge a b) c]}
    {- [merge a b = merge b a]}
    {- [merge (base ~technique:a.technique) a = a]}} *)

val compare_witness : bug_witness -> bug_witness -> int
(** The stable total order on witnesses used to break [merge] ties. *)

val equal_witness : bug_witness -> bug_witness -> bool

val equal : t -> t -> bool
(** Structural equality; distinct-schedule sets are compared as sets. *)

val pp : Format.formatter -> t -> unit
