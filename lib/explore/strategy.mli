(** The first-class technique interface.

    Every concurrency-testing technique of the study — DFS, IPB, IDB, Rand,
    PCT, MapleAlg, and the SURW extension — is an instance of the
    {!STRATEGY} signature, executed by the single generic driver
    ({!Driver.explore}). The strategy owns {e what to run next}; the driver
    owns everything cross-cutting: the schedule budget, the wall-clock
    deadline, statistics accumulation into {!Stats.t}, distinct-schedule
    tracking, bug witnesses and event hooks. See DESIGN.md §10.

    A campaign is a sequence of {e phases} (iterative bounding runs one
    phase per bound level; every other technique has exactly one phase).
    Within a phase the driver repeatedly asks the strategy to schedule one
    execution; the strategy's {!STRATEGY.on_terminal} verdict says whether
    the terminal schedule counts against the budget and whether the phase
    is over. *)

type phase = {
  ph_bound : int option;
      (** the bound level being explored; recorded as [Stats.bound] when
          the budget or the deadline stops the campaign inside this phase *)
  ph_new_at_bound : bool;
      (** when true, the schedules counted during this phase are the
          paper's "new at final bound" statistic if the campaign stops
          inside (or right after) this phase *)
}

type finish = {
  f_complete : bool;  (** the whole schedule space was explored *)
  f_bound : int option;  (** final [Stats.bound] *)
  f_bound_complete : bool;  (** the final bound level was fully explored *)
  f_new_at_bound : bool;
      (** when true, the last phase's counted schedules are recorded as
          [Stats.new_at_bound] *)
}

type phase_step = Phase of phase | Finished of finish

type verdict = {
  v_counts : bool;
      (** the terminal schedule counts against the budget (iterative
          bounding replays out-of-level schedules without counting them) *)
  v_phase_over : bool;  (** the phase is exhausted; ask for the next one *)
  v_cut : bool;
      (** the execution was cut mid-run by an execution-level bound (fair
          or length bounding raised {!Sct_core.Runtime.Cut}): the truncated
          prefix is not a terminal schedule ([v_counts] is false), but the
          driver charges it against the budget so cut-heavy spaces cannot
          spin without budget progress *)
}

module type STRATEGY = sig
  val technique : string
  (** Name recorded in the statistics (e.g. ["IPB"]). *)

  (** {2 Declared capabilities} *)

  val tracks_distinct : bool
  (** The technique may re-explore schedules, so the driver keeps the set
      of distinct terminal schedules (randomised techniques). *)

  val respects_limit : bool
  (** When [false] the campaign's length is intrinsic (MapleAlg attempts
      each candidate once) and the driver ignores the schedule limit. *)

  val supports_por : bool
  (** The technique's schedule tree can be walked by the partial-order
      reduction core ({!Por.Walk}): sleep sets and DPOR backtracking prune
      schedules that only commute independent operations, and for the
      bounded walkers the reduction adds the conservative backtracking
      points of BPOR (Coons, Musuvathi, McKinley). True only for the
      systematic tree walkers (DFS, IPB, IDB). *)

  (** {2 Campaign state} *)

  type state

  val init : unit -> state
  (** Per-campaign setup; may execute uncounted probe runs (PCT, SURW). *)

  val next_phase : state -> phase_step
  (** Called before the first execution and after every phase-over verdict. *)

  val begin_run : state -> unit
  (** Called before each execution (reset per-run scheduler state). *)

  val listener : state -> (Sct_core.Event.t -> unit) option
  (** Event listener for the next execution (MapleAlg profiling); read
      after {!begin_run}. *)

  val choose : state -> Sct_core.Runtime.ctx -> Sct_core.Tid.t
  (** The scheduler: pick one of [ctx.c_enabled] at each scheduling point. *)

  val on_terminal : state -> Sct_core.Runtime.result -> verdict
  (** Observe the terminal state of the execution just run and advance the
      strategy (backtrack, move to the next seed / candidate, ...). *)
end

type t = (module STRATEGY)

(** {1 Sharding capabilities}

    How a campaign may be parallelised, declared per technique and
    interpreted generically by [Sct_parallel.Drivers] — the shape of the
    value, not the identity of the technique, decides the parallel plan. *)

type prefix = (Sct_core.Tid.t * Sct_core.Tid.t list) array
(** Pinned (chosen, enabled) decisions — a replayable subtree prefix. *)

type frontier_info = {
  fi_prefix : prefix;
  fi_branched_below : bool;
      (** the prefix denotes a subtree with more than one terminal
          schedule *)
}

type walk_result = {
  counted : int;  (** terminal schedules counted by this walk *)
  buggy : int;
  to_first_bug : int option;  (** 1-based index among counted schedules *)
  first_bug : Stats.bug_witness option;
  pruned : bool;  (** at least one child was cut off by the bound *)
  hit_limit : bool;  (** stopped because [limit] schedules were counted *)
  hit_deadline : bool;  (** stopped because the wall-clock deadline passed *)
  complete : bool;  (** the (bounded) tree was exhausted *)
  executions : int;
  steps_executed : int;
      (** decisions of every execution of the walk (see {!Stats.t}) *)
  n_threads : int;
  max_enabled : int;
  max_sched_points : int;
}
(** Result of one (bounded) schedule-tree walk; [Dfs.level_result] is an
    alias of this type. *)

type tree_walk = {
  tw_enum :
    max_branch_depth:int ->
    on_exec:(Sct_core.Runtime.result -> frontier_info -> unit) ->
    limit:int ->
    walk_result;
      (** frontier-enumeration walk: backtracking restricted to decisions
          above [max_branch_depth]; [on_exec] sees every execution's
          frontier info *)
  tw_sub : prefix:prefix -> limit:int -> walk_result;
      (** walk exactly the subtree below [prefix] *)
  tw_counts : Sct_core.Runtime.result -> bool;
      (** whether a terminal schedule counts (the level's exact-count
          filter) *)
}
(** A systematic walk, abstract enough for [Sct_parallel.Frontier] to
    partition it by subtree without knowing the bound function. *)

type batched_run = unit -> Sct_core.Runtime.result * (unit -> unit)
(** An independent run: executed on any domain, it returns the execution
    result and a commit closure the collector applies in sequential order
    (MapleAlg unions per-run iRoot sets this way). *)

type run_batches = {
  rb_next : unit -> batched_run list option;
      (** next batch of independent runs, or [None] when the campaign is
          over; called on the collector after the previous batch was fully
          absorbed *)
  rb_found : unit -> bool;
      (** campaign already found its bug: remaining runs of the current
          batch are discarded unabsorbed, exactly as the sequential
          algorithm would not have executed them *)
  rb_absorb : Sct_core.Runtime.result -> unit;
      (** fold one run's result, in batch order, after its commit closure *)
  rb_finish : unit -> Stats.t;
}

type sharding =
  | Shard_seed of (lo:int -> hi:int -> Stats.t)
      (** run [i] is a pure function of the campaign seed and [i]: shard
          the run range [\[0, limit)] into contiguous slices and fold
          {!Stats.merge} (Rand, PCT, SURW) *)
  | Shard_tree of ((tree_walk -> limit:int -> walk_result) -> Stats.t)
      (** systematic walks: the campaign is a function of a walk runner,
          instantiated with the frontier-partitioned parallel runner
          (DFS, IPB, IDB) *)
  | Shard_runs of run_batches
      (** finite batches of independent runs merged in order (MapleAlg) *)
