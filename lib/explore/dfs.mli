(** Stateless depth-first exploration of the schedule space, with optional
    schedule bounding (paper §3, "Maple's systematic mode").

    The walk maintains an explicit stack of scheduling decisions; every
    terminal schedule costs one full re-execution of the program from its
    initial state (stateless model checking). Children at a scheduling point
    are ordered by round-robin distance from the previously scheduled thread,
    so the first terminal schedule explored is the non-preemptive round-robin
    schedule — identical for IPB, IDB and DFS, as in the paper.

    The campaign loop lives in {!Driver}; this module provides the walk as
    a {!Strategy.STRATEGY} instance plus the {!Strategy.tree_walk} sharding
    capability the parallel engine partitions. *)

type bound =
  | Unbounded
  | Preemption of int  (** prune schedules with [PC > c] *)
  | Delay of int  (** prune schedules with [DC > c] *)
  | Variable of int
      (** variable bounding: prune schedules that preempt around more than
          [c] distinct shared objects — the cost of a preemption is 1 only
          the first time the preempted thread's pending shared object (id
          [-1] for objectless operations) enters the run's footprint *)
  | Threads of int
      (** thread bounding: prune schedules that preempt more than [c]
          distinct threads — the cost of a preemption is 1 only the first
          time the preempted thread enters the run's footprint *)

type level_result = Strategy.walk_result = {
  counted : int;  (** terminal schedules counted by this call *)
  buggy : int;
  to_first_bug : int option;  (** 1-based index among counted schedules *)
  first_bug : Stats.bug_witness option;
  pruned : bool;  (** at least one child was cut off by the bound *)
  hit_limit : bool;  (** stopped because [limit] schedules were counted *)
  hit_deadline : bool;  (** stopped because the wall-clock deadline passed *)
  complete : bool;  (** the (bounded) tree was exhausted *)
  executions : int;
  steps_executed : int;  (** decisions of every execution (see {!Stats.t}) *)
  n_threads : int;
  max_enabled : int;
  max_sched_points : int;
}

type frontier_info = Strategy.frontier_info = {
  fi_prefix : (Sct_core.Tid.t * Sct_core.Tid.t list) array;
      (** the (chosen, enabled) decisions of this execution above
          [max_branch_depth] — a replayable subtree prefix *)
  fi_branched_below : bool;
      (** some decision at depth ≥ [max_branch_depth] had more than one
          in-bound child, i.e. the prefix denotes a subtree with more than
          one terminal schedule *)
}
(** Per-execution frontier information reported to [on_exec]; used by the
    parallel engine (lib/parallel) to partition the schedule tree. *)

(** {1 Bound cost by round-robin position}

    Once a schedule has a last thread, the [k]-th child of
    {!Sct_core.Delay.rr_order} costs exactly [k] delays, and every child but
    the first costs [step] preemptions, where [step] is 1 iff the last
    thread is still enabled (it is then the first child). Costs never
    decrease along the order, so the in-bound children of a decision are a
    prefix of it, found without computing any per-child cost. *)

val in_bound_prefix :
  bound ->
  budget:int ->
  last:Sct_core.Tid.t option ->
  step:int ->
  Sct_core.Tid.t list ->
  Sct_core.Tid.t list * bool
(** [in_bound_prefix bound ~budget ~last ~step order] is the longest prefix
    of [order] (a {!Sct_core.Delay.rr_order}) whose children cost at most
    [budget], and whether any child was left out. [step] is the cost of a
    non-first child under [Preemption], [Variable] and [Threads] (for the
    footprint bounds, 0 when the preemption's key is already in the run's
    footprint); it is ignored under [Unbounded] and [Delay]. Every child
    costs 0 when [last] is [None]. [order] itself is returned when every
    child fits; otherwise the walk stops after the kept children. *)

val preemption_step : Sct_core.Runtime.ctx -> int
(** The [step] of preemption bounding at the decision: 1 iff the last
    thread is still enabled (an O(1) read of the runtime's cached bit). *)

val in_bound_children :
  bound ->
  Sct_core.Runtime.ctx ->
  footprint:int ->
  step:int ->
  Sct_core.Tid.t list * bool
(** {!in_bound_prefix} at the decision in [ctx]: over the decision's
    round-robin order, with the budget left after the cost spent so far —
    the runtime's own {!Sct_core.Runtime.preemptions} or
    {!Sct_core.Runtime.delays}, or [footprint] (the run's footprint
    cardinality) under the footprint bounds. *)

(** The reusable walk machinery: decision stack, prefix replay, bound
    accounting and backtracking for one (bounded) level of the schedule
    tree. {!Bounded} drives one walk per bound level through its own
    strategy. *)
module Walk : sig
  type t

  val make :
    ?prefix:(Sct_core.Tid.t * Sct_core.Tid.t list) array ->
    ?max_branch_depth:int ->
    ?count_exact:int ->
    ?fair:int ->
    ?length:int ->
    ?on_exec:(Sct_core.Runtime.result -> frontier_info -> unit) ->
    bound:bound ->
    unit ->
    t
  (** [fair] composes fair bounding with the structural bound: a thread may
      yield only while its per-run yield count stays within [fair] of the
      least-yielding live thread; when every enabled candidate is an
      over-bound yield the execution is abandoned ({!Sct_core.Runtime.Cut},
      a [v_cut] verdict). [length] cuts executions asking for more than
      [length] decisions (schedules of exactly [length] still count). Both
      filters only remove whole runs, never restructure the tree, so the
      walk order of surviving schedules is unchanged. *)

  val begin_run : t -> unit
  val choose : t -> Sct_core.Runtime.ctx -> Sct_core.Tid.t

  val on_terminal : t -> Sct_core.Runtime.result -> Strategy.verdict
  (** Report frontier info, decide whether the schedule counts
      ([count_exact]), and backtrack; the phase is over when the tree is
      exhausted. *)

  val counts : t -> Sct_core.Runtime.result -> bool
  val pruned : t -> bool

  val aux_pruned : t -> bool
  (** Some execution was cut (or some candidate filtered) by the fair or
      length filter: the walk is no longer complete for the underlying
      structural bound, and no larger structural bound restores the cut
      children (iterative bounding must not climb levels over it). *)

  val exhausted : t -> bool

  val restricted : t -> bool
  (** The walk carries a fair or length filter. Restricted walks declare
      [supports_por = false]: the reduction restructures the schedule
      tree, which is only sound for unrestricted walks. *)
end

val strategy_of_walk : ?technique:string -> Walk.t -> Strategy.t
(** The single-phase strategy driving the given walk; the caller keeps the
    walk to read {!Walk.pruned} after the campaign. *)

val strategy :
  ?count_exact:int -> ?fair:int -> ?length:int -> bound:bound -> unit ->
  Strategy.t
(** A fresh single-level DFS strategy (the [--technique dfs] registration;
    with [fair]/[length], the execution-level bounding axes of
    {!Axes}). *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?count_exact:int ->
  ?fair:int ->
  ?length:int ->
  ?on_schedule:(Sct_core.Runtime.result -> unit) ->
  ?record_decisions:bool ->
  ?prefix:(Sct_core.Tid.t * Sct_core.Tid.t list) array ->
  ?max_branch_depth:int ->
  ?on_exec:(Sct_core.Runtime.result -> frontier_info -> unit) ->
  ?deadline:float ->
  bound:bound ->
  limit:int ->
  (unit -> unit) ->
  level_result
(** [explore ~bound ~limit program] walks the schedule tree within [bound]
    — {!Driver.explore} over {!strategy_of_walk}, lifted back to a
    {!level_result}. With [count_exact = Some c], only terminal schedules
    whose exact preemption (resp. delay) count equals [c] are counted —
    this is how iterative bounding counts each distinct schedule exactly
    once across levels (see DESIGN.md). Exploration never stops early on a
    bug: the paper completes the current bound level to enable worst-case
    analysis.

    [on_schedule] is called on every counted terminal schedule's execution
    result; pass [record_decisions:true] if the callback needs the decision
    trace (off by default for speed).

    [prefix] pins the first decisions: they are replayed (with the
    determinism check and bound accounting) on every execution and never
    backtracked, so the walk explores exactly the subtree below the prefix
    in standard DFS order. [max_branch_depth = d] restricts backtracking to
    decisions at depth < [d]; deeper decisions deterministically follow the
    first in-bound child, so each execution reaches the first terminal
    schedule of its depth-[d] subtree — the frontier-enumeration mode of the
    parallel engine. [on_exec] is called on {e every} execution (counted or
    not) with its frontier information.

    @raise Failure if the program is nondeterministic (the enabled set at a
    replayed decision differs from the recorded one). *)

val level_result_of_stats : pruned:bool -> Stats.t -> level_result

val stats_of : technique:string -> level_result -> Stats.t
(** Lift a walk result into the Table 3 statistics record. *)

val tree_walk :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?count_exact:int ->
  ?deadline:float ->
  bound:bound ->
  (unit -> unit) ->
  Strategy.tree_walk
(** The subtree-sharding capability of this walk: frontier enumeration,
    pinned-prefix sub-walks, and the exact-count filter. *)

val tree_campaign :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?deadline:float ->
  bound:bound ->
  limit:int ->
  (unit -> unit) ->
  (Strategy.tree_walk -> limit:int -> Strategy.walk_result) ->
  Stats.t
(** The whole DFS campaign as a function of a walk runner — instantiated
    sequentially or with [Sct_parallel.Frontier.run]. *)
