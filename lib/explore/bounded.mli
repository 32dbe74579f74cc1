(** Iterative schedule bounding (paper §2, §5).

    All terminal schedules with zero preemptions (resp. delays) are explored
    first, then those with one, etc., until a bug is found (the level is
    still completed), the schedule limit is reached, or the whole space has
    been explored. Each distinct terminal schedule is counted exactly once,
    at the level equal to its exact preemption/delay count.

    The campaign is a multi-phase {!Strategy.STRATEGY} (one phase per bound
    level) run by {!Driver.explore}; {!tree_campaign} exposes the same
    level progression over an abstract walk runner for the
    frontier-partitioned parallel engine.

    {b Partial-order reduction (BPOR).} {!strategy} with [~por] runs each
    level's count-exact walk on the {!Por.Walk} reduction core instead of
    the plain {!Dfs.Walk}: sleep sets and DPOR backtracking prune
    schedules that only commute independent operations, with the
    conservative backtracking points of BPOR at the prior context switch
    restoring soundness under the bound (plain DPOR is {e unsound} under
    preemption/delay bounding — the bound can make a recorded backtrack
    alternative unreachable at the level even though an equivalent
    execution spending its budget earlier stays in bound; see por.mli for
    the full invariant and the sleep-set caveat). The level progression is
    unchanged: [Por.Walk.pruned] reports bound cut-offs — including
    backtrack points whose bound delta exceeds the level — exactly like
    the plain walk, so a level that exhausts unpruned still proves the
    whole space explored.

    {b Interaction contract.} {!tree_campaign} / [Sct_parallel.Frontier]
    never partition reduced walks — backtrack and sleep sets are global to
    the walk. [Sct_parallel.Drivers.run] routes POR cells to the
    sequential path for every [--jobs] value, so statistics stay
    byte-identical across [jobs]. *)

type kind =
  | Preemption_bounding
  | Delay_bounding
  | Variable_bounding
      (** iterative variable bounding: level [c] counts the schedules that
          preempt around at most (exactly, for counting) [c] distinct
          shared objects ({!Dfs.bound.Variable}) *)
  | Thread_bounding
      (** iterative thread bounding: level [c] counts the schedules that
          preempt at most (exactly) [c] distinct threads
          ({!Dfs.bound.Threads}) *)

val technique_name : kind -> string
(** ["IPB"], ["IDB"], ["IVB"] or ["ITB"]. *)

val bound_of : kind -> int -> Dfs.bound
(** The level-[c] walk bound of this kind. *)

val structural : kind -> bool
(** Whether the kind's per-level trees may be restructured by the POR
    machinery (IPB/IDB only: the footprint kinds count levels
    path-dependently). *)

val strategy :
  ?max_levels:int ->
  ?por:Por.mode ->
  ?fair:int ->
  ?technique:string ->
  ?on_prune:(unit -> unit) ->
  kind:kind ->
  unit ->
  Strategy.t
(** The iterative-bounding strategy; [max_levels] (default 64) caps the
    number of bound levels as a safety net. [por] runs each level on the
    BPOR reduction walk (see the module preamble); [on_prune] fires once
    per sleep-pruned run, feeding the [Stats.por_pruned] counter.

    [fair] composes the fair filter of {!Dfs.Walk.make} with every level's
    walk (the [Axes.fair] technique: iterative preemption bounding over
    fairly-bounded executions, the composition of the dejafu default
    bounds). A campaign with [fair] (or a non-structural [kind]) declares
    [supports_por = false], and its
    [Stats.complete] additionally requires that no level cut an execution
    on the fair filter. [technique] overrides the recorded technique
    name. *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?max_levels:int ->
  ?por:Por.mode ->
  ?fair:int ->
  ?technique:string ->
  ?on_prune:(unit -> unit) ->
  ?deadline:float ->
  kind:kind ->
  limit:int ->
  (unit -> unit) ->
  Stats.t
(** [explore ~kind ~limit program] performs the full iterative search with a
    total budget of [limit] counted terminal schedules —
    {!Driver.explore} over {!strategy}. *)

val level_loop :
  ?max_levels:int ->
  technique:string ->
  walk:(c:int -> limit:int -> Strategy.walk_result) ->
  limit:int ->
  unit ->
  Stats.t
(** The level progression over an abstract per-level walk: explore level
    [c] with the remaining budget, stop on bug / limit / deadline /
    unpruned completion, else continue at [c + 1]. Produces statistics
    equal to {!explore} when [walk] behaves like the sequential
    count-exact walk. *)

val tree_campaign :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?max_levels:int ->
  ?deadline:float ->
  kind:kind ->
  limit:int ->
  (unit -> unit) ->
  (Strategy.tree_walk -> limit:int -> Strategy.walk_result) ->
  Stats.t
(** The whole campaign as a function of a walk runner: each level's
    count-exact {!Dfs.tree_walk} is handed to the runner — sequential, or
    [Sct_parallel.Frontier.run] for the subtree-sharded parallel plan. *)
