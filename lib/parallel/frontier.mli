(** Frontier-partitioned parallel execution of systematic schedule-tree
    walks.

    The schedule tree is split at a fixed decision depth: a sequential
    enumeration pass walks the tree with backtracking restricted to depths
    below [split_depth] (the tree walk's [max_branch_depth]), discovering
    one depth-[split_depth] subtree per execution, in DFS order. Subtrees
    with internal branching are explored on pool workers (each worker
    replays the pinned prefix and runs an ordinary walk below it);
    single-schedule subtrees reuse the enumeration's own execution.

    Partition results are merged {e in DFS order}, so the merged
    {!Sct_explore.Strategy.walk_result} is identical to a sequential walk:
    schedule counts and executions add up, first-bug indices are offset by
    the schedules counted before the partition, and when the cumulative
    count crosses the schedule limit the crossing subtree is re-walked with
    the exact remaining budget so the truncated statistics (executions,
    observation maxima, first bug) match the sequential stop point.

    The only field that can differ from a sequential walk is [pruned], and
    only when [hit_limit] is set: the enumeration looks one execution into
    subtrees beyond the stop point and may observe pruning there. The
    iterative-bounding loop only consumes [pruned] when a level completes,
    where the flag is exact — so {!explore_bounded} is exactly
    sequential-equivalent.

    {b Partial-order-reduced walks are never partitioned.} The split-depth
    scheme relies on depth-[split_depth] subtrees being independent: a
    pinned prefix plus an ordinary walk below it covers exactly that
    subtree. A reduction walk ([Sct_explore.Por.Walk]) breaks this — its
    sleep sets and DPOR backtrack sets are global to the walk (a race
    observed inside one subtree adds backtrack points to frames {e above}
    the split depth, and a subtree's sleep set depends on which siblings
    were explored before it), so the partitions are not independent and
    their merge would not reproduce the sequential reduction.
    [Drivers.run] therefore routes POR cells to the sequential path for
    every [--jobs] value; a POR cell's statistics are byte-identical for
    every pool size. *)

val run :
  pool:Pool.t ->
  ?split_depth:int ->
  Sct_explore.Strategy.tree_walk ->
  limit:int ->
  Sct_explore.Strategy.walk_result
(** The generic runner: parallelise one abstract tree walk. This is the
    interpreter of the {!Sct_explore.Strategy.Shard_tree} capability — it
    has no knowledge of which technique it runs. [split_depth] defaults
    to 3. The program closure behind the walk is invoked concurrently on
    several domains, one execution per domain at a time; it must create all
    of its state inside the call (every SCTBench benchmark does). *)

val explore :
  pool:Pool.t ->
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?count_exact:int ->
  ?split_depth:int ->
  ?deadline:float ->
  bound:Sct_explore.Dfs.bound ->
  limit:int ->
  (unit -> unit) ->
  Sct_explore.Dfs.level_result
(** Parallel equivalent of [Sct_explore.Dfs.explore] (without the callback
    arguments): {!run} over [Sct_explore.Dfs.tree_walk]. *)

val explore_bounded :
  pool:Pool.t ->
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?max_levels:int ->
  ?split_depth:int ->
  ?deadline:float ->
  kind:Sct_explore.Bounded.kind ->
  limit:int ->
  (unit -> unit) ->
  Sct_explore.Stats.t
(** Parallel equivalent of [Sct_explore.Bounded.explore]:
    [Sct_explore.Bounded.tree_campaign] instantiated with {!run}. Produces
    statistics equal ([Sct_explore.Stats.equal]) to the sequential function
    for every pool size. *)
