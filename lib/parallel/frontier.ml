open Sct_core
open Sct_explore

(* A partition of the schedule tree, in sequential DFS order. The frontier
   enumeration already executed the first terminal schedule of every
   partition; when that subtree holds a single terminal schedule we keep the
   result instead of re-exploring it on a worker. *)
type partition =
  | Leaf of Runtime.result
  | Subtree of Strategy.prefix * Strategy.walk_result Pool.future

(* The generic frontier-partitioned runner: everything it needs from the
   technique is in the abstract {!Sct_explore.Strategy.tree_walk} — how to
   enumerate the frontier, how to walk one subtree, and whether a terminal
   schedule counts. No per-technique knowledge lives here. *)
let run ~pool ?(split_depth = 3) (tw : Strategy.tree_walk) ~limit :
    Strategy.walk_result =
  (* Phase 1: sequential frontier enumeration on this domain. Every
     execution pins the first in-bound child below [split_depth], so it
     reaches the first terminal schedule of its depth-[split_depth] subtree;
     subtrees with further branching are submitted to the pool as soon as
     they are discovered, in DFS order. *)
  let parts = ref [] in
  let on_exec (res : Runtime.result) (fi : Strategy.frontier_info) =
    let p =
      if fi.Strategy.fi_branched_below then
        let prefix = fi.Strategy.fi_prefix in
        Subtree
          (prefix, Pool.submit pool (fun () -> tw.Strategy.tw_sub ~prefix ~limit))
      else Leaf res
    in
    parts := p :: !parts
  in
  let enum = tw.Strategy.tw_enum ~max_branch_depth:split_depth ~on_exec ~limit in
  let parts = List.rev !parts in
  (* Phase 2: merge in partition (= sequential DFS) order. The enumeration
     counts at most one terminal schedule per partition, so whenever it
     stopped at the limit the merged walk is guaranteed to cross the limit
     within the collected partitions. *)
  let leaf_result (res : Runtime.result) =
    let counted = if tw.Strategy.tw_counts res then 1 else 0 in
    let buggy, to_first_bug, first_bug =
      if counted = 1 then
        match res.r_outcome with
        | Outcome.Bug { bug; by } ->
            ( 1,
              Some 1,
              Some
                {
                  Stats.w_bug = bug;
                  w_by = by;
                  w_schedule = res.r_schedule;
                  w_pc = res.r_pc;
                  w_dc = res.r_dc;
                } )
        | Outcome.Ok | Outcome.Step_limit -> (0, None, None)
      else (0, None, None)
    in
    {
      Strategy.counted;
      buggy;
      to_first_bug;
      first_bug;
      pruned = false;
      (* pruning at this leaf's decisions was observed by the enumeration *)
      hit_limit = false;
      hit_deadline = false;
      complete = true;
      executions = 1;
      steps_executed = res.r_steps;
      n_threads = res.r_n_threads;
      max_enabled = res.r_max_enabled;
      max_sched_points = res.r_multi_points;
    }
  in
  let counted = ref 0 in
  let buggy = ref 0 in
  let to_first_bug = ref None in
  let first_bug = ref None in
  let executions = ref 0 in
  let steps_executed = ref 0 in
  let n_threads = ref 0 in
  let max_enabled = ref 0 in
  let max_points = ref 0 in
  let pruned = ref enum.Strategy.pruned in
  let hit = ref false in
  let hit_deadline = ref enum.Strategy.hit_deadline in
  let rec merge = function
    | [] -> ()
    | p :: rest ->
        let r =
          match p with
          | Leaf res -> leaf_result res
          | Subtree (_, fut) -> Pool.await fut
        in
        let remaining = limit - !counted in
        let r =
          if r.Strategy.counted < remaining then r
          else begin
            (* This partition reaches the schedule limit. Reproduce the
               sequential stop point exactly — including the executions and
               observation maxima accumulated up to it — by re-walking the
               subtree with the remaining budget. *)
            hit := true;
            match p with
            | Leaf _ -> { r with Strategy.hit_limit = true }
            | Subtree (prefix, _) -> tw.Strategy.tw_sub ~prefix ~limit:remaining
          end
        in
        (match r.Strategy.to_first_bug with
        | Some i when !to_first_bug = None ->
            to_first_bug := Some (!counted + i);
            first_bug := r.Strategy.first_bug
        | _ -> ());
        counted := !counted + r.Strategy.counted;
        buggy := !buggy + r.Strategy.buggy;
        executions := !executions + r.Strategy.executions;
        steps_executed := !steps_executed + r.Strategy.steps_executed;
        n_threads := max !n_threads r.Strategy.n_threads;
        max_enabled := max !max_enabled r.Strategy.max_enabled;
        max_points := max !max_points r.Strategy.max_sched_points;
        pruned := !pruned || r.Strategy.pruned;
        hit_deadline := !hit_deadline || r.Strategy.hit_deadline;
        if !hit then
          List.iter
            (function Subtree (_, fut) -> Pool.cancel fut | Leaf _ -> ())
            rest
        else merge rest
  in
  merge parts;
  {
    Strategy.counted = !counted;
    buggy = !buggy;
    to_first_bug = !to_first_bug;
    first_bug = !first_bug;
    pruned = !pruned;
    hit_limit = !hit;
    hit_deadline = !hit_deadline;
    complete = (if !hit || !hit_deadline then false else enum.Strategy.complete);
    executions = !executions;
    steps_executed = !steps_executed;
    n_threads = !n_threads;
    max_enabled = !max_enabled;
    max_sched_points = !max_points;
  }

let explore ~pool ?promote ?max_steps ?count_exact ?split_depth ?deadline
    ~bound ~limit program =
  run ~pool ?split_depth
    (Dfs.tree_walk ?promote ?max_steps ?count_exact ?deadline ~bound program)
    ~limit

let explore_bounded ~pool ?promote ?max_steps ?max_levels ?split_depth
    ?deadline ~kind ~limit program =
  Bounded.tree_campaign ?promote ?max_steps ?max_levels ?deadline ~kind ~limit
    program
    (fun tw ~limit -> run ~pool ?split_depth tw ~limit)
