open Sct_core

type kind =
  | Preemption_bounding
  | Delay_bounding
  | Variable_bounding
  | Thread_bounding

let technique_name = function
  | Preemption_bounding -> "IPB"
  | Delay_bounding -> "IDB"
  | Variable_bounding -> "IVB"
  | Thread_bounding -> "ITB"

let bound_of kind c =
  match kind with
  | Preemption_bounding -> Dfs.Preemption c
  | Delay_bounding -> Dfs.Delay c
  | Variable_bounding -> Dfs.Variable c
  | Thread_bounding -> Dfs.Threads c

(* The structural kinds are the paper's: their per-level trees can be
   restructured by the POR machinery. The footprint kinds (IVB/ITB) have
   path-dependent level counting, which it does not support. *)
let structural = function
  | Preemption_bounding | Delay_bounding -> true
  | Variable_bounding | Thread_bounding -> false

(* One bound level's walk, plain or reduced: the level strategy below is
   generic over which core enumerates the level's tree. *)
type level_walk = {
  lw_begin_run : unit -> unit;
  lw_choose : Sct_core.Runtime.ctx -> Sct_core.Tid.t;
  lw_on_terminal : Sct_core.Runtime.result -> Strategy.verdict;
  lw_pruned : unit -> bool;
  lw_aux_pruned : unit -> bool;
      (** the level lost executions to an execution-level filter (fair
          bounding): exhausting an unpruned level no longer proves the
          whole space explored *)
}

let plain_walk ?fair c ~kind =
  let w = Dfs.Walk.make ~count_exact:c ?fair ~bound:(bound_of kind c) () in
  {
    lw_begin_run = (fun () -> Dfs.Walk.begin_run w);
    lw_choose = Dfs.Walk.choose w;
    lw_on_terminal = Dfs.Walk.on_terminal w;
    lw_pruned = (fun () -> Dfs.Walk.pruned w);
    lw_aux_pruned = (fun () -> Dfs.Walk.aux_pruned w);
  }

let por_walk c ~kind ~mode ~on_prune =
  let w =
    Por.Walk.make ~on_prune ~count_exact:c ~mode ~bound:(bound_of kind c) ()
  in
  {
    lw_begin_run = (fun () -> Por.Walk.begin_run w);
    lw_choose = Por.Walk.choose w;
    lw_on_terminal = Por.Walk.on_terminal w;
    lw_pruned = (fun () -> Por.Walk.pruned w);
    lw_aux_pruned = (fun () -> false);
  }

(* The iterative-bounding campaign as a STRATEGY: one phase per bound
   level, each phase a fresh count-exact walk of the whole tree. The level
   progression of the paper (§2, §5):

   - a bug among the level's counted schedules finishes the campaign once
     the level is exhausted (the paper completes the level for worst-case
     analysis; [bound_complete] is true in that case);
   - a level that exhausts without pruning anything has explored the whole
     schedule space ([complete]);
   - otherwise the next level starts, up to [max_levels].

   With [por], each level runs the BPOR reduction walk instead of the
   plain count-exact walk: the level progression is unchanged, because
   [Por.Walk.pruned] reports bound cut-offs exactly like the plain walk
   (including backtrack points deferred to the next level) and never
   reports sleep-set pruning, which is covered within the level. *)
let strategy ?(max_levels = 64) ?por ?fair ?technique
    ?(on_prune = fun () -> ()) ~kind () : Strategy.t =
  (module struct
    let technique =
      match technique with Some t -> t | None -> technique_name kind

    let tracks_distinct = false
    let respects_limit = true

    (* the POR machinery restructures the level's tree, which is only
       sound for the structural kinds without execution-level filters *)
    let supports_por = structural kind && fair = None

    type state = {
      mutable c : int;
      mutable walk : level_walk;
      mutable found : bool;  (** bug among this level's counted schedules *)
      mutable any_aux : bool;
          (** some level lost executions to the fair filter *)
      mutable started : bool;
    }

    let walk_at c =
      match por with
      | None -> plain_walk ?fair c ~kind
      | Some mode -> por_walk c ~kind ~mode ~on_prune

    let init () =
      { c = 0; walk = walk_at 0; found = false; any_aux = false;
        started = false }

    let phase c =
      Strategy.Phase { ph_bound = Some c; ph_new_at_bound = true }

    let next_phase st =
      if not st.started then begin
        st.started <- true;
        phase 0
      end
      else begin
      if st.walk.lw_aux_pruned () then st.any_aux <- true;
      if st.found then
        (* the level is exhausted here (the driver consults us only on a
           phase-over verdict), hence bound_complete *)
        Strategy.Finished
          {
            f_complete = false;
            f_bound = Some st.c;
            f_bound_complete = true;
            f_new_at_bound = true;
          }
      else if not (st.walk.lw_pruned ()) then
        (* nothing was cut off by the structural bound: the whole schedule
           space has been explored — unless the fair filter cut some
           executions, which no structural bound level would restore *)
        Strategy.Finished
          {
            f_complete = not st.any_aux;
            f_bound = Some st.c;
            f_bound_complete = true;
            f_new_at_bound = true;
          }
      else begin
        let c = st.c + 1 in
        if c > max_levels then
          Strategy.Finished
            {
              f_complete = false;
              f_bound = Some c;
              f_bound_complete = false;
              f_new_at_bound = false;
            }
        else begin
          st.c <- c;
          st.walk <- walk_at c;
          st.found <- false;
          phase c
        end
      end
      end

    let begin_run st = st.walk.lw_begin_run ()
    let listener _ = None
    let choose st ctx = st.walk.lw_choose ctx

    let on_terminal st res =
      let v = st.walk.lw_on_terminal res in
      (if v.Strategy.v_counts then
         match res.Runtime.r_outcome with
         | Outcome.Bug _ -> st.found <- true
         | Outcome.Ok | Outcome.Step_limit -> ());
      v
  end)

let explore ?promote ?max_steps ?max_levels ?por ?fair ?technique ?on_prune
    ?deadline ~kind ~limit program =
  (* reduced campaigns budget raw executions too (see Driver.explore) *)
  let max_executions = match por with Some _ -> Some limit | None -> None in
  Driver.explore ?promote ?max_steps ?max_executions ?deadline ~limit
    (strategy ?max_levels ?por ?fair ?technique ?on_prune ~kind ())
    program

(* The same level progression over an abstract walk runner — the shape the
   frontier-partitioned parallel engine instantiates ([Shard_tree]). The
   sequential path above goes through the driver instead; the two agree by
   the level-by-level correspondence checked in test/test_parallel.ml. *)
let level_loop ?(max_levels = 64) ~technique
    ~(walk : c:int -> limit:int -> Strategy.walk_result) ~limit () =
  let rec level c (acc : Stats.t) =
    if acc.Stats.total >= limit then
      { acc with Stats.bound = Some c; hit_limit = true }
    else if c > max_levels then { acc with Stats.bound = Some c }
    else begin
      let r = walk ~c ~limit:(limit - acc.Stats.total) in
      let acc =
        {
          acc with
          Stats.total = acc.Stats.total + r.Strategy.counted;
          buggy = acc.Stats.buggy + r.Strategy.buggy;
          executions = acc.Stats.executions + r.Strategy.executions;
          steps_executed = acc.Stats.steps_executed + r.Strategy.steps_executed;
          hit_deadline = acc.Stats.hit_deadline || r.Strategy.hit_deadline;
          n_threads = max acc.Stats.n_threads r.Strategy.n_threads;
          max_enabled = max acc.Stats.max_enabled r.Strategy.max_enabled;
          max_sched_points =
            max acc.Stats.max_sched_points r.Strategy.max_sched_points;
        }
      in
      match r.Strategy.to_first_bug with
      | Some i ->
          (* Bug found at this level; the level has been fully explored
             (unless the limit or the deadline intervened), per the paper's
             method. *)
          {
            acc with
            Stats.bound = Some c;
            bound_complete = r.Strategy.complete;
            to_first_bug = Some (acc.Stats.total - r.Strategy.counted + i);
            new_at_bound = r.Strategy.counted;
            first_bug = r.Strategy.first_bug;
            hit_limit = r.Strategy.hit_limit;
          }
      | None ->
          if r.Strategy.hit_limit then
            {
              acc with
              Stats.bound = Some c;
              bound_complete = false;
              new_at_bound = r.Strategy.counted;
              hit_limit = true;
            }
          else if r.Strategy.hit_deadline then
            {
              acc with
              Stats.bound = Some c;
              bound_complete = false;
              new_at_bound = r.Strategy.counted;
            }
          else if not r.Strategy.pruned then
            {
              acc with
              Stats.bound = Some c;
              bound_complete = true;
              new_at_bound = r.Strategy.counted;
              complete = true;
            }
          else level (c + 1) acc
    end
  in
  level 0 (Stats.base ~technique)

let tree_campaign ?promote ?max_steps ?max_levels ?deadline ~kind ~limit
    program run =
  level_loop ?max_levels ~technique:(technique_name kind)
    ~walk:(fun ~c ~limit ->
      run
        (Dfs.tree_walk ?promote ?max_steps ?deadline ~count_exact:c
           ~bound:(bound_of kind c) program)
        ~limit)
    ~limit ()
