open Sct_core

type bound =
  | Unbounded
  | Preemption of int
  | Delay of int
  | Variable of int
  | Threads of int

type level_result = Strategy.walk_result = {
  counted : int;
  buggy : int;
  to_first_bug : int option;
  first_bug : Stats.bug_witness option;
  pruned : bool;
  hit_limit : bool;
  hit_deadline : bool;
  complete : bool;
  executions : int;
  steps_executed : int;
  n_threads : int;
  max_enabled : int;
  max_sched_points : int;
}

type frame = {
  mutable chosen : Tid.t;
  mutable rest : Tid.t list;
  mutable f_enabled : Tid.t list;
  mutable f_fp : int;  (** [Runtime.fingerprint f_enabled] *)
}

let fresh_frame () = { chosen = 0; rest = []; f_enabled = []; f_fp = 0 }

(* Growable stack of decision frames. The frame records are preallocated
   (each slot holds a distinct record) and mutated in place, so pushing a
   decision during the millions of executions of an exploration does not
   allocate. *)
type stack = { mutable frames : frame array; mutable len : int }

let push st ~chosen ~rest ~enabled ~fp =
  if st.len = Array.length st.frames then begin
    let old = st.frames in
    let n = Array.length old in
    st.frames <-
      Array.init (2 * n) (fun i -> if i < n then old.(i) else fresh_frame ())
  end;
  let fr = st.frames.(st.len) in
  fr.chosen <- chosen;
  fr.rest <- rest;
  fr.f_enabled <- enabled;
  fr.f_fp <- fp;
  st.len <- st.len + 1

type frontier_info = Strategy.frontier_info = {
  fi_prefix : (Tid.t * Tid.t list) array;
  fi_branched_below : bool;
}

(* --- bound cost by round-robin position -------------------------------- *)

(* Once a schedule has a last thread, the k-th thread of [Delay.rr_order]
   costs exactly k delays (the threads before it are the enabled threads
   the round-robin walk skips), and every thread but the first costs [step]
   under the preemption-style bounds: [step] is 0 unless the last thread is
   still enabled, in which case it is the first. Costs never decrease along
   the order, so a decision's in-bound children are a prefix of it whose
   length follows from the budget alone: no per-child cost is computed.
   Returns the prefix ([order] itself when every child fits) and whether
   any child was left out. *)
let in_bound_prefix bound ~budget ~last ~step order =
  let keep =
    match (bound, last) with
    | _ when budget < 0 -> 0
    | Unbounded, _ | _, None -> max_int
    | Delay _, Some _ -> if budget = max_int then max_int else budget + 1
    | (Preemption _ | Variable _ | Threads _), Some _ ->
        if step <= budget then max_int else 1
  in
  let rec take k = function
    | [] -> ([], false)
    | _ :: _ when k = 0 -> ([], true)
    | t :: rest ->
        let kept, over = take (k - 1) rest in
        (t :: kept, over)
  in
  if keep = max_int then (order, false) else take keep order

(* [step] for preemption bounding: the one test of "is the last thread
   still enabled?" per decision. *)
let preemption_step (ctx : Runtime.ctx) =
  match ctx.c_last with
  | Some l when Runtime.is_enabled ctx.c_rt l -> 1
  | _ -> 0

(* The in-bound children of the decision in [ctx]. The cost spent so far
   is the runtime's own PC/DC for preemption and delay bounding, and the
   run's [footprint] cardinality for the footprint bounds. *)
let in_bound_children bound (ctx : Runtime.ctx) ~footprint ~step =
  let budget =
    match bound with
    | Unbounded -> max_int
    | Preemption c -> c - Runtime.preemptions ctx.c_rt
    | Delay c -> c - Runtime.delays ctx.c_rt
    | Variable c | Threads c -> c - footprint
  in
  in_bound_prefix bound ~budget ~last:ctx.c_last ~step
    (Delay.rr_order ~n:ctx.c_n_threads ~last:ctx.c_last ~enabled:ctx.c_enabled)

(* --- the walk: one (bounded) level of the schedule tree ----------------- *)

module Walk = struct
  type t = {
    w_bound : bound;
    w_count_exact : int option;
    w_fair : int option;
    w_length : int option;
    w_max_branch_depth : int;
    w_on_exec : (Runtime.result -> frontier_info -> unit) option;
    st : stack;
    mutable replay_len : int;
    mutable depth : int;
    mutable pruned : bool;
    mutable aux_pruned : bool;
    mutable cut_run : bool;
    mutable branched_below : bool;
    mutable exhausted : bool;
    (* per-run footprint of preemption keys (Variable/Threads bounds):
       [foot_len] is its cardinality, the cost the run has spent *)
    mutable foot : int array;
    mutable foot_len : int;
    (* per-run yield counts by tid (fair bounding only) *)
    mutable yields : int array;
  }

  let make ?prefix ?(max_branch_depth = max_int) ?count_exact ?fair ?length
      ?on_exec ~bound () =
    let w =
      {
        w_bound = bound;
        w_count_exact = count_exact;
        w_fair = fair;
        w_length = length;
        w_max_branch_depth = max_branch_depth;
        w_on_exec = on_exec;
        st = { frames = Array.init 1024 (fun _ -> fresh_frame ()); len = 0 };
        replay_len = 0;
        depth = 0;
        pruned = false;
        aux_pruned = false;
        cut_run = false;
        branched_below = false;
        exhausted = false;
        foot = Array.make 16 0;
        foot_len = 0;
        yields = Array.make 8 0;
      }
    in
    (* A pinned prefix is seeded as exhausted frames: it is replayed (with
       the enabled-set determinism check and bound accounting) on every
       execution and never advanced by backtracking, so the walk covers
       exactly the subtree below the prefix. *)
    (match prefix with
    | None -> ()
    | Some p ->
        Array.iter
          (fun (chosen, f_enabled) ->
            push w.st ~chosen ~rest:[] ~enabled:f_enabled
              ~fp:(Runtime.fingerprint f_enabled))
          p;
        w.replay_len <- w.st.len);
    w

  (* Per-run footprint membership: linear scan over a handful of keys. The
     footprints of the iterated footprint bounds (Variable/Threads) are at
     most the bound level + 1 long, tiny by construction. *)
  let foot_mem w key =
    let rec go i = i < w.foot_len && (w.foot.(i) = key || go (i + 1)) in
    go 0

  let foot_add w key =
    if w.foot_len = Array.length w.foot then begin
      let old = w.foot in
      w.foot <- Array.make (2 * Array.length old) 0;
      Array.blit old 0 w.foot 0 (Array.length old)
    end;
    w.foot.(w.foot_len) <- key;
    w.foot_len <- w.foot_len + 1

  (* The footprint key a preemption at this decision charges: the shared
     object the preempted thread was about to touch (Variable bounding) or
     the preempted thread itself (Threads bounding). *)
  let foot_key w (ctx : Runtime.ctx) =
    match (w.w_bound, ctx.c_last) with
    | Variable _, Some l -> Runtime.pending_obj_id ctx.c_rt l
    | Threads _, Some l -> l
    | _ -> -1

  (* The cost of any non-first child of the round-robin order at this
     decision. For the footprint bounds a preemption costs 1 only the first
     time its key enters this run's footprint, so the cost of a path is the
     cardinality of its footprint — path-determined, hence monotone in the
     bound. The key is the preempted (last) thread's, the same for every
     child. *)
  let step w (ctx : Runtime.ctx) =
    match w.w_bound with
    | Unbounded | Delay _ -> 0
    | Preemption _ -> preemption_step ctx
    | Variable _ | Threads _ ->
        if preemption_step ctx = 0 || foot_mem w (foot_key w ctx) then 0
        else 1

  (* Record the footprint key of the chosen decision when it preempts the
     last thread ([step] = 1 only when that key is new). PC and DC need no
     commit: the runtime counts them. *)
  let commit_footprint w (ctx : Runtime.ctx) ~step t =
    match ctx.c_last with
    | Some l when step > 0 && not (Tid.equal l t) -> (
        match w.w_bound with
        | Variable _ | Threads _ -> foot_add w (foot_key w ctx)
        | Unbounded | Preemption _ | Delay _ -> ())
    | _ -> ()

  let yield_count w t = if t < Array.length w.yields then w.yields.(t) else 0

  (* Record the chosen decision's yield, growing the per-tid counts on
     demand. Only called when fair bounding is on. *)
  let note_yield w (ctx : Runtime.ctx) t =
    if Runtime.pending_is_yield ctx.c_rt t then begin
      if t >= Array.length w.yields then begin
        let old = w.yields in
        let n = max (2 * Array.length old) (t + 1) in
        w.yields <- Array.make n 0;
        Array.blit old 0 w.yields 0 (Array.length old)
      end;
      w.yields.(t) <- w.yields.(t) + 1
    end

  (* The least yield count over the live threads, computed at most once
     per decision for [fair_ok], and only when a child yields. *)
  let min_yield w (ctx : Runtime.ctx) =
    let min_y = ref max_int in
    for tid = 0 to ctx.c_n_threads - 1 do
      if Runtime.thread_live ctx.c_rt tid then
        min_y := min !min_y (yield_count w tid)
    done;
    !min_y

  (* Fair bounding admits a yield by [t] only while its yield count stays
     within [b] of the least-yielding live thread ([min_y]) — so a thread
     spinning in a yield loop is forced to let the threads it waits on run.
     Non-yield operations are never restricted. *)
  let fair_ok w (ctx : Runtime.ctx) ~b ~min_y t =
    (not (Runtime.pending_is_yield ctx.c_rt t))
    || yield_count w t + 1 - Lazy.force min_y <= b

  let cut w =
    w.aux_pruned <- true;
    w.cut_run <- true;
    raise Runtime.Cut

  let begin_run w =
    w.depth <- 0;
    w.branched_below <- false;
    w.cut_run <- false;
    w.foot_len <- 0;
    if w.w_fair <> None then Array.fill w.yields 0 (Array.length w.yields) 0

  let choose w (ctx : Runtime.ctx) =
    let i = w.depth in
    (* length bounding: schedules of length exactly [l] are still admitted;
       asking for decision [l] means the run would exceed it *)
    (match w.w_length with Some l when i >= l -> cut w | _ -> ());
    w.depth <- i + 1;
    if i < w.replay_len then begin
      let fr = w.st.frames.(i) in
      if fr.f_fp <> ctx.c_enabled_fp then
        failwith
          (Printf.sprintf
             "Sct_explore.Dfs: nondeterministic program: enabled set \
              mismatch at decision %d (is the program's state created \
              inside its closure?)"
             i);
      commit_footprint w ctx ~step:(step w ctx) fr.chosen;
      if w.w_fair <> None then note_yield w ctx fr.chosen;
      fr.chosen
    end
    else begin
      match ctx.c_enabled with
      | [ t ] ->
          (* the only child; its cost is 0, so it is always in bound —
             but fair bounding may still cut an unaccompanied yield loop *)
          (match w.w_fair with
          | Some b ->
              let min_y = lazy (min_yield w ctx) in
              if not (fair_ok w ctx ~b ~min_y t) then cut w;
              note_yield w ctx t
          | None -> ());
          if i < w.w_max_branch_depth then
            push w.st ~chosen:t ~rest:[] ~enabled:ctx.c_enabled
              ~fp:ctx.c_enabled_fp;
          t
      | enabled -> (
          let step = step w ctx in
          let in_bound, over =
            in_bound_children w.w_bound ctx ~footprint:w.foot_len ~step
          in
          (* attribute the shortfall: a structural-bound cut climbs
             iterated-bounding levels ([pruned]); a fair cut only clears
             completeness ([aux_pruned]) — no larger structural bound
             would restore the filtered children *)
          if over then w.pruned <- true;
          let allowed =
            match w.w_fair with
            | None -> in_bound
            | Some b ->
                let min_y = lazy (min_yield w ctx) in
                let fair = List.filter (fair_ok w ctx ~b ~min_y) in_bound in
                if List.compare_lengths fair in_bound < 0 then
                  w.aux_pruned <- true;
                fair
          in
          match allowed with
          | [] ->
              (* A zero-cost child always exists within any structural
                 bound (see DESIGN), so only the fair filter can empty the
                 list: every enabled thread is an over-bound yield.
                 Abandon the execution. *)
              w.cut_run <- true;
              raise Runtime.Cut
          | t :: rest ->
              if i >= w.w_max_branch_depth then begin
                (* frontier-enumeration mode: below the split depth, follow
                   the first in-bound child without recording a backtrack
                   point *)
                if rest <> [] then w.branched_below <- true
              end
              else push w.st ~chosen:t ~rest ~enabled ~fp:ctx.c_enabled_fp;
              commit_footprint w ctx ~step t;
              if w.w_fair <> None then note_yield w ctx t;
              t)
    end

  (* Drop exhausted frames; advance the deepest frame with an untried
     alternative. Returns false when the tree is exhausted. *)
  let backtrack w =
    let st = w.st in
    let rec drop () =
      if st.len = 0 then false
      else
        let top = st.frames.(st.len - 1) in
        match top.rest with
        | [] ->
            st.len <- st.len - 1;
            drop ()
        | t :: rest ->
            top.chosen <- t;
            top.rest <- rest;
            true
    in
    let more = drop () in
    w.replay_len <- st.len;
    more

  let counts w (res : Runtime.result) =
    let exact =
      match w.w_bound with
      | Unbounded | Preemption _ -> res.r_pc
      | Delay _ -> res.r_dc
      (* footprint cardinality is path-dependent, so it is read off the
         walk's own accounting at the terminal, not the result record *)
      | Variable _ | Threads _ -> w.foot_len
    in
    match w.w_count_exact with None -> true | Some c -> exact = c

  (* Observe one terminal execution: report the frontier info, decide
     whether the schedule counts, and advance the walk — it is over when no
     untried alternative remains. Backtracking eagerly (before the driver's
     budget check) is harmless: it only mutates the decision stack, which
     is dropped when the campaign stops. *)
  let on_terminal w (res : Runtime.result) =
    (match w.w_on_exec with
    | None -> ()
    | Some f ->
        let fi_prefix =
          Array.init w.st.len (fun j ->
              let fr = w.st.frames.(j) in
              (fr.chosen, fr.f_enabled))
        in
        f res { fi_prefix; fi_branched_below = w.branched_below });
    let cut = w.cut_run in
    let v_counts = (not cut) && counts w res in
    w.exhausted <- not (backtrack w);
    { Strategy.v_counts; v_phase_over = w.exhausted; v_cut = cut }

  let pruned w = w.pruned
  let aux_pruned w = w.aux_pruned
  let exhausted w = w.exhausted

  (* Whether the walk carries an execution-level filter (fair or length
     bounding). Unrestricted walks are the only ones whose schedule trees
     the POR machinery may restructure. *)
  let restricted w = w.w_fair <> None || w.w_length <> None
end

(* --- the single-level STRATEGY instance --------------------------------- *)

let strategy_of_walk ?(technique = "DFS") (w : Walk.t) : Strategy.t =
  (module struct
    let technique = technique
    let tracks_distinct = false
    let respects_limit = true
    let supports_por = not (Walk.restricted w)

    type state = { w : Walk.t; mutable started : bool }

    let init () = { w; started = false }

    let next_phase st =
      if st.started then
        Strategy.Finished
          {
            f_complete = Walk.exhausted st.w && not (Walk.aux_pruned st.w);
            f_bound = None;
            f_bound_complete = false;
            f_new_at_bound = false;
          }
      else begin
        st.started <- true;
        Strategy.Phase { ph_bound = None; ph_new_at_bound = false }
      end

    let begin_run st = Walk.begin_run st.w
    let listener _ = None
    let choose st ctx = Walk.choose st.w ctx
    let on_terminal st res = Walk.on_terminal st.w res
  end)

let strategy ?count_exact ?fair ?length ~bound () =
  strategy_of_walk (Walk.make ?count_exact ?fair ?length ~bound ())

(* --- walk-result lifting and the compatibility front-end ---------------- *)

let level_result_of_stats ~pruned (s : Stats.t) =
  {
    counted = s.Stats.total;
    buggy = s.Stats.buggy;
    to_first_bug = s.Stats.to_first_bug;
    first_bug = s.Stats.first_bug;
    pruned;
    hit_limit = s.Stats.hit_limit;
    hit_deadline = s.Stats.hit_deadline;
    complete = s.Stats.complete;
    executions = s.Stats.executions;
    steps_executed = s.Stats.steps_executed;
    n_threads = s.Stats.n_threads;
    max_enabled = s.Stats.max_enabled;
    max_sched_points = s.Stats.max_sched_points;
  }

let stats_of ~technique (r : level_result) =
  {
    (Stats.base ~technique) with
    Stats.to_first_bug = r.to_first_bug;
    total = r.counted;
    buggy = r.buggy;
    complete = r.complete;
    hit_limit = r.hit_limit;
    hit_deadline = r.hit_deadline;
    first_bug = r.first_bug;
    n_threads = r.n_threads;
    max_enabled = r.max_enabled;
    max_sched_points = r.max_sched_points;
    executions = r.executions;
    steps_executed = r.steps_executed;
  }

let explore ?promote ?max_steps ?count_exact ?fair ?length ?on_schedule
    ?record_decisions ?prefix ?max_branch_depth ?on_exec ?deadline ~bound
    ~limit program =
  let w =
    Walk.make ?prefix ?max_branch_depth ?count_exact ?fair ?length ?on_exec
      ~bound ()
  in
  let s =
    Driver.explore ?promote ?max_steps ?record_decisions ?on_schedule
      ?deadline ~limit (strategy_of_walk w) program
  in
  level_result_of_stats ~pruned:(Walk.pruned w) s

(* --- the tree-walk sharding capability ---------------------------------- *)

let tree_walk ?promote ?max_steps ?count_exact ?deadline ~bound program :
    Strategy.tree_walk =
  (* a never-run walk, used only for the exact-count filter *)
  let filter = Walk.make ?count_exact ~bound () in
  {
    Strategy.tw_enum =
      (fun ~max_branch_depth ~on_exec ~limit ->
        explore ?promote ?max_steps ?count_exact ?deadline ~max_branch_depth
          ~on_exec ~bound ~limit program);
    tw_sub =
      (fun ~prefix ~limit ->
        explore ?promote ?max_steps ?count_exact ?deadline ~prefix ~bound
          ~limit program);
    tw_counts = (fun res -> Walk.counts filter res);
  }

let tree_campaign ?promote ?max_steps ?deadline ~bound ~limit program run =
  stats_of ~technique:"DFS"
    (run (tree_walk ?promote ?max_steps ?deadline ~bound program) ~limit)
