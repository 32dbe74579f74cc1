module Sched_set = Set.Make (struct
  type t = Sct_core.Tid.t list

  let compare = Stdlib.compare
end)

type bug_witness = {
  w_bug : Sct_core.Outcome.bug;
  w_by : Sct_core.Tid.t;
  w_schedule : Sct_core.Schedule.t;
  w_pc : int;
  w_dc : int;
}

type t = {
  technique : string;
  bound : int option;
  bound_complete : bool;
  to_first_bug : int option;
  total : int;
  new_at_bound : int;
  buggy : int;
  complete : bool;
  hit_limit : bool;
  hit_deadline : bool;
  first_bug : bug_witness option;
  n_threads : int;
  max_enabled : int;
  max_sched_points : int;
  executions : int;
  steps_executed : int;
  por_pruned : int;
  cut_runs : int;
  distinct_schedules : Sched_set.t option;
}

let found t = t.to_first_bug <> None
let distinct t = Option.map Sched_set.cardinal t.distinct_schedules

(* Distinct schedules when the technique tracks them, else the counted
   total (systematic techniques never re-explore, so every counted
   schedule is distinct). This is the campaign scheduler's coverage
   signal. *)
let coverage t =
  match t.distinct_schedules with
  | Some set -> Sched_set.cardinal set
  | None -> t.total

let base ~technique =
  {
    technique;
    bound = None;
    bound_complete = false;
    to_first_bug = None;
    total = 0;
    new_at_bound = 0;
    buggy = 0;
    complete = false;
    hit_limit = false;
    hit_deadline = false;
    first_bug = None;
    n_threads = 0;
    max_enabled = 0;
    max_sched_points = 0;
    executions = 0;
    steps_executed = 0;
    por_pruned = 0;
    cut_runs = 0;
    distinct_schedules = None;
  }

let observe_run t (r : Sct_core.Runtime.result) =
  {
    t with
    n_threads = max t.n_threads r.r_n_threads;
    max_enabled = max t.max_enabled r.r_max_enabled;
    max_sched_points = max t.max_sched_points r.r_multi_points;
    steps_executed = t.steps_executed + r.r_steps;
  }

(* A total order on witnesses, used only to break ties between equal
   [to_first_bug] indices so that [merge] is commutative. *)
let compare_witness (a : bug_witness) (b : bug_witness) =
  Stdlib.compare
    (a.w_pc, a.w_dc, Sct_core.Schedule.to_list a.w_schedule, a.w_by, a.w_bug)
    (b.w_pc, b.w_dc, Sct_core.Schedule.to_list b.w_schedule, b.w_by, b.w_bug)

let compare_witness_opt a b =
  match (a, b) with
  | None, None -> 0
  | Some _, None -> -1
  | None, Some _ -> 1
  | Some w, Some w' -> compare_witness w w'

(* First-bug key order: no bug sorts last; equal indices are resolved by the
   witness order (a witness sorts before no witness). Comparing equal 0 means
   the (to_first_bug, first_bug) pairs are equal, which is what makes the
   argmin in [merge] commutative. *)
let compare_first a b =
  match (a.to_first_bug, b.to_first_bug) with
  | None, None -> compare_witness_opt a.first_bug b.first_bug
  | Some _, None -> -1
  | None, Some _ -> 1
  | Some i, Some j -> (
      match Int.compare i j with
      | 0 -> compare_witness_opt a.first_bug b.first_bug
      | c -> c)

let merge_opt f a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (f a b)

let merge a b =
  let first = if compare_first a b <= 0 then a else b in
  {
    (* string max: associative, commutative, idempotent; in practice both
       sides carry the same technique name *)
    technique = (if a.technique >= b.technique then a.technique else b.technique);
    bound = merge_opt max a.bound b.bound;
    bound_complete = a.bound_complete || b.bound_complete;
    to_first_bug = first.to_first_bug;
    total = a.total + b.total;
    new_at_bound = a.new_at_bound + b.new_at_bound;
    buggy = a.buggy + b.buggy;
    complete = a.complete || b.complete;
    hit_limit = a.hit_limit || b.hit_limit;
    hit_deadline = a.hit_deadline || b.hit_deadline;
    first_bug = first.first_bug;
    n_threads = max a.n_threads b.n_threads;
    max_enabled = max a.max_enabled b.max_enabled;
    max_sched_points = max a.max_sched_points b.max_sched_points;
    executions = a.executions + b.executions;
    steps_executed = a.steps_executed + b.steps_executed;
    por_pruned = a.por_pruned + b.por_pruned;
    cut_runs = a.cut_runs + b.cut_runs;
    distinct_schedules =
      merge_opt Sched_set.union a.distinct_schedules b.distinct_schedules;
  }

let equal_witness (a : bug_witness) (b : bug_witness) = compare_witness a b = 0

let equal a b =
  a.technique = b.technique && a.bound = b.bound
  && a.bound_complete = b.bound_complete
  && a.to_first_bug = b.to_first_bug
  && a.total = b.total
  && a.new_at_bound = b.new_at_bound
  && a.buggy = b.buggy && a.complete = b.complete
  && a.hit_limit = b.hit_limit
  && a.hit_deadline = b.hit_deadline
  && Option.equal equal_witness a.first_bug b.first_bug
  && a.n_threads = b.n_threads
  && a.max_enabled = b.max_enabled
  && a.max_sched_points = b.max_sched_points
  && a.executions = b.executions
  && a.steps_executed = b.steps_executed
  && a.por_pruned = b.por_pruned
  && a.cut_runs = b.cut_runs
  && Option.equal Sched_set.equal a.distinct_schedules b.distinct_schedules

let pp ppf t =
  let opt = function None -> "-" | Some i -> string_of_int i in
  Format.fprintf ppf
    "%s: bound=%s first=%s total=%d new=%d buggy=%d complete=%b limit=%b%s"
    t.technique (opt t.bound) (opt t.to_first_bug) t.total t.new_at_bound
    t.buggy t.complete t.hit_limit
    ((if t.hit_deadline then " deadline=true" else "")
    ^ (if t.por_pruned > 0 then Printf.sprintf " por_pruned=%d" t.por_pruned
       else "")
    ^
    if t.cut_runs > 0 then Printf.sprintf " cuts=%d" t.cut_runs else "")
