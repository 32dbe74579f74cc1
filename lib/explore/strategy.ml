open Sct_core

(* The first-class technique interface. See strategy.mli and DESIGN.md §10
   for the contract; this file is deliberately pure data + one module
   signature so every technique and every driver layer depends on it
   without depending on each other. *)

type phase = { ph_bound : int option; ph_new_at_bound : bool }

type finish = {
  f_complete : bool;
  f_bound : int option;
  f_bound_complete : bool;
  f_new_at_bound : bool;
}

type phase_step = Phase of phase | Finished of finish
type verdict = { v_counts : bool; v_phase_over : bool; v_cut : bool }

module type STRATEGY = sig
  val technique : string

  (* declared capabilities *)
  val tracks_distinct : bool
  val respects_limit : bool
  val supports_por : bool

  type state

  val init : unit -> state
  val next_phase : state -> phase_step
  val begin_run : state -> unit
  val listener : state -> (Event.t -> unit) option
  val choose : state -> Runtime.ctx -> Tid.t
  val on_terminal : state -> Runtime.result -> verdict
end

type t = (module STRATEGY)

(* --- sharding capabilities (used by lib/parallel) ----------------------- *)

type prefix = (Tid.t * Tid.t list) array
type frontier_info = { fi_prefix : prefix; fi_branched_below : bool }

type walk_result = {
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

type tree_walk = {
  tw_enum :
    max_branch_depth:int ->
    on_exec:(Runtime.result -> frontier_info -> unit) ->
    limit:int ->
    walk_result;
  tw_sub : prefix:prefix -> limit:int -> walk_result;
  tw_counts : Runtime.result -> bool;
}

type batched_run = unit -> Runtime.result * (unit -> unit)

type run_batches = {
  rb_next : unit -> batched_run list option;
  rb_found : unit -> bool;
  rb_absorb : Runtime.result -> unit;
  rb_finish : unit -> Stats.t;
}

type sharding =
  | Shard_seed of (lo:int -> hi:int -> Stats.t)
  | Shard_tree of ((tree_walk -> limit:int -> walk_result) -> Stats.t)
  | Shard_runs of run_batches
