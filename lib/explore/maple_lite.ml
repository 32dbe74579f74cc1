open Sct_core

type akind = R | W | A

let akind_of = function
  | Op.Plain_read -> R
  | Op.Plain_write -> W
  | Op.Atomic_op _ -> A

let is_write = function W | A -> true | R -> false

(* An idiom-1 iRoot: on [loc], an access of kind [first] is immediately
   followed (in the location's access history) by an access of kind [second]
   from a different thread. *)
type iroot = { loc : string; first : akind; second : akind }

module Iroot_set = Set.Make (struct
  type t = iroot

  let compare = compare
end)

(* Profiling state: the observed iRoots, the latest access kind per
   (location, thread), and the lockset context of each (location, kind) —
   the synchronisation objects held when such an access was performed.
   Maple forces iRoots at the instruction level, where a thread can be held
   just before the lock acquisition guarding the access; the lockset lets
   the active phase do the same. *)
type profile = {
  mutable observed : Iroot_set.t;
      (** pairs built from every kind each peer thread has used: the
          candidate-generating set *)
  mutable adjacent : Iroot_set.t;
      (** pairs built from each peer's latest access only: the (stricter)
          already-seen set used to filter candidates *)
  last_access :
    (string, (Sct_core.Tid.t, akind * akind list) Hashtbl.t) Hashtbl.t;
      (** per location: each thread's latest access kind and kind set *)
}

let new_profile () =
  {
    observed = Iroot_set.empty;
    adjacent = Iroot_set.empty;
    last_access = Hashtbl.create 64;
  }

(* Record, for every access, iRoot pairs with other threads' previous
   accesses to the same location (Maple's idiom-1 inter-thread
   dependencies), provided at least one side is a write: against each
   peer's latest kind for the already-seen set, and against each peer's
   whole kind set for the candidate-generating set. *)
let observe_run_pairs p (ev : Event.t) =
  match ev with
  | Event.Access { tid; name; kind; _ } ->
      let k = akind_of kind in
      let per_thread =
        match Hashtbl.find_opt p.last_access name with
        | Some m -> m
        | None ->
            let m = Hashtbl.create 4 in
            Hashtbl.replace p.last_access name m;
            m
      in
      Hashtbl.iter
        (fun prev_tid (latest, prev_ks) ->
          if prev_tid <> tid then begin
            if is_write latest || is_write k then
              p.adjacent <-
                Iroot_set.add { loc = name; first = latest; second = k }
                  p.adjacent;
            List.iter
              (fun prev_k ->
                if is_write prev_k || is_write k then
                  p.observed <-
                    Iroot_set.add
                      { loc = name; first = prev_k; second = k }
                      p.observed)
              prev_ks
          end)
        per_thread;
      let ks =
        match Hashtbl.find_opt per_thread tid with
        | Some (_, ks) -> if List.mem k ks then ks else k :: ks
        | None -> [ k ]
      in
      Hashtbl.replace per_thread tid (k, ks)
  | Event.Acquire _ | Event.Release _ | Event.Fork _ | Event.Joined _ -> ()

let bug_stats s (res : Runtime.result) =
  match res.Runtime.r_outcome with
  | Outcome.Bug { bug; by } ->
      let s = { s with Stats.buggy = s.Stats.buggy + 1 } in
      if s.Stats.to_first_bug = None then
        {
          s with
          Stats.to_first_bug = Some s.Stats.total;
          first_bug =
            Some
              {
                Stats.w_bug = bug;
                w_by = by;
                w_schedule = res.Runtime.r_schedule;
                w_pc = res.Runtime.r_pc;
                w_dc = res.Runtime.r_dc;
              };
        }
      else s
  | Outcome.Ok | Outcome.Step_limit -> s

let count_run s res =
  let s = Stats.observe_run s res in
  let s =
    { s with Stats.total = s.Stats.total + 1; executions = s.executions + 1 }
  in
  bug_stats s res

(* The profiling scheduler. Maple profiles under native, uncontrolled
   execution, which is mostly run-to-block scheduling with occasional OS
   preemptions; we model that as round-robin with sparse random
   deviations. *)
let profile_choose rng (ctx : Runtime.ctx) =
  if Random.State.int rng 16 = 0 then
    match ctx.c_enabled with
    | [ t ] ->
        (* still draw, keeping the RNG stream identical *)
        ignore (Random.State.int rng 1 : int);
        t
    | enabled ->
        let enabled = Array.of_list enabled in
        enabled.(Random.State.int rng (Array.length enabled))
  else
    match
      Sct_core.Delay.deterministic_choice ~n:ctx.c_n_threads ~last:ctx.c_last
        ~enabled:ctx.c_enabled
    with
    | Some t -> t
    | None -> assert false

(* One profiling run. The RNG is re-seeded from [(seed, i)] and the access
   history is per-run, so run [i] is independent of every other run —
   profiling shards merge by unioning the returned iRoot sets. *)
let profile_one ?(promote = fun _ -> false) ?(max_steps = 100_000) ~seed i
    program =
  let profile = new_profile () in
  let rng = Random.State.make [| seed; i; 0x3aF |] in
  let res =
    Runtime.exec ~promote ~max_steps ~record_decisions:false
      ~listener:(observe_run_pairs profile)
      ~scheduler:(profile_choose rng) program
  in
  (res, profile.observed, profile.adjacent)

(* Candidates = unobserved reversals on promoted locations, in the
   (deterministic) set order. *)
let candidates ~promote ~observed ~adjacent =
  Iroot_set.elements
    (Iroot_set.fold
       (fun r acc ->
         let rev = { r with first = r.second; second = r.first } in
         if promote r.loc && not (Iroot_set.mem rev adjacent) then
           Iroot_set.add rev acc
         else acc)
       observed Iroot_set.empty)

let kind_matches k op_kind = akind_of op_kind = k

(* The active scheduler: round-robin, but a thread about to perform the
   [second] access of the target is withheld until some other thread
   performs the [first] access — then scheduling returns to plain
   round-robin. Maple's own forcing gives up after a bounded wait (its
   "timeout" heuristics); we model that with a withholding budget
   ([patience]). *)
let active_choose ~forced ~patience target (ctx : Runtime.ctx) =
  let rt = ctx.c_rt in
  let pending_matches t k =
    match Runtime.pending_op rt t with
    | Some (Op.Access { name; kind; _ }) ->
        name = target.loc && kind_matches k kind
    | _ -> false
  in
  let pending_second t = pending_matches t target.second in
  let order =
    Delay.rr_order ~n:ctx.c_n_threads ~last:ctx.c_last ~enabled:ctx.c_enabled
  in
  if !forced || !patience = 0 then List.hd order
  else begin
    let withheld, rest = List.partition pending_second order in
    match rest with
    | [] ->
        (* every enabled thread is withheld: release the most recently
           created one, keeping earlier ones (usually the forced party)
           parked *)
        List.fold_left max (List.hd withheld) withheld
    | t :: _ ->
        if withheld <> [] then decr patience;
        if withheld <> [] && pending_matches t target.first then
          forced := true;
        t
  end

let active_run ?(promote = fun _ -> false) ?(max_steps = 100_000) target
    program =
  let forced = ref false in
  let patience = ref 400 in
  Runtime.exec ~promote ~max_steps ~record_decisions:false
    ~scheduler:(active_choose ~forced ~patience target)
    program

(* --- the STRATEGY instance --------------------------------------------- *)

type stage = Profiling of int | Forcing of iroot list | Finished_

let strategy ?(promote = fun _ -> false) ?(profile_runs = 10) ~seed () :
    Strategy.t =
  (module struct
    let technique = "MapleAlg"
    let tracks_distinct = false

    (* the campaign length is intrinsic: [profile_runs] profiling runs plus
       one active run per candidate, regardless of the schedule limit *)
    let respects_limit = false
    let supports_por = false

    type state = {
      mutable stage : stage;
      mutable observed : Iroot_set.t;
      mutable adjacent : Iroot_set.t;
      (* per-run scheduler state *)
      mutable profile : profile;
      mutable rng : Random.State.t;
      a_forced : bool ref;
      a_patience : int ref;
      mutable started : bool;
    }

    let init () =
      {
        stage = (if profile_runs <= 0 then Finished_ else Profiling 0);
        observed = Iroot_set.empty;
        adjacent = Iroot_set.empty;
        profile = new_profile ();
        rng = Random.State.make [| 0 |];
        a_forced = ref false;
        a_patience = ref 400;
        started = false;
      }

    let finished =
      Strategy.Finished
        {
          (* every candidate was attempted: Maple's heuristic termination *)
          f_complete = true;
          f_bound = None;
          f_bound_complete = false;
          f_new_at_bound = false;
        }

    let next_phase st =
      if st.started then finished
      else begin
        st.started <- true;
        match st.stage with
        | Finished_ -> finished
        | Profiling _ | Forcing _ ->
            Strategy.Phase { ph_bound = None; ph_new_at_bound = false }
      end

    let begin_run st =
      match st.stage with
      | Profiling i ->
          st.profile <- new_profile ();
          st.rng <- Random.State.make [| seed; i; 0x3aF |]
      | Forcing (_ :: _) ->
          st.a_forced := false;
          st.a_patience := 400
      | Forcing [] | Finished_ -> assert false

    let listener st =
      match st.stage with
      | Profiling _ -> Some (observe_run_pairs st.profile)
      | Forcing _ | Finished_ -> None

    let choose st ctx =
      match st.stage with
      | Profiling _ -> profile_choose st.rng ctx
      | Forcing (c :: _) ->
          active_choose ~forced:st.a_forced ~patience:st.a_patience c ctx
      | Forcing [] | Finished_ -> assert false

    let on_terminal st (res : Runtime.result) =
      let bug =
        match res.Runtime.r_outcome with
        | Outcome.Bug _ -> true
        | Outcome.Ok | Outcome.Step_limit -> false
      in
      (match st.stage with
      | Profiling i ->
          st.observed <- Iroot_set.union st.observed st.profile.observed;
          st.adjacent <- Iroot_set.union st.adjacent st.profile.adjacent;
          if bug then st.stage <- Finished_
          else if i + 1 < profile_runs then st.stage <- Profiling (i + 1)
          else begin
            match
              candidates ~promote ~observed:st.observed ~adjacent:st.adjacent
            with
            | [] -> st.stage <- Finished_
            | cs -> st.stage <- Forcing cs
          end
      | Forcing (_ :: rest) ->
          if bug || rest = [] then st.stage <- Finished_
          else st.stage <- Forcing rest
      | Forcing [] | Finished_ -> assert false);
      {
        Strategy.v_counts = true;
        v_phase_over =
          (match st.stage with Finished_ -> true | _ -> false);
        v_cut = false;
      }
  end)

let explore ?promote ?max_steps ?(profile_runs = 10) ?deadline ~seed program =
  Driver.explore ?promote ?max_steps ?deadline ~limit:max_int
    (strategy ?promote ~profile_runs ~seed ())
    program

(* --- the batched sharding capability ------------------------------------ *)

(* Profiling runs are independent: they execute on any domain and their
   iRoot sets are unioned by commit closures in run order, truncated at the
   first buggy run (the point where the sequential algorithm stops
   profiling). Candidates are generated once the profiling batch is fully
   absorbed; active runs are deterministic per candidate and merged in
   candidate order up to the first bug. *)
let batches ?(promote = fun _ -> false) ?(max_steps = 100_000)
    ?(profile_runs = 10) ~seed program : Strategy.run_batches =
  let stats = ref (Stats.base ~technique:"MapleAlg") in
  let observed = ref Iroot_set.empty in
  let adjacent = ref Iroot_set.empty in
  let stage = ref `Profile in
  let rb_next () =
    match !stage with
    | `Profile ->
        stage := `Force;
        Some
          (List.init profile_runs (fun i () ->
               let res, obs, adj =
                 profile_one ~promote ~max_steps ~seed i program
               in
               ( res,
                 fun () ->
                   observed := Iroot_set.union !observed obs;
                   adjacent := Iroot_set.union !adjacent adj )))
    | `Force ->
        stage := `Done;
        if Stats.found !stats then None
        else
          Some
            (List.map
               (fun c () ->
                 (active_run ~promote ~max_steps c program, fun () -> ()))
               (candidates ~promote ~observed:!observed ~adjacent:!adjacent))
    | `Done -> None
  in
  {
    Strategy.rb_next;
    rb_found = (fun () -> Stats.found !stats);
    rb_absorb = (fun res -> stats := count_run !stats res);
    rb_finish = (fun () -> { !stats with Stats.complete = true });
  }
