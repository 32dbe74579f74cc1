(* Unit and property tests for the schedule algebra: round-robin distance,
   preemption counting and delay counting (paper §2 definitions). *)

open Sct_core

let test_distance () =
  (* the paper's example: given four threads, distance(1,0) = 3 *)
  Alcotest.(check int) "distance(1,0) n=4" 3 (Tid.distance ~n:4 1 0);
  Alcotest.(check int) "distance(0,0)" 0 (Tid.distance ~n:4 0 0);
  Alcotest.(check int) "distance(2,3)" 1 (Tid.distance ~n:4 2 3);
  Alcotest.(check int) "distance(3,2) n=5" 4 (Tid.distance ~n:5 3 2)

let test_delays_paper_example () =
  (* paper §2: last = 3, enabled = {0,2,3,4}, N = 5: delays(α,2) = 3
     because threads 3, 4 and 0 are skipped (1 is not enabled) *)
  let enabled = [ 0; 2; 3; 4 ] in
  Alcotest.(check int) "delays to 2" 3
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 2);
  Alcotest.(check int) "delays to 3 (continue)" 0
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 3);
  Alcotest.(check int) "delays to 4" 1
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 4);
  Alcotest.(check int) "delays to 0" 2
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 0)

let test_delays_skips_disabled () =
  (* skipping a disabled thread costs nothing *)
  Alcotest.(check int) "last disabled" 0
    (Delay.delays ~n:3 ~last:(Some 0) ~enabled:[ 1; 2 ] 1);
  Alcotest.(check int) "one enabled skipped" 1
    (Delay.delays ~n:3 ~last:(Some 0) ~enabled:[ 1; 2 ] 2)

let test_first_step_free () =
  Alcotest.(check int) "first step: no delay" 0
    (Delay.delays ~n:3 ~last:None ~enabled:[ 0; 1; 2 ] 2);
  Alcotest.(check int) "first step: no preemption" 0
    (Preemption.delta ~last:None ~enabled:[ 0; 1; 2 ] 2)

let test_preemption_delta () =
  (* switching away from an enabled thread is a preemption *)
  Alcotest.(check int) "preemptive" 1
    (Preemption.delta ~last:(Some 0) ~enabled:[ 0; 1 ] 1);
  (* switching away from a disabled (blocked/finished) thread is not *)
  Alcotest.(check int) "non-preemptive" 0
    (Preemption.delta ~last:(Some 0) ~enabled:[ 1 ] 1);
  (* continuing the same thread is never a preemption *)
  Alcotest.(check int) "continuation" 0
    (Preemption.delta ~last:(Some 0) ~enabled:[ 0; 1 ] 0)

let test_rr_order () =
  Alcotest.(check (list int)) "rr from 3 of {0,2,3,4} n=5" [ 3; 4; 0; 2 ]
    (Delay.rr_order ~n:5 ~last:(Some 3) ~enabled:[ 0; 2; 3; 4 ]);
  Alcotest.(check (list int)) "rr from None" [ 0; 1; 2 ]
    (Delay.rr_order ~n:3 ~last:None ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (list int)) "rr from disabled 1 of {0,2,3} n=4" [ 2; 3; 0 ]
    (Delay.rr_order ~n:4 ~last:(Some 1) ~enabled:[ 0; 2; 3 ])

let test_deterministic_choice () =
  Alcotest.(check (option int)) "continue last" (Some 1)
    (Delay.deterministic_choice ~n:3 ~last:(Some 1) ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (option int)) "next after blocked" (Some 2)
    (Delay.deterministic_choice ~n:3 ~last:(Some 1) ~enabled:[ 0; 2 ]);
  Alcotest.(check (option int)) "wrap around" (Some 0)
    (Delay.deterministic_choice ~n:3 ~last:(Some 2) ~enabled:[ 0 ]);
  Alcotest.(check (option int)) "none enabled" None
    (Delay.deterministic_choice ~n:3 ~last:(Some 2) ~enabled:[])

let test_counts_fold () =
  (* a full decision sequence: 3 threads, main spawns then blocks *)
  let steps =
    [ ([ 0 ], 0); ([ 0; 1 ], 0); ([ 0; 1; 2 ], 1); ([ 0; 1; 2 ], 2) ]
  in
  (* step 3 switches 0->1 while 0 is enabled (preemption), step 4 switches
     1->2 while 1 is enabled (preemption) *)
  Alcotest.(check int) "PC" 2 (Preemption.count ~steps);
  Alcotest.(check int) "DC" 2 (Delay.count ~n_at:(fun _ -> 3) ~steps)

(* Generators for decision sequences: a plausible random sequence of
   (enabled, chosen) with n threads. *)
let gen_steps n =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (let* enabled =
         map
           (fun picks ->
             List.sort_uniq compare (List.map (fun i -> abs i mod n) picks))
           (list_size (int_range 1 n) (int_range 0 (n - 1)))
       in
       let enabled = if enabled = [] then [ 0 ] else enabled in
       let* idx = int_range 0 (List.length enabled - 1) in
       return (enabled, List.nth enabled idx)))

(* DC >= PC: the set of schedules with at most c delays is a subset of the
   set with at most c preemptions (paper §2). *)
let prop_dc_ge_pc =
  QCheck2.Test.make ~name:"delay count >= preemption count" ~count:500
    (gen_steps 4) (fun steps ->
      Delay.count ~n_at:(fun _ -> 4) ~steps >= Preemption.count ~steps)

(* The deterministic choice is the unique zero-delay extension. *)
let prop_det_choice_zero_delay =
  QCheck2.Test.make ~name:"deterministic choice costs zero delays" ~count:500
    (gen_steps 4) (fun steps ->
      List.for_all
        (fun (enabled, _) ->
          List.for_all
            (fun last ->
              match Delay.deterministic_choice ~n:4 ~last ~enabled with
              | Some t -> Delay.delays ~n:4 ~last ~enabled t = 0
              | None -> false)
            [ None; Some 0; Some 1; Some 2; Some 3 ])
        steps)

(* rr_order sorts by per-choice delay cost, and the costs are exactly
   0, 1, 2, ... for successive elements. *)
let prop_rr_order_costs =
  QCheck2.Test.make ~name:"rr_order is sorted by delay cost" ~count:500
    (gen_steps 5) (fun steps ->
      List.for_all
        (fun (enabled, _) ->
          let order = Delay.rr_order ~n:5 ~last:(Some 2) ~enabled in
          let costs =
            List.map (fun t -> Delay.delays ~n:5 ~last:(Some 2) ~enabled t) order
          in
          costs = List.init (List.length order) (fun i -> i))
        steps)

(* --- the one-pass accounting against the definitions it replaced --- *)

(* Reference [delays]: the paper's gap walk, one membership test per
   round-robin slot from [last] to [t]. *)
let oracle_delays ~n ~last ~enabled t =
  match last with
  | None -> 0
  | Some l ->
      let count = ref 0 in
      for x = 0 to Tid.distance ~n l t - 1 do
        if List.mem ((l + x) mod n) enabled then incr count
      done;
      !count

(* Reference [rr_order]: the enabled set sorted by round-robin distance. *)
let oracle_rr_order ~n ~last ~enabled =
  let start = match last with None -> 0 | Some l -> l in
  List.sort
    (fun a b ->
      Int.compare (Tid.distance ~n start a) (Tid.distance ~n start b))
    enabled

(* A decision point: [n] ≤ 200 threads, a random non-empty ascending
   enabled subset of varying density, and a last thread that is absent,
   disabled or enabled. *)
let gen_decision =
  QCheck2.Gen.(
    let* n = int_range 1 200 in
    let* density = float_range 0.02 1.0 in
    let* bits =
      list_repeat n (map (fun f -> f < density) (float_bound_inclusive 1.0))
    in
    let* fallback = int_range 0 (n - 1) in
    let enabled =
      List.concat (List.mapi (fun i b -> if b then [ i ] else []) bits)
    in
    let enabled = if enabled = [] then [ fallback ] else enabled in
    let disabled =
      List.filter (fun t -> not (List.mem t enabled)) (List.init n Fun.id)
    in
    let* which = int_range 0 2 in
    let* pick = int_range 0 (n - 1) in
    let last =
      match which with
      | 0 -> None
      | 1 when disabled <> [] ->
          Some (List.nth disabled (pick mod List.length disabled))
      | _ -> Some (List.nth enabled (pick mod List.length enabled))
    in
    return (n, last, enabled))

let print_decision (n, last, enabled) =
  Printf.sprintf "n=%d last=%s enabled=[%s]" n
    (match last with None -> "None" | Some l -> string_of_int l)
    (String.concat ";" (List.map string_of_int enabled))

let prop_delays_oracle =
  QCheck2.Test.make ~name:"one-pass delays = gap walk" ~count:200
    ~print:print_decision gen_decision (fun (n, last, enabled) ->
      List.for_all
        (fun t ->
          Delay.delays ~n ~last ~enabled t = oracle_delays ~n ~last ~enabled t)
        (List.init n Fun.id))

let prop_rr_order_oracle =
  QCheck2.Test.make ~name:"rotation rr_order = sort by distance" ~count:300
    ~print:print_decision gen_decision (fun (n, last, enabled) ->
      Delay.rr_order ~n ~last ~enabled = oracle_rr_order ~n ~last ~enabled
      && Delay.deterministic_choice ~n ~last ~enabled
         = Some (List.hd (oracle_rr_order ~n ~last ~enabled)))

(* Position is cost: the k-th thread of the round-robin order costs k
   delays once [last] is set (enabled or not), and any but the first costs
   a preemption exactly when [last] is enabled. *)
let prop_position_is_cost =
  QCheck2.Test.make ~name:"cost of rr_order[k] = k" ~count:300
    ~print:print_decision gen_decision (fun (n, last, enabled) ->
      let last_enabled =
        match last with Some l -> List.mem l enabled | None -> false
      in
      List.for_all Fun.id
        (List.mapi
           (fun k t ->
             Delay.delays ~n ~last ~enabled t = (if last = None then 0 else k)
             && Preemption.delta ~last ~enabled t
                = Bool.to_int (k > 0 && last_enabled))
           (Delay.rr_order ~n ~last ~enabled)))

(* The in-bound prefix is exactly what the old per-child filter kept, for
   every bound, budget and (footprint bounds) footprint state. *)
let prop_in_bound_prefix =
  let gen =
    QCheck2.Gen.(
      let* d = gen_decision in
      let* kind = int_range 0 4 in
      let* c = int_range 0 4 in
      let* cur = int_range 0 (c + 1) (* c + 1: already over the bound *) in
      let* fresh = bool in
      return (d, kind, c, cur, fresh))
  in
  QCheck2.Test.make ~name:"in-bound prefix = per-child filter" ~count:500
    ~print:(fun (d, kind, c, cur, fresh) ->
      Printf.sprintf "%s kind=%d c=%d cur=%d fresh=%b" (print_decision d) kind
        c cur fresh)
    gen
    (fun ((n, last, enabled), kind, c, cur, fresh) ->
      let open Sct_explore.Dfs in
      let bound =
        match kind with
        | 0 -> Unbounded
        | 1 -> Preemption c
        | 2 -> Delay c
        | 3 -> Variable c
        | _ -> Threads c
      in
      let bound_c = match bound with Unbounded -> max_int | _ -> c in
      let preempts t = Preemption.delta ~last ~enabled t in
      let old_cost t =
        match bound with
        | Unbounded -> 0
        | Preemption _ -> preempts t
        | Delay _ -> oracle_delays ~n ~last ~enabled t
        | Variable _ | Threads _ -> if preempts t = 1 && fresh then 1 else 0
      in
      let order = oracle_rr_order ~n ~last ~enabled in
      let fits t = cur + old_cost t <= bound_c in
      let last_enabled =
        match last with Some l -> List.mem l enabled | None -> false
      in
      let step =
        match bound with
        | Preemption _ -> Bool.to_int last_enabled
        | Variable _ | Threads _ -> Bool.to_int (last_enabled && fresh)
        | Unbounded | Delay _ -> 0
      in
      in_bound_prefix bound ~budget:(bound_c - cur) ~last ~step
        (Delay.rr_order ~n ~last ~enabled)
      = (List.filter fits order, not (List.for_all fits order)))

(* The runtime's incremental PC/DC (cached enabled bits, gap count) agree
   with the definitions folded over the recorded decisions, on a program
   wide enough for long round-robin gaps. *)
let prop_runtime_counts_wide =
  QCheck2.Test.make ~name:"runtime pc/dc = counts of decisions (50 threads)"
    ~count:20 QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let scheduler (ctx : Runtime.ctx) =
        match ctx.c_last with
        | Some l when Random.State.int rng 4 > 0 && List.mem l ctx.c_enabled
          ->
            l
        | _ ->
            List.nth ctx.c_enabled
              (Random.State.int rng (List.length ctx.c_enabled))
      in
      let r =
        Runtime.exec ~promote:(fun _ -> true) ~scheduler
          (Sctbench.Cs.twostage_n_bad 47)
      in
      let steps =
        List.map
          (fun d -> (d.Runtime.d_enabled, d.Runtime.d_chosen))
          r.Runtime.r_decisions
      in
      let ns =
        Array.of_list
          (List.map (fun d -> d.Runtime.d_n_threads) r.Runtime.r_decisions)
      in
      r.Runtime.r_n_threads = 50
      && r.Runtime.r_pc = Preemption.count ~steps
      && r.Runtime.r_dc = Delay.count ~n_at:(Array.get ns) ~steps)

(* --- edge cases: the empty schedule and the schedule container laws --- *)

let test_empty_schedule () =
  Alcotest.(check int) "length empty" 0 (Schedule.length Schedule.empty);
  Alcotest.(check (option int)) "last empty" None (Schedule.last Schedule.empty);
  Alcotest.(check (list int)) "to_list empty" []
    (Schedule.to_list Schedule.empty);
  Alcotest.(check bool) "empty equals of_list []" true
    (Schedule.equal Schedule.empty (Schedule.of_list []));
  (* counting over zero decisions is zero, not an error *)
  Alcotest.(check int) "PC of no steps" 0 (Preemption.count ~steps:[]);
  Alcotest.(check int) "DC of no steps" 0
    (Delay.count ~n_at:(fun _ -> 1) ~steps:[])

let prop_schedule_container_laws =
  QCheck2.Test.make ~name:"schedule: of_list/to_list/snoc/last laws"
    ~count:300
    QCheck2.Gen.(list (int_range 0 7))
    (fun l ->
      let s = Schedule.of_list l in
      Schedule.to_list s = l
      && Schedule.length s = List.length l
      && Schedule.equal s s
      && List.for_all
           (fun t ->
             let s' = Schedule.snoc s t in
             Schedule.last s' = Some t
             && Schedule.length s' = Schedule.length s + 1
             && Schedule.to_list s' = l @ [ t ])
           [ 0; 3 ])

(* A single-thread program has exactly one schedule: DFS exhausts the space
   in one execution and no technique can ever pay a preemption or delay. *)
let test_single_thread_program () =
  let program () =
    let x = Sct_core.Sct.Var.make ~name:"st_x" 0 in
    for _ = 1 to 5 do
      Sct_core.Sct.yield ();
      Sct_core.Sct.Var.write x (Sct_core.Sct.Var.read x + 1)
    done;
    Sct_core.Sct.check (Sct_core.Sct.Var.read x = 5) "st"
  in
  let r =
    Sct_explore.Dfs.explore
      ~promote:(fun _ -> true)
      ~bound:Sct_explore.Dfs.Unbounded ~limit:10 program
  in
  Alcotest.(check int) "exactly one terminal schedule" 1
    r.Sct_explore.Dfs.executions;
  Alcotest.(check bool) "space exhausted" true r.Sct_explore.Dfs.complete;
  Alcotest.(check bool) "no bug" false (r.Sct_explore.Dfs.first_bug <> None);
  (* every decision continues the only runnable thread: pc = dc = 0 *)
  let rr =
    Sct_explore.Replay.replay
      ~promote:(fun _ -> true)
      ~schedule:Schedule.empty program
  in
  match rr with
  | None -> Alcotest.fail "replay failed"
  | Some res ->
      Alcotest.(check int) "pc = 0" 0 res.Runtime.r_pc;
      Alcotest.(check int) "dc = 0" 0 res.Runtime.r_dc

let prop_distance_roundtrip =
  QCheck2.Test.make ~name:"distance: (x + d) mod n = y" ~count:500
    QCheck2.Gen.(
      let* n = int_range 1 16 in
      let* x = int_range 0 (n - 1) in
      let* y = int_range 0 (n - 1) in
      return (n, x, y))
    (fun (n, x, y) ->
      let d = Tid.distance ~n x y in
      0 <= d && d < n && (x + d) mod n = y)

let suites =
  [
    ( "schedule-algebra",
      [
        Alcotest.test_case "round-robin distance" `Quick test_distance;
        Alcotest.test_case "delays: paper example" `Quick
          test_delays_paper_example;
        Alcotest.test_case "delays: disabled threads are free" `Quick
          test_delays_skips_disabled;
        Alcotest.test_case "first step costs nothing" `Quick
          test_first_step_free;
        Alcotest.test_case "preemption delta" `Quick test_preemption_delta;
        Alcotest.test_case "rr_order" `Quick test_rr_order;
        Alcotest.test_case "deterministic choice" `Quick
          test_deterministic_choice;
        Alcotest.test_case "count folds" `Quick test_counts_fold;
        Alcotest.test_case "empty schedule" `Quick test_empty_schedule;
        Alcotest.test_case "single-thread program: pc = dc = 0" `Quick
          test_single_thread_program;
        QCheck_alcotest.to_alcotest prop_schedule_container_laws;
        QCheck_alcotest.to_alcotest prop_dc_ge_pc;
        QCheck_alcotest.to_alcotest prop_det_choice_zero_delay;
        QCheck_alcotest.to_alcotest prop_rr_order_costs;
        QCheck_alcotest.to_alcotest prop_distance_roundtrip;
        QCheck_alcotest.to_alcotest prop_delays_oracle;
        QCheck_alcotest.to_alcotest prop_rr_order_oracle;
        QCheck_alcotest.to_alcotest prop_position_is_cost;
        QCheck_alcotest.to_alcotest prop_in_bound_prefix;
        QCheck_alcotest.to_alcotest prop_runtime_counts_wide;
      ] );
  ]
