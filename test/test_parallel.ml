(* The domain-pool execution engine (lib/parallel): pool semantics,
   frontier-partitioned DFS, and the determinism guarantee — parallel
   drivers produce statistics equal to the sequential techniques for every
   pool size. *)

open Sct_core
module Pool = Sct_parallel.Pool

let promote_all _ = true

let stats_t =
  Alcotest.testable Sct_explore.Stats.pp Sct_explore.Stats.equal

(* --- pool --- *)

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let boom = Pool.submit pool (fun () -> failwith "boom") in
      (match Pool.await boom with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* the raising task did not kill its worker: the pool stays usable *)
      let ok = Pool.submit pool (fun () -> 6 * 7) in
      Alcotest.(check int) "pool still works" 42 (Pool.await ok))

let test_pool_cancellation () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let gate = Mutex.create () in
      Mutex.lock gate;
      (* occupy both workers until the gate opens; the FIFO queue keeps
         [last] behind them, so it is still queued when it is cancelled *)
      let blocked =
        List.init 2 (fun i ->
            Pool.submit pool (fun () ->
                Mutex.lock gate;
                Mutex.unlock gate;
                i + 1))
      in
      let last = Pool.submit pool (fun () -> 3) in
      Pool.cancel last;
      Mutex.unlock gate;
      List.iteri
        (fun i f -> Alcotest.(check int) "blocked" (i + 1) (Pool.await f))
        blocked;
      match Pool.await last with
      | _ -> Alcotest.fail "expected Cancelled"
      | exception Pool.Cancelled -> ())

(* a one-job pool spawns no domain: its tasks run on the submitting
   domain *)
let test_pool_inline () =
  let self = (Domain.self () :> int) in
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      let f = Pool.submit pool (fun () -> (Domain.self () :> int)) in
      Alcotest.(check int) "task runs on the submitting domain" self
        (Pool.await f))

let test_pool_many_tasks () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let futs = List.init 50 (fun i -> Pool.submit pool (fun () -> i * i)) in
      List.iteri
        (fun i f -> Alcotest.(check int) "value" (i * i) (Pool.await f))
        futs)

(* --- frontier-partitioned DFS --- *)

let two_seq a b () =
  let (_ : Tid.t) =
    Sct.spawn
      (fun () ->
        for _ = 1 to b do
          Sct.yield ()
        done)
  in
  for _ = 1 to a do
    Sct.yield ()
  done

let check_level ~ignore_pruned name (seq : Sct_explore.Dfs.level_result)
    (par : Sct_explore.Dfs.level_result) =
  let par =
    if ignore_pruned then { par with Sct_explore.Dfs.pruned = seq.pruned }
    else par
  in
  Alcotest.(check bool) (name ^ ": level_result equal") true (seq = par)

let bench_program name =
  (Option.get (Sctbench.Registry.by_name name)).Sctbench.Bench.program

let test_frontier_matches_dfs () =
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun (bname, program, bound, limit) ->
          List.iter
            (fun split_depth ->
              let seq =
                Sct_explore.Dfs.explore ~promote:promote_all ~bound ~limit
                  program
              in
              let par =
                Sct_parallel.Frontier.explore ~pool ~promote:promote_all
                  ~split_depth ~bound ~limit program
              in
              (* [pruned] is only specified when the walk completed *)
              check_level
                ~ignore_pruned:seq.Sct_explore.Dfs.hit_limit
                (Printf.sprintf "%s split=%d" bname split_depth)
                seq par)
            [ 0; 1; 3; 8 ])
        [
          ("two_seq-4-4", two_seq 4 4, Sct_explore.Dfs.Unbounded, 1_000);
          ("two_seq-4-4/truncated", two_seq 4 4, Sct_explore.Dfs.Unbounded, 30);
          ("two_seq-5-3/pb1", two_seq 5 3, Sct_explore.Dfs.Preemption 1, 1_000);
          ("two_seq-5-3/db2", two_seq 5 3, Sct_explore.Dfs.Delay 2, 1_000);
          ( "twostage/truncated",
            bench_program "CS.twostage_bad",
            Sct_explore.Dfs.Unbounded,
            150 );
        ])

let test_frontier_bounded_matches_bounded () =
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun (bname, program, limit) ->
          List.iter
            (fun kind ->
              let seq =
                Sct_explore.Bounded.explore ~promote:promote_all ~kind ~limit
                  program
              in
              let par =
                Sct_parallel.Frontier.explore_bounded ~pool
                  ~promote:promote_all ~kind ~limit program
              in
              Alcotest.check stats_t
                (bname ^ "/" ^ Sct_explore.Bounded.technique_name kind)
                seq par)
            [
              Sct_explore.Bounded.Preemption_bounding;
              Sct_explore.Bounded.Delay_bounding;
            ])
        [
          ("two_seq-3-3", two_seq 3 3, 1_000);
          ("lazy01", bench_program "CS.lazy01_bad", 200);
          ("twostage/truncated", bench_program "CS.twostage_bad", 120);
        ])

(* --- determinism: parallel drivers == sequential techniques --- *)

let all_techniques = Sct_explore.Techniques.all

let det_options =
  { Sct_explore.Techniques.default_options with
    Sct_explore.Techniques.limit = 200 }

let test_drivers_match_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun bname ->
          let program = bench_program bname in
          let detection, seq =
            Sct_explore.Techniques.run_all ~techniques:all_techniques
              det_options program
          in
          let detection', par =
            Sct_parallel.Drivers.run_all ~pool ~techniques:all_techniques
              det_options program
          in
          Alcotest.(check (list string))
            (bname ^ ": racy locations") detection.Sct_race.Promotion.racy
            detection'.Sct_race.Promotion.racy;
          List.iter2
            (fun (t, s) (t', s') ->
              Alcotest.(check string)
                "technique order"
                (Sct_explore.Techniques.name t)
                (Sct_explore.Techniques.name t');
              Alcotest.check stats_t
                (bname ^ "/" ^ Sct_explore.Techniques.name t)
                s s')
            seq par)
        [ "CS.lazy01_bad"; "CS.twostage_bad"; "CS.reorder_3_bad" ])

let test_suite_matches_sequential () =
  let benches =
    List.map
      (fun n -> Option.get (Sctbench.Registry.by_name n))
      [ "CS.lazy01_bad"; "CS.account_bad"; "CS.twostage_bad" ]
  in
  let seq = Sct_report.Run_data.run_all det_options benches in
  let par =
    Pool.with_pool ~jobs:4 (fun pool ->
        Sct_parallel.Suite.run_all ~pool det_options benches)
  in
  List.iter2
    (fun (a : Sct_report.Run_data.row) (b : Sct_report.Run_data.row) ->
      Alcotest.(check int)
        (a.Sct_report.Run_data.bench.Sctbench.Bench.name ^ ": racy")
        a.Sct_report.Run_data.racy_locations
        b.Sct_report.Run_data.racy_locations;
      List.iter2
        (fun (t, s) (_, s') ->
          Alcotest.check stats_t
            (a.Sct_report.Run_data.bench.Sctbench.Bench.name ^ "/"
           ^ Sct_explore.Techniques.name t)
            s s')
        a.Sct_report.Run_data.results b.Sct_report.Run_data.results)
    seq par

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "worker exception propagates" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "cancellation" `Quick test_pool_cancellation;
        Alcotest.test_case "inline one-job pool" `Quick test_pool_inline;
        Alcotest.test_case "many tasks" `Quick test_pool_many_tasks;
      ] );
    ( "parallel-dfs",
      [
        Alcotest.test_case "frontier DFS == sequential DFS" `Quick
          test_frontier_matches_dfs;
        Alcotest.test_case "frontier bounding == sequential bounding" `Quick
          test_frontier_bounded_matches_bounded;
      ] );
    ( "parallel-determinism",
      [
        Alcotest.test_case "drivers == sequential techniques" `Slow
          test_drivers_match_sequential;
        Alcotest.test_case "suite rows == sequential rows" `Slow
          test_suite_matches_sequential;
      ] );
  ]
