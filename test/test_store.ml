(* The persistent study store (lib/store): codec round-trip laws, version-1
   wire-format stability, artifact content addressing, journal crash
   recovery, and the kill-and-resume guarantee — an interrupted campaign
   resumed on the same store yields exactly the rows of an uninterrupted
   run, re-executing only the missing cells. *)

open Sct_core
module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques
module Json = Sct_store.Json
module Codec = Sct_store.Codec
module Artifact = Sct_store.Artifact
module Db = Sct_store.Db

let stats_t = Alcotest.testable Sct_explore.Stats.pp Sct_explore.Stats.equal

(* --- fresh temporary directories --- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    (* temp_file both picks a unique name and reserves it *)
    let f = Filename.temp_file "sct_store_test" (string_of_int !counter) in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- generators --- *)

(* full-range bytes, to exercise JSON string escaping *)
let gen_raw_string =
  QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 12))

let gen_schedule = QCheck2.Gen.(list_size (int_bound 12) (int_bound 6))

let gen_bug =
  QCheck2.Gen.(
    let* msg = gen_raw_string in
    oneofl
      [
        Outcome.Assertion_failure msg;
        Outcome.Lock_error msg;
        Outcome.Memory_error msg;
        Outcome.Uncaught_exn msg;
        Outcome.Deadlock [ 1; 2; 3 ];
        Outcome.Deadlock [];
      ])

let gen_witness =
  QCheck2.Gen.(
    let* w_bug = gen_bug in
    let* w_by = int_bound 6 in
    let* sched = gen_schedule in
    let* w_pc = int_bound 5 in
    let* w_dc = int_bound 8 in
    return
      { Stats.w_bug; w_by; w_schedule = Schedule.of_list sched; w_pc; w_dc })

let gen_options =
  QCheck2.Gen.(
    let* limit = int_range 1 20_000 in
    let* seed = int_bound 1000 in
    let* max_steps = int_range 1 200_000 in
    let* race_runs = int_range 1 20 in
    let* pct_change_points = int_bound 5 in
    let* maple_profile_runs = int_range 1 20 in
    let* jobs = int_range 1 8 in
    let* split_depth = int_range 1 6 in
    (* dyadic rationals: exactly representable, so [=] on the decoded
       record is meaningful *)
    let* time_limit =
      option (map (fun i -> float_of_int i /. 8.) (int_range 0 80_000))
    in
    let* por =
      option
        (oneofl
           Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ])
    in
    (* defaults included so the emit-only-when-non-default encoding is
       exercised in both directions *)
    let* fair_bound = int_range 1 10 in
    let* length_bound = int_range 1 500 in
    return
      {
        Techniques.limit;
        seed;
        max_steps;
        race_runs;
        pct_change_points;
        maple_profile_runs;
        jobs;
        split_depth;
        time_limit;
        por;
        fair_bound;
        length_bound;
      })

let gen_stats =
  QCheck2.Gen.(
    let* technique = oneofl [ "IPB"; "IDB"; "DFS"; "Rand"; "MapleAlg" ] in
    let* bound = option (int_bound 4) in
    let* bound_complete = bool in
    let* to_first_bug = option (int_bound 100) in
    let* first_bug = option gen_witness in
    let* total = int_bound 10_000 in
    let* new_at_bound = int_bound 500 in
    let* buggy = int_bound 50 in
    let* complete = bool in
    let* hit_limit = bool in
    let* hit_deadline = bool in
    let* n_threads = int_bound 8 in
    let* max_enabled = int_bound 8 in
    let* max_sched_points = int_bound 100 in
    let* executions = int_bound 10_000 in
    let* steps_executed = int_bound 500_000 in
    let* por_pruned = int_bound 10_000 in
    let* distinct = option (list_size (int_bound 6) gen_schedule) in
    return
      {
        (Stats.base ~technique) with
        Stats.bound;
        bound_complete;
        to_first_bug;
        first_bug;
        total;
        new_at_bound;
        buggy;
        complete;
        hit_limit;
        hit_deadline;
        n_threads;
        max_enabled;
        max_sched_points;
        executions;
        steps_executed;
        por_pruned;
        distinct_schedules = Option.map Stats.Sched_set.of_list distinct;
      })

(* --- codec round-trip laws: decode ∘ encode = id --- *)

let prop_roundtrip_schedule =
  QCheck2.Test.make ~name:"Codec: schedule round-trips" ~count:300
    gen_schedule (fun s ->
      let s = Schedule.of_list s in
      Schedule.equal s (Codec.decode_schedule (Codec.encode_schedule s)))

let prop_roundtrip_bug =
  QCheck2.Test.make ~name:"Codec: bug round-trips" ~count:300 gen_bug
    (fun b -> Outcome.bug_equal b (Codec.decode_bug (Codec.encode_bug b)))

let prop_roundtrip_witness =
  QCheck2.Test.make ~name:"Codec: witness round-trips" ~count:300 gen_witness
    (fun w ->
      Stats.equal_witness w (Codec.decode_witness (Codec.encode_witness w)))

let prop_roundtrip_options =
  QCheck2.Test.make ~name:"Codec: options round-trip" ~count:300 gen_options
    (fun o -> Codec.decode_options (Codec.encode_options o) = o)

let prop_roundtrip_stats =
  QCheck2.Test.make ~name:"Codec: stats round-trip" ~count:300 gen_stats
    (fun s -> Stats.equal s (Codec.decode_stats (Codec.encode_stats s)))

let gen_progress =
  QCheck2.Gen.(
    let* p_consumed = int_bound 500 in
    let* p_slices = int_range 1 20 in
    let* p_done = bool in
    return { Codec.p_consumed; p_slices; p_done })

let prop_roundtrip_progress =
  QCheck2.Test.make ~name:"Codec: campaign progress round-trips" ~count:300
    gen_progress (fun p ->
      Codec.decode_progress (Codec.encode_progress p) = p)

(* --- version-1 wire format stability ---
   These strings are the on-disk format; if one of these tests fails, the
   format changed and [Codec.version] must be bumped with a migration. *)

let fixture_schedule = {|{"v":1,"schedule":[0,0,1,2]}|}

let fixture_witness =
  {|{"v":1,"witness":{"bug":{"kind":"assert","msg":"x=y"},"by":2,"schedule":[0,1,2],"pc":1,"dc":3}}|}

let fixture_options =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3}}|}

let fixture_stats =
  {|{"v":1,"stats":{"technique":"IPB","bound":1,"bound_complete":true,"to_first_bug":5,"total":10,"new_at_bound":4,"buggy":2,"complete":false,"hit_limit":true,"first_bug":null,"n_threads":3,"max_enabled":2,"max_sched_points":7,"executions":12,"distinct":[[0,1],[1,0]]}}|}

let fixture_stats_value =
  {
    (Stats.base ~technique:"IPB") with
    Stats.bound = Some 1;
    bound_complete = true;
    to_first_bug = Some 5;
    total = 10;
    new_at_bound = 4;
    buggy = 2;
    complete = false;
    hit_limit = true;
    n_threads = 3;
    max_enabled = 2;
    max_sched_points = 7;
    executions = 12;
    distinct_schedules = Some (Stats.Sched_set.of_list [ [ 0; 1 ]; [ 1; 0 ] ]);
  }

(* v1 extension fields: absent on the pinned fixtures above (so old
   journals keep decoding), emitted only when set *)
let fixture_options_deadline =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"time_limit":"0x1.9p+5"}}|}

let fixture_options_deadline_value =
  { Techniques.default_options with Techniques.time_limit = Some 50. }

let fixture_stats_deadline =
  {|{"v":1,"stats":{"technique":"Rand","bound":null,"bound_complete":false,"to_first_bug":null,"total":3,"new_at_bound":0,"buggy":0,"complete":false,"hit_limit":false,"hit_deadline":true,"first_bug":null,"n_threads":0,"max_enabled":0,"max_sched_points":0,"executions":3,"distinct":null}}|}

let fixture_stats_deadline_value =
  {
    (Stats.base ~technique:"Rand") with
    Stats.total = 3;
    executions = 3;
    hit_deadline = true;
  }

(* Retired fields: stores written while the prefix-batched executor existed
   may carry ["prefix_batch"] in options and ["steps_saved"] in stats. They
   decode (the field is ignored) and re-encode without it. *)
let fixture_options_prefix_batch =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"prefix_batch":true}}|}

let fixture_stats_steps =
  {|{"v":1,"stats":{"technique":"DFS","bound":null,"bound_complete":false,"to_first_bug":null,"total":6,"new_at_bound":0,"buggy":0,"complete":true,"hit_limit":false,"first_bug":null,"n_threads":2,"max_enabled":2,"max_sched_points":5,"executions":6,"steps_executed":31,"steps_saved":17,"distinct":null}}|}

let fixture_stats_steps_reencoded =
  {|{"v":1,"stats":{"technique":"DFS","bound":null,"bound_complete":false,"to_first_bug":null,"total":6,"new_at_bound":0,"buggy":0,"complete":true,"hit_limit":false,"first_bug":null,"n_threads":2,"max_enabled":2,"max_sched_points":5,"executions":6,"steps_executed":31,"distinct":null}}|}

let fixture_stats_steps_value =
  {
    (Stats.base ~technique:"DFS") with
    Stats.total = 6;
    complete = true;
    n_threads = 2;
    max_enabled = 2;
    max_sched_points = 5;
    executions = 6;
    steps_executed = 31;
  }

let fixture_options_por =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"por":"dpor+sleep"}}|}

let fixture_options_por_value =
  { Techniques.default_options with Techniques.por = Some Sct_explore.Por.Dpor_sleep }

let fixture_stats_por =
  {|{"v":1,"stats":{"technique":"IPB","bound":1,"bound_complete":true,"to_first_bug":null,"total":9,"new_at_bound":3,"buggy":0,"complete":true,"hit_limit":false,"first_bug":null,"n_threads":3,"max_enabled":2,"max_sched_points":7,"executions":12,"por_pruned":3,"distinct":null}}|}

let fixture_stats_por_value =
  {
    (Stats.base ~technique:"IPB") with
    Stats.bound = Some 1;
    bound_complete = true;
    total = 9;
    new_at_bound = 3;
    complete = true;
    n_threads = 3;
    max_enabled = 2;
    max_sched_points = 7;
    executions = 12;
    por_pruned = 3;
  }

let test_fixture_stability () =
  Alcotest.(check (list int))
    "schedule fixture decodes" [ 0; 0; 1; 2 ]
    (Schedule.to_list (Codec.decode_schedule fixture_schedule));
  Alcotest.(check string)
    "schedule fixture re-encodes byte-identically" fixture_schedule
    (Codec.encode_schedule (Schedule.of_list [ 0; 0; 1; 2 ]));
  let w = Codec.decode_witness fixture_witness in
  Alcotest.(check bool)
    "witness fixture decodes" true
    (Stats.equal_witness w
       {
         Stats.w_bug = Outcome.Assertion_failure "x=y";
         w_by = 2;
         w_schedule = Schedule.of_list [ 0; 1; 2 ];
         w_pc = 1;
         w_dc = 3;
       });
  Alcotest.(check string)
    "witness fixture re-encodes byte-identically" fixture_witness
    (Codec.encode_witness w);
  Alcotest.(check bool)
    "options fixture decodes to the defaults" true
    (Codec.decode_options fixture_options = Techniques.default_options);
  Alcotest.(check string)
    "options fixture re-encodes byte-identically" fixture_options
    (Codec.encode_options Techniques.default_options);
  Alcotest.(check stats_t)
    "stats fixture decodes" fixture_stats_value
    (Codec.decode_stats fixture_stats);
  Alcotest.(check string)
    "stats fixture re-encodes byte-identically" fixture_stats
    (Codec.encode_stats fixture_stats_value);
  Alcotest.(check bool)
    "time-limit options fixture decodes" true
    (Codec.decode_options fixture_options_deadline
    = fixture_options_deadline_value);
  Alcotest.(check string)
    "time-limit options fixture re-encodes byte-identically"
    fixture_options_deadline
    (Codec.encode_options fixture_options_deadline_value);
  Alcotest.(check stats_t)
    "deadline stats fixture decodes" fixture_stats_deadline_value
    (Codec.decode_stats fixture_stats_deadline);
  Alcotest.(check string)
    "deadline stats fixture re-encodes byte-identically"
    fixture_stats_deadline
    (Codec.encode_stats fixture_stats_deadline_value);
  Alcotest.(check bool)
    "prefix-batch options fixture decodes to the defaults" true
    (Codec.decode_options fixture_options_prefix_batch
    = Techniques.default_options);
  Alcotest.(check string)
    "prefix-batch options fixture re-encodes without the retired field"
    fixture_options
    (Codec.encode_options
       (Codec.decode_options fixture_options_prefix_batch));
  Alcotest.(check stats_t)
    "step-counter stats fixture decodes" fixture_stats_steps_value
    (Codec.decode_stats fixture_stats_steps);
  Alcotest.(check string)
    "step-counter stats fixture re-encodes without the retired field"
    fixture_stats_steps_reencoded
    (Codec.encode_stats (Codec.decode_stats fixture_stats_steps));
  Alcotest.(check bool)
    "por options fixture decodes" true
    (Codec.decode_options fixture_options_por = fixture_options_por_value);
  Alcotest.(check string)
    "por options fixture re-encodes byte-identically" fixture_options_por
    (Codec.encode_options fixture_options_por_value);
  Alcotest.(check stats_t)
    "por stats fixture decodes" fixture_stats_por_value
    (Codec.decode_stats fixture_stats_por);
  Alcotest.(check string)
    "por stats fixture re-encodes byte-identically" fixture_stats_por
    (Codec.encode_stats fixture_stats_por_value)

let expect_codec_error name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Codec.Error")
  | exception Codec.Error _ -> ()

let fixture_progress = {|{"v":1,"progress":{"consumed":20,"slices":2,"done":false}}|}

let test_progress_fixture_stability () =
  let p = Codec.decode_progress fixture_progress in
  Alcotest.(check bool)
    "progress fixture decodes" true
    (p = { Codec.p_consumed = 20; p_slices = 2; p_done = false });
  Alcotest.(check string)
    "progress fixture re-encodes byte-identically" fixture_progress
    (Codec.encode_progress p)

let test_version_gate () =
  expect_codec_error "newer version" (fun () ->
      Codec.decode_schedule {|{"v":2,"schedule":[0]}|});
  expect_codec_error "missing tag" (fun () ->
      Codec.decode_schedule {|{"schedule":[0]}|});
  expect_codec_error "malformed json" (fun () ->
      Codec.decode_stats {|{"v":1,"stats":|});
  expect_codec_error "negative tid" (fun () ->
      Codec.decode_schedule {|{"v":1,"schedule":[-1]}|});
  expect_codec_error "unknown por mode" (fun () ->
      Codec.decode_options
        {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"por":"bogus"}}|})

(* --- artifacts --- *)

let sample_witness =
  {
    Stats.w_bug = Outcome.Assertion_failure "x=y";
    w_by = 2;
    w_schedule = Schedule.of_list [ 0; 0; 1; 2; 1 ];
    w_pc = 2;
    w_dc = 3;
  }

let test_artifact_roundtrip () =
  with_dir (fun dir ->
      let a =
        Artifact.make ~bench:"CS.account_bad" ~technique:"IPB"
          ~options:Techniques.default_options ~bound:(Some 1) sample_witness
      in
      let path = Artifact.save ~dir a in
      let path' = Artifact.save ~dir a in
      Alcotest.(check string) "idempotent save" path path';
      let b = Artifact.load path in
      Alcotest.(check string) "digest" a.Artifact.digest b.Artifact.digest;
      Alcotest.(check string)
        "bench" "CS.account_bad" b.Artifact.meta.Artifact.a_bench;
      Alcotest.(check string) "technique" "IPB" b.Artifact.meta.Artifact.a_technique;
      Alcotest.(check bool)
        "options survive" true
        (b.Artifact.meta.Artifact.a_options = Techniques.default_options);
      Alcotest.(check (list int))
        "schedule" [ 0; 0; 1; 2; 1 ]
        (Schedule.to_list b.Artifact.schedule);
      Alcotest.(check int)
        "listed" 1
        (List.length (Artifact.list ~dir)))

let test_artifact_tamper_detected () =
  with_dir (fun dir ->
      let a =
        Artifact.make ~bench:"CS.account_bad" ~technique:"IPB"
          ~options:Techniques.default_options ~bound:None sample_witness
      in
      let path = Artifact.save ~dir a in
      (* flip the schedule line: content no longer matches the file name *)
      let ic = open_in_bin path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc content;
      output_string oc "0,0\n";
      close_out oc;
      match Artifact.load path with
      | _ -> Alcotest.fail "tampered artifact loaded"
      | exception Artifact.Error _ -> ())

let test_schedule_of_file () =
  with_dir (fun dir ->
      let raw = Filename.concat dir "raw.txt" in
      let oc = open_out raw in
      output_string oc "# a comment\n\n  0, 0 ,1,2 \n";
      close_out oc;
      Alcotest.(check (list int))
        "raw file" [ 0; 0; 1; 2 ]
        (Schedule.to_list (Artifact.schedule_of_file raw));
      let a =
        Artifact.make ~bench:"b" ~technique:"Rand"
          ~options:Techniques.default_options ~bound:None sample_witness
      in
      let path = Artifact.save ~dir a in
      Alcotest.(check (list int))
        ".sched artifact" [ 0; 0; 1; 2; 1 ]
        (Schedule.to_list (Artifact.schedule_of_file path)))

(* --- journal --- *)

let entry_stats technique first_bug =
  {
    (Stats.base ~technique) with
    Stats.total = 7;
    executions = 7;
    buggy = (match first_bug with Some _ -> 1 | None -> 0);
    to_first_bug = Option.map (fun _ -> 3) first_bug;
    first_bug;
  }

let test_db_roundtrip () =
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      Alcotest.(check bool) "fresh store is empty" true (Db.is_empty db);
      let o = Techniques.default_options in
      let k1 = Db.fingerprint ~bench:"B1" ~technique:"IPB" o in
      let k2 = Db.fingerprint ~bench:"B1" ~technique:"Rand" o in
      Db.record db ~key:k1 ~bench:"B1" ~technique:"IPB" ~racy:2 ~options:o
        (entry_stats "IPB" (Some sample_witness));
      Db.record db ~key:k2 ~bench:"B1" ~technique:"Rand" ~racy:2 ~options:o
        (entry_stats "Rand" None);
      Db.close db;
      let db = Db.open_ ~dir in
      Alcotest.(check int) "two cells" 2 (Db.size db);
      let e1 = Option.get (Db.find db k1) in
      Alcotest.(check stats_t)
        "stats survive" (entry_stats "IPB" (Some sample_witness))
        e1.Db.e_stats;
      Alcotest.(check int) "racy survives" 2 e1.Db.e_racy;
      (match e1.Db.e_witness with
      | None -> Alcotest.fail "witness digest not journalled"
      | Some d ->
          Alcotest.(check bool)
            "witness artifact exists" true
            (Sys.file_exists
               (Filename.concat (Db.artifacts_dir db) (d ^ ".sched"))));
      Alcotest.(check bool)
        "bug-free cell has no artifact" true
        ((Option.get (Db.find db k2)).Db.e_witness = None);
      Db.close db)

let append_torn_record dir =
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_binary ]
      0o644
      (Filename.concat dir "journal.jsonl")
  in
  output_string oc {|{"v":1,"key":"torn|};
  (* no closing quote, no newline: a record cut short by a crash *)
  close_out oc

let test_db_truncated_tail () =
  with_dir (fun dir ->
      let o = Techniques.default_options in
      let k1 = Db.fingerprint ~bench:"B1" ~technique:"IPB" o in
      let db = Db.open_ ~dir in
      Db.record db ~key:k1 ~bench:"B1" ~technique:"IPB" ~racy:0 ~options:o
        (entry_stats "IPB" None);
      Db.close db;
      append_torn_record dir;
      (* the torn record is ignored ... *)
      let db = Db.open_ ~dir in
      Alcotest.(check int) "torn tail skipped" 1 (Db.size db);
      (* ... and appending after recovery re-establishes line framing *)
      let k2 = Db.fingerprint ~bench:"B2" ~technique:"IPB" o in
      Db.record db ~key:k2 ~bench:"B2" ~technique:"IPB" ~racy:1 ~options:o
        (entry_stats "IPB" None);
      Db.close db;
      let db = Db.open_ ~dir in
      Alcotest.(check int) "record after torn tail survives" 2 (Db.size db);
      Alcotest.(check int)
        "recovered racy" 1
        (Option.get (Db.find db k2)).Db.e_racy;
      Db.close db)

let test_fingerprint_ignores_parallelism () =
  let o = Techniques.default_options in
  let fp j s =
    Db.fingerprint ~bench:"B" ~technique:"IPB"
      { o with Techniques.jobs = j; split_depth = s }
  in
  Alcotest.(check string) "jobs/split_depth excluded" (fp 1 3) (fp 8 5);
  Alcotest.(check bool)
    "limit included" true
    (Db.fingerprint ~bench:"B" ~technique:"IPB" o
    <> Db.fingerprint ~bench:"B" ~technique:"IPB"
         { o with Techniques.limit = o.Techniques.limit + 1 });
  Alcotest.(check bool)
    "technique included" true
    (Db.fingerprint ~bench:"B" ~technique:"IPB" o
    <> Db.fingerprint ~bench:"B" ~technique:"IDB" o)

(* --- artifact listing order --- *)

let test_artifact_list_order () =
  with_dir (fun dir ->
      (* distinct benches give distinct contents, hence distinct digests *)
      let digests =
        List.map
          (fun bench ->
            let a =
              Artifact.make ~bench ~technique:"Rand"
                ~options:Techniques.default_options ~bound:None sample_witness
            in
            let (_ : string) = Artifact.save ~dir a in
            a.Artifact.digest)
          [ "B1"; "B2"; "B3"; "B4"; "B5"; "B6"; "B7" ]
      in
      let listed =
        List.map (fun a -> a.Artifact.digest) (Artifact.list ~dir)
      in
      Alcotest.(check (list string))
        "listed in digest order, independent of readdir order"
        (List.sort String.compare digests)
        listed)

(* --- campaign progress records --- *)

let test_db_progress_records () =
  with_dir (fun dir ->
      let o = Techniques.default_options in
      let k = Db.fingerprint ~bench:"B" ~technique:"Rand" o in
      let db = Db.open_ ~dir in
      Db.record
        ~progress:{ Codec.p_consumed = 10; p_slices = 1; p_done = false }
        db ~key:k ~bench:"B" ~technique:"Rand" ~racy:0 ~options:o
        (entry_stats "Rand" None);
      Alcotest.(check bool) "in-flight cell invisible to find" true (Db.find db k = None);
      Alcotest.(check bool) "in-flight cell invisible to mem" false (Db.mem db k);
      Alcotest.(check bool) "visible to find_any" true (Db.find_any db k <> None);
      Alcotest.(check int) "size counts finished cells only" 0 (Db.size db);
      Alcotest.(check bool) "but the store is not empty" false (Db.is_empty db);
      Db.record
        ~progress:{ Codec.p_consumed = 40; p_slices = 2; p_done = true }
        db ~key:k ~bench:"B" ~technique:"Rand" ~racy:0 ~options:o
        (entry_stats "Rand" None);
      Alcotest.(check bool) "done campaign cell visible to find" true (Db.mem db k);
      Db.close db;
      let db = Db.open_ ~dir in
      (match Db.find db k with
      | None -> Alcotest.fail "done campaign cell lost on reopen"
      | Some e -> (
          match e.Db.e_progress with
          | Some p ->
              Alcotest.(check int) "consumed survives" 40 p.Codec.p_consumed;
              Alcotest.(check int) "slices survive" 2 p.Codec.p_slices
          | None -> Alcotest.fail "progress lost on reopen"));
      Db.close db)

(* --- merging worker stores: lattice laws --- *)

(* Journals whose records collide on few keys (two benches × two
   techniques, fixed options), so merges exercise the per-key join. *)
let gen_journal =
  QCheck2.Gen.(
    list_size (int_bound 6)
      (let* bench = oneofl [ "B1"; "B2" ] in
       let* technique = oneofl [ "IPB"; "Rand" ] in
       let* racy = int_bound 3 in
       let* stats = gen_stats in
       let* progress = option gen_progress in
       return (bench, technique, racy, { stats with Stats.technique }, progress)))

let build_store dir journal =
  let db = Db.open_ ~dir in
  List.iter
    (fun (bench, technique, racy, stats, progress) ->
      let key = Db.fingerprint ~bench ~technique Techniques.default_options in
      Db.record ?progress db ~key ~bench ~technique ~racy
        ~options:Techniques.default_options stats)
    journal;
  db

(* A store's semantic content, order-independent. *)
let canon db =
  Db.entries_any db
  |> List.map (fun (k, (e : Db.entry)) ->
         ( k,
           e.Db.e_bench,
           e.Db.e_technique,
           e.Db.e_racy,
           Codec.encode_stats e.Db.e_stats,
           e.Db.e_witness,
           Option.map
             (fun (p : Codec.progress) ->
               (p.Codec.p_consumed, p.Codec.p_slices, p.Codec.p_done))
             e.Db.e_progress ))
  |> List.sort compare

(* Build the journals in fresh stores, merge them (in journal-list order)
   into another fresh store, and return its canonical content. *)
let canon_of_merge journals =
  with_dir (fun dir ->
      let dst = Db.open_ ~dir:(Filename.concat dir "dst") in
      List.iteri
        (fun i j ->
          let src =
            build_store (Filename.concat dir (Printf.sprintf "src%d" i)) j
          in
          Db.merge_from dst ~src;
          Db.close src)
        journals;
      let c = canon dst in
      Db.close dst;
      c)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"Db.merge_from: commutative" ~count:15
    QCheck2.Gen.(tup2 gen_journal gen_journal)
    (fun (a, b) -> canon_of_merge [ a; b ] = canon_of_merge [ b; a ])

let prop_merge_associative =
  QCheck2.Test.make ~name:"Db.merge_from: associative" ~count:15
    QCheck2.Gen.(tup3 gen_journal gen_journal gen_journal)
    (fun (a, b, c) ->
      (* ((a ∪ b) ∪ c) vs (a ∪ (b ∪ c)): materialise b ∪ c first, then
         fold it into a copy of a *)
      let left = canon_of_merge [ a; b; c ] in
      let right =
        with_dir (fun dir ->
            let bc = Db.open_ ~dir:(Filename.concat dir "bc") in
            let sb = build_store (Filename.concat dir "b") b in
            let sc = build_store (Filename.concat dir "c") c in
            Db.merge_from bc ~src:sb;
            Db.merge_from bc ~src:sc;
            Db.close sb;
            Db.close sc;
            let dst = Db.open_ ~dir:(Filename.concat dir "dst") in
            let sa = build_store (Filename.concat dir "a") a in
            Db.merge_from dst ~src:sa;
            Db.merge_from dst ~src:bc;
            Db.close sa;
            Db.close bc;
            let c = canon dst in
            Db.close dst;
            c)
      in
      left = right)

let prop_merge_idempotent =
  QCheck2.Test.make
    ~name:"Db.merge_from: idempotent on duplicate cells" ~count:15 gen_journal
    (fun a ->
      (* a ∪ a = a, both as a repeated source and as a self-re-merge *)
      canon_of_merge [ a; a ] = canon_of_merge [ a ])

let test_merge_prefers_advanced () =
  let o = Techniques.default_options in
  let stats n = { (entry_stats "Rand" None) with Stats.total = n } in
  let rec_with db key progress n =
    Db.record ?progress db ~key ~bench:"B" ~technique:"Rand" ~racy:0
      ~options:o (stats n)
  in
  let key = Db.fingerprint ~bench:"B" ~technique:"Rand" o in
  let check_merge ~what ~expect j1 j2 =
    with_dir (fun dir ->
        let s1 = Db.open_ ~dir:(Filename.concat dir "s1") in
        j1 s1;
        let s2 = Db.open_ ~dir:(Filename.concat dir "s2") in
        j2 s2;
        List.iter
          (fun (a, b) ->
            let dst = Db.open_ ~dir:(fresh_dir ()) in
            Db.merge_from dst ~src:a;
            Db.merge_from dst ~src:b;
            let e = Option.get (Db.find_any dst key) in
            Alcotest.(check int) what expect e.Db.e_stats.Stats.total;
            let d = Db.dir dst in
            Db.close dst;
            rm_rf d)
          [ (s1, s2); (s2, s1) ];
        Db.close s1;
        Db.close s2)
  in
  let inflight n db =
    rec_with db key
      (Some { Codec.p_consumed = n; p_slices = 1; p_done = false })
      n
  in
  let finished n db =
    rec_with db key
      (Some { Codec.p_consumed = n; p_slices = 2; p_done = true })
      n
  in
  check_merge ~what:"larger banked budget wins" ~expect:20 (inflight 10)
    (inflight 20);
  check_merge ~what:"finished beats in-flight" ~expect:15 (finished 15)
    (inflight 20)

(* --- compaction --- *)

let count_journal_lines dir =
  let ic = open_in_bin (Filename.concat dir "journal.jsonl") in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' content
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

(* --- kill-and-resume: the tentpole guarantee --- *)

let pick name =
  match Sctbench.Registry.by_name name with
  | Some b -> b
  | None -> Alcotest.fail ("missing " ^ name)

let resume_options = { Techniques.default_options with Techniques.limit = 40 }

let resume_benches () =
  [ pick "CS.lazy01_bad"; pick "CS.deadlock01_bad"; pick "CS.account_bad" ]

let check_rows_equal clean resumed =
  List.iter2
    (fun (c : Sct_report.Run_data.row) (r : Sct_report.Run_data.row) ->
      let name = c.Sct_report.Run_data.bench.Sctbench.Bench.name in
      Alcotest.(check string)
        "bench" name r.Sct_report.Run_data.bench.Sctbench.Bench.name;
      Alcotest.(check int)
        (name ^ " racy") c.Sct_report.Run_data.racy_locations
        r.Sct_report.Run_data.racy_locations;
      List.iter2
        (fun (t1, s1) (t2, s2) ->
          Alcotest.(check bool) "technique order" true (t1 = t2);
          Alcotest.check stats_t
            (name ^ " " ^ Techniques.name t1)
            s1 s2)
        c.Sct_report.Run_data.results r.Sct_report.Run_data.results)
    clean resumed

exception Interrupted

let test_kill_and_resume () =
  with_dir (fun dir ->
      let o = resume_options in
      let benches = resume_benches () in
      let n_cells = List.length benches * List.length Techniques.all_paper in
      let clean = Sct_report.Run_data.run_all o benches in
      (* run with a store and "crash" before the third benchmark *)
      let db = Db.open_ ~dir in
      let seen = ref 0 in
      (try
         ignore
           (Sct_report.Run_data.run_all ~store:db
              ~progress:(fun _ ->
                incr seen;
                if !seen = 3 then raise Interrupted)
              o benches
             : Sct_report.Run_data.row list)
       with Interrupted -> ());
      Db.close db;
      append_torn_record dir;
      (* resume: only the missing cells may run *)
      let db = Db.open_ ~dir in
      let before = Db.size db in
      Alcotest.(check bool)
        "interrupted partway" true
        (before > 0 && before < n_cells);
      let resumed = Sct_report.Run_data.run_all ~store:db o benches in
      Alcotest.(check int) "all cells journalled" n_cells (Db.size db);
      Db.close db;
      check_rows_equal clean resumed;
      (* nothing journalled twice: every line in the journal is either one
         of the cells or the torn record *)
      let ic = open_in_bin (Filename.concat dir "journal.jsonl") in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines =
        String.split_on_char '\n' content
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int)
        "no cell re-executed" (n_cells + 1) (List.length lines);
      (* a fully journalled store reproduces the rows without running
         anything — and still matches *)
      let db = Db.open_ ~dir in
      let cached = Sct_report.Run_data.run_all ~store:db o benches in
      Alcotest.(check int) "pure read" n_cells (Db.size db);
      Db.close db;
      check_rows_equal clean cached)

let test_compact_then_resume () =
  with_dir (fun dir ->
      let o = resume_options in
      let benches = resume_benches () in
      let clean = Sct_report.Run_data.run_all o benches in
      (* interrupt a stored run, tear the journal tail, then compact *)
      let db = Db.open_ ~dir in
      let seen = ref 0 in
      (try
         ignore
           (Sct_report.Run_data.run_all ~store:db
              ~progress:(fun _ ->
                incr seen;
                if !seen = 3 then raise Interrupted)
              o benches
             : Sct_report.Run_data.row list)
       with Interrupted -> ());
      Db.close db;
      append_torn_record dir;
      let db = Db.open_ ~dir in
      let before = canon db in
      let records = List.length (Db.entries_any db) in
      Db.compact db;
      Alcotest.(check bool)
        "in-memory state unchanged by compaction" true
        (canon db = before);
      Alcotest.(check int)
        "journal holds exactly one line per cell (torn tail dropped)"
        records (count_journal_lines dir);
      Db.close db;
      (* the compacted store resumes into exactly the clean rows *)
      let db = Db.open_ ~dir in
      Alcotest.(check bool)
        "reopened compacted store reads back identically" true
        (canon db = before);
      let resumed = Sct_report.Run_data.run_all ~store:db o benches in
      Db.close db;
      check_rows_equal clean resumed)

let test_witnesses_replay_as_buggy () =
  with_dir (fun dir ->
      let o = resume_options in
      let benches = resume_benches () in
      let db = Db.open_ ~dir in
      let (_ : Sct_report.Run_data.row list) =
        Sct_report.Run_data.run_all ~store:db o benches
      in
      let witnesses =
        List.filter_map (fun (_, e) -> e.Db.e_witness) (Db.entries db)
      in
      Alcotest.(check bool) "some witnesses recorded" true (witnesses <> []);
      List.iter
        (fun digest ->
          let a =
            Artifact.load
              (Filename.concat (Db.artifacts_dir db) (digest ^ ".sched"))
          in
          let b = pick a.Artifact.meta.Artifact.a_bench in
          let ao = a.Artifact.meta.Artifact.a_options in
          let promote =
            Sct_race.Promotion.promote
              (Techniques.detect_races ao b.Sctbench.Bench.program)
          in
          match
            Sct_explore.Replay.replay ~promote
              ~max_steps:ao.Techniques.max_steps ~schedule:a.Artifact.schedule
              b.Sctbench.Bench.program
          with
          | None -> Alcotest.fail (digest ^ ": witness schedule infeasible")
          | Some r ->
              Alcotest.(check bool)
                (digest ^ " reproduces its bug")
                true
                (Outcome.is_buggy r.Sct_core.Runtime.r_outcome))
        witnesses;
      Db.close db)

(* --- stores written while the prefix-batched executor existed --- *)

(* The same DFS cell (CS.reorder_3_bad, limit 5) journalled twice by a
   build that still had [--prefix-batch]: batched first (its fingerprint
   carried ["prefix_batch":true]), then unbatched. *)
let old_journal =
  String.concat "\n"
    [
      {|{"v":1,"key":"2b4f8c7fd693d7c552507ac09cef6ef5","bench":"CS.reorder_3_bad","technique":"DFS","racy":2,"stats":{"technique":"DFS","bound":null,"bound_complete":false,"to_first_bug":null,"total":5,"new_at_bound":0,"buggy":0,"complete":false,"hit_limit":true,"first_bug":null,"n_threads":4,"max_enabled":3,"max_sched_points":7,"executions":5,"steps_executed":21,"steps_saved":24,"distinct":null},"witness":null}|};
      {|{"v":1,"key":"efabc81b5dedd31095b522e0b29e89ff","bench":"CS.reorder_3_bad","technique":"DFS","racy":2,"stats":{"technique":"DFS","bound":null,"bound_complete":false,"to_first_bug":null,"total":5,"new_at_bound":0,"buggy":0,"complete":false,"hit_limit":true,"first_bug":null,"n_threads":4,"max_enabled":3,"max_sched_points":7,"executions":5,"steps_executed":45,"steps_saved":0,"distinct":null},"witness":null}|};
      "";
    ]

let test_old_store_resumes () =
  with_dir (fun dir ->
      Out_channel.with_open_bin (Filename.concat dir "journal.jsonl")
        (fun oc -> output_string oc old_journal);
      let db = Db.open_ ~dir in
      Alcotest.(check int) "both old records load" 2 (Db.size db);
      let o = { Techniques.default_options with Techniques.limit = 5 } in
      let bench = pick "CS.reorder_3_bad" in
      let fresh =
        Sct_report.Run_data.run_benchmark ~techniques:[ Techniques.DFS ] o
          bench
      in
      let resumed =
        Sct_report.Run_data.run_benchmark ~store:db
          ~techniques:[ Techniques.DFS ] o bench
      in
      Alcotest.(check int)
        "the unbatched resume finds its cell" 2 (count_journal_lines dir);
      check_rows_equal [ fresh ] [ resumed ];
      Db.compact db;
      Db.close db;
      let db = Db.open_ ~dir in
      Alcotest.(check int) "compacted store keeps both records" 2 (Db.size db);
      Db.close db;
      let compacted =
        In_channel.with_open_bin (Filename.concat dir "journal.jsonl")
          In_channel.input_all
      in
      let mentions needle =
        let n = String.length needle in
        let rec at i =
          i + n <= String.length compacted
          && (String.sub compacted i n = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool)
        "compaction drops the retired counter" false (mentions "steps_saved"))

let suites =
  [
    ( "store.codec",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip_schedule;
        QCheck_alcotest.to_alcotest prop_roundtrip_bug;
        QCheck_alcotest.to_alcotest prop_roundtrip_witness;
        QCheck_alcotest.to_alcotest prop_roundtrip_options;
        QCheck_alcotest.to_alcotest prop_roundtrip_stats;
        QCheck_alcotest.to_alcotest prop_roundtrip_progress;
        Alcotest.test_case "version-1 wire format is stable" `Quick
          test_fixture_stability;
        Alcotest.test_case "campaign progress wire format is stable" `Quick
          test_progress_fixture_stability;
        Alcotest.test_case "version gate and malformed input" `Quick
          test_version_gate;
      ] );
    ( "store.artifact",
      [
        Alcotest.test_case "save/load round-trip, content-addressed" `Quick
          test_artifact_roundtrip;
        Alcotest.test_case "tampering is detected" `Quick
          test_artifact_tamper_detected;
        Alcotest.test_case "schedule_of_file reads raw and .sched files"
          `Quick test_schedule_of_file;
        Alcotest.test_case "listing is digest-ordered" `Quick
          test_artifact_list_order;
      ] );
    ( "store.db",
      [
        Alcotest.test_case "journal round-trip with witness artifacts" `Quick
          test_db_roundtrip;
        Alcotest.test_case "truncated final record is recovered" `Quick
          test_db_truncated_tail;
        Alcotest.test_case "fingerprint ignores jobs/split-depth" `Quick
          test_fingerprint_ignores_parallelism;
        Alcotest.test_case "campaign progress records are slice-resumable"
          `Quick test_db_progress_records;
      ] );
    ( "store.merge",
      [
        QCheck_alcotest.to_alcotest prop_merge_commutative;
        QCheck_alcotest.to_alcotest prop_merge_associative;
        QCheck_alcotest.to_alcotest prop_merge_idempotent;
        Alcotest.test_case "join keeps the most advanced snapshot" `Quick
          test_merge_prefers_advanced;
      ] );
    ( "store.resume",
      [
        Alcotest.test_case "kill-and-resume equals an uninterrupted run"
          `Slow test_kill_and_resume;
        Alcotest.test_case "compacted store resumes identically" `Slow
          test_compact_then_resume;
        Alcotest.test_case "recorded witnesses replay as buggy" `Slow
          test_witnesses_replay_as_buggy;
        Alcotest.test_case "a store with batched records resumes" `Quick
          test_old_store_resumes;
      ] );
  ]
