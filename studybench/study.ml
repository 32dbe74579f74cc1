(* Study-level benchmark: the paper's Table 3 study (benchmark x technique
   cells run to a verdict under a schedule limit), timed end to end and,
   in a traced run, layer by layer. The layers are the library's public
   entry points: race detection ([Techniques.detect_races]), exploration
   ([Techniques.run]), the execution core ([Runtime.exec]), the domain
   pool ([Pool] and [Suite.run_all]), the store ([Db.open_], [Db.record])
   and the report ([Table3]). Every verdict is checked against a committed
   per-cell reference; see BENCHMARK.json for the workloads and metrics and
   run.py for the build. The last line of stdout is the JSON result. *)

open Sct_explore
module Bench = Sctbench.Bench
module Db = Sct_store.Db
module Json = Sct_store.Json
module Pool = Sct_parallel.Pool
module Promotion = Sct_race.Promotion

let now = Unix.gettimeofday

let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* ---------------------------------------------------------------- *)
(* Spans: kept in memory, written as JSONL at exit. A span's parent is
   the innermost open span of its domain unless given explicitly (pool
   tasks name the collector's phase span). Off, a span is a plain call. *)

module Trace = struct
  type span = {
    id : int;
    parent : int;
    name : string;
    domain : int;
    t0 : float;
    t1 : float;
    minor0 : float;
    minor1 : float;
    major0 : int;
    major1 : int;
  }

  let on = ref false
  let next_id = Atomic.make 1
  let lock = Mutex.create ()
  let spans = ref []
  let current = Domain.DLS.new_key (fun () -> 0)
  let current_id () = Domain.DLS.get current

  let span ?parent name f =
    if not !on then f ()
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let saved = Domain.DLS.get current in
      let parent = Option.value parent ~default:saved in
      Domain.DLS.set current id;
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      let finish () =
        let t1 = now () in
        let g1 = Gc.quick_stat () in
        Domain.DLS.set current saved;
        let s =
          {
            id;
            parent;
            name;
            domain = (Domain.self () :> int);
            t0;
            t1;
            minor0 = g0.Gc.minor_words;
            minor1 = g1.Gc.minor_words;
            major0 = g0.Gc.major_collections;
            major1 = g1.Gc.major_collections;
          }
        in
        Mutex.protect lock (fun () -> spans := s :: !spans)
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name

  (* Self time per layer: a span's duration minus the part covered by its
     children on the same domain (children on pool workers run alongside
     their parent, not inside it). *)
  let self_by_layer spans =
    let child_time = Hashtbl.create 64 in
    List.iter
      (fun s ->
        match List.find_opt (fun p -> p.id = s.parent) spans with
        | Some p when p.domain = s.domain ->
            let prev = Option.value (Hashtbl.find_opt child_time p.id) ~default:0. in
            Hashtbl.replace child_time p.id (prev +. (s.t1 -. s.t0))
        | _ -> ())
      spans;
    let by_layer = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let self =
          s.t1 -. s.t0
          -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.
        in
        let l = layer s.name in
        let prev = Option.value (Hashtbl.find_opt by_layer l) ~default:0. in
        Hashtbl.replace by_layer l (prev +. self))
      spans;
    by_layer

  let ns t = Json.Int (int_of_float (t *. 1e9))

  let write ~run path =
    let oc = open_out_bin path in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("run", Json.Int run);
                  ("id", Json.Int s.id);
                  ("parent", Json.Int s.parent);
                  ("name", Json.Str s.name);
                  ("domain", Json.Int s.domain);
                  ("start_ns", ns s.t0);
                  ("end_ns", ns s.t1);
                  ("minor_words_start", Json.Int (int_of_float s.minor0));
                  ("minor_words_end", Json.Int (int_of_float s.minor1));
                  ("major_collections_start", Json.Int s.major0);
                  ("major_collections_end", Json.Int s.major1);
                ]));
        output_char oc '\n')
      (List.rev !spans);
    close_out oc

  (* Cost of one span, to price the tracing overhead of a run: the
     difference of two whole-study walls is dominated by run-to-run noise,
     while the span machinery is the only work tracing adds to the study. *)
  let calibrate () =
    let n = 2000 in
    let saved = !spans in
    let t0 = now () in
    for _ = 1 to n do
      span "calibrate" ignore
    done;
    let per = (now () -. t0) /. float_of_int n in
    spans := saved;
    per
end

(* ---------------------------------------------------------------- *)
(* Workloads *)

type workload = {
  w_name : string;
  w_jobs : int;
  w_store : bool;  (** write a fresh store, then resume from it *)
  w_techniques : Techniques.t list;
  w_por : Por.mode option;
  w_max_threads : int option;
}

let workload_of_name = function
  | "study-seq" ->
      {
        w_name = "study-seq";
        w_jobs = 1;
        w_store = false;
        w_techniques = Techniques.all_paper;
        w_por = None;
        w_max_threads = None;
      }
  | "study-par" ->
      {
        w_name = "study-par";
        w_jobs = Pool.default_jobs ();
        w_store = true;
        w_techniques = Techniques.all_paper;
        w_por = None;
        w_max_threads = None;
      }
  | "por" ->
      (* CS.twostage_100_bad (101 threads) alone takes minutes under POR;
         its wide-thread cost is measured by study-seq *)
      {
        w_name = "por";
        w_jobs = 1;
        w_store = false;
        w_techniques = Techniques.[ IPB; IDB; DFS ];
        w_por = Some Por.Dpor_sleep;
        w_max_threads = Some 32;
      }
  | w -> failwith ("unknown workload " ^ w)

let tech_key t =
  match t with
  | Techniques.Maple -> "maple"
  | t -> String.lowercase_ascii (Techniques.name t)

(* ---------------------------------------------------------------- *)
(* Reference verdicts *)

type verdict = {
  found : bool;
  bound : int option;
  to_first_bug : int option;
  total : int;
  buggy : int;
}

let verdict_of (s : Stats.t) =
  {
    found = Stats.found s;
    bound = s.Stats.bound;
    to_first_bug = s.Stats.to_first_bug;
    total = s.Stats.total;
    buggy = s.Stats.buggy;
  }

type reference = {
  r_seed : int;
  r_limit : int;
  r_suite : string;
  r_deviations : int;  (** paper-agreement deviations of IPB/IDB/DFS cells *)
  r_cells : ((string * string) * verdict) list;
}

let json_opt = function None -> Json.Null | Some i -> Json.Int i

let write_reference path r =
  let cell ((bench, tech), v) =
    Json.to_string
      (Json.Obj
         [
           ("bench", Json.Str bench);
           ("technique", Json.Str tech);
           ("found", Json.Bool v.found);
           ("bound", json_opt v.bound);
           ("to_first_bug", json_opt v.to_first_bug);
           ("total", Json.Int v.total);
           ("buggy", Json.Int v.buggy);
         ])
  in
  let oc = open_out_bin path in
  Printf.fprintf oc
    "{\"seed\":%d,\"limit\":%d,\"suite\":%S,\"systematic_deviations\":%d,\n\
     \"cells\":[\n%s\n]}\n"
    r.r_seed r.r_limit r.r_suite r.r_deviations
    (String.concat ",\n" (List.map cell r.r_cells));
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_reference path =
  let j = Json.of_string (read_file path) in
  let get k o =
    match Json.member k o with Some v -> v | None -> failwith ("reference: no " ^ k)
  in
  let int k o = match get k o with Json.Int i -> i | _ -> failwith k in
  let str k o = match get k o with Json.Str s -> s | _ -> failwith k in
  let opt k o =
    match get k o with Json.Int i -> Some i | Json.Null -> None | _ -> failwith k
  in
  let cells =
    match get "cells" j with
    | Json.Arr l ->
        List.map
          (fun c ->
            ( (str "bench" c, str "technique" c),
              {
                found =
                   (match get "found" c with Json.Bool b -> b | _ -> failwith "found");
                bound = opt "bound" c;
                to_first_bug = opt "to_first_bug" c;
                total = int "total" c;
                buggy = int "buggy" c;
              } ))
          l
    | _ -> failwith "reference: cells"
  in
  {
    r_seed = int "seed" j;
    r_limit = int "limit" j;
    r_suite = str "suite" j;
    r_deviations = int "systematic_deviations" j;
    r_cells = cells;
  }

(* ---------------------------------------------------------------- *)
(* One cell: a technique run to its verdict on one benchmark *)

type cell = {
  c_bench : Bench.t;
  c_tech : Techniques.t;
  c_result : (Stats.t, string) result;
  c_secs : float;
  c_words : float;
}

type bench_run = {
  b_bench : Bench.t;
  b_racy : int;
  b_detection : Promotion.result option;  (** [None] when not observed *)
  b_detect_s : float;
  b_cells : cell list;
}

let detect ?parent o (b : Bench.t) =
  Trace.span ?parent "race.detect" (fun () ->
      let t0 = now () in
      let d =
        match Techniques.detect_races o b.Bench.program with
        | d -> Some d
        | exception _ -> None
      in
      (d, now () -. t0))

let run_cell ?parent o ~promote (b : Bench.t) t =
  Trace.span ?parent ("explore." ^ tech_key t) (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r =
        match Techniques.run ~promote o t b.Bench.program with
        | s -> Ok s
        | exception e -> Error (Printexc.to_string e)
      in
      {
        c_bench = b;
        c_tech = t;
        c_result = r;
        c_secs = now () -. t0;
        c_words = Gc.minor_words () -. w0;
      })

let cell_of b t r = { c_bench = b; c_tech = t; c_result = r; c_secs = 0.; c_words = 0. }
let failed_cells ~why techs b = List.map (fun t -> cell_of b t (Error why)) techs

let run_of (b : Bench.t) (d, ds) cells =
  {
    b_bench = b;
    b_racy = (match d with Some d -> List.length d.Promotion.racy | None -> 0);
    b_detection = d;
    b_detect_s = ds;
    b_cells = cells;
  }

let row_of (br : bench_run) =
  {
    Sct_report.Run_data.bench = br.b_bench;
    racy_locations = br.b_racy;
    results =
      List.filter_map
        (fun c ->
          match c.c_result with Ok s -> Some (c.c_tech, s) | Error _ -> None)
        br.b_cells;
  }

(* The user's path: [Suite.run_all] (a one-job pool delegates to
   [Run_data.run_all], as the CLI's [--jobs 1] does). It shows rows, not
   cells, so no cell is timed; if it raises, every cell fails. *)
let study_library pool ?db o techs benches =
  match Sct_parallel.Suite.run_all ~pool ?store:db ~techniques:techs o benches with
  | rows ->
      List.map
        (fun (row : Sct_report.Run_data.row) ->
          {
            b_bench = row.bench;
            b_racy = row.racy_locations;
            b_detection = None;
            b_detect_s = 0.;
            b_cells = List.map (fun (t, st) -> cell_of row.bench t (Ok st)) row.results;
          })
        rows
  | exception e ->
      let why = Printexc.to_string e in
      List.map (fun b -> run_of b (None, 0.) (failed_cells ~why techs b)) benches

let key o (b : Bench.t) t =
  Db.fingerprint ~bench:b.Bench.name ~technique:(Techniques.name t) o

(* Journal one finished cell; the duration of [Db.record], if recorded. *)
let record db o (br : bench_run) c =
  match c.c_result with
  | Error _ -> None
  | Ok s ->
      Trace.span "store.record" (fun () ->
          let t0 = now () in
          Db.record db ~key:(key o c.c_bench c.c_tech)
            ~bench:c.c_bench.Bench.name ~technique:(Techniques.name c.c_tech)
            ~racy:br.b_racy ~options:o s;
          Some (now () -. t0))

(* The traced study: a copy of the coarse sharding of [Suite.run_all]
   (lib/parallel/suite.ml, lines 90-174: one pool job per benchmark for race
   detection, then one per cell, collected and, with a store, journalled in
   suite order) through the pool's public [submit]/[await], so that each
   detection, cell and [Db.record] can be timed. A one-job pool runs each
   job at [submit], which makes this [Run_data.run_all] with the detections
   first. The traced run also times the library's [Suite.run_all] on the
   same inputs and fails every cell on which the two differ. *)
let study_traced pool ?db o techs benches =
  let phase = Trace.current_id () in
  let detections =
    benches
    |> List.map (fun b -> (b, Pool.submit pool (fun () -> detect ~parent:phase o b)))
    |> List.map (fun (b, f) -> (b, Pool.await f))
  in
  let pending =
    List.map
      (fun (b, ((d, _) as det)) ->
        let futs =
          match d with
          | None -> []
          | Some d ->
              let promote = Promotion.promote d in
              List.map
                (fun t ->
                  Pool.submit pool (fun () -> run_cell ~parent:phase o ~promote b t))
                techs
        in
        (b, det, futs))
      detections
  in
  let records = ref [] in
  let runs =
    List.map
      (fun (b, ((d, _) as det), futs) ->
        let cells =
          match d with
          | None -> failed_cells ~why:"race detection raised" techs b
          | Some _ -> List.map Pool.await futs
        in
        let br = run_of b det cells in
        Option.iter
          (fun db ->
            List.iter
              (fun c -> Option.iter (fun s -> records := s :: !records) (record db o br c))
              cells)
          db;
        br)
      pending
  in
  (runs, !records)

let render ~limit rows =
  Trace.span "report.render" (fun () ->
      let buf = Buffer.create 65536 in
      let out = Format.formatter_of_buffer buf in
      Sct_report.Table3.print ~out ~limit rows;
      Sct_report.Table3.print_agreement ~out rows;
      Format.pp_print_flush out ();
      Buffer.contents buf)

(* IPB/IDB/DFS deviations in the agreement report. Rand and MapleAlg
   deviations follow the seed at this limit, so only the seed-independent
   systematic techniques bound the agreement at seeds without a
   reference. *)
let systematic_deviations text =
  let contains line pat =
    let n = String.length pat in
    let rec at i =
      i + n <= String.length line && (String.sub line i n = pat || at (i + 1))
    in
    at 0
  in
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         String.starts_with ~prefix:"deviation:" (String.trim line)
         && List.exists
              (fun t -> contains line ("/" ^ t ^ " (paper:"))
              [ "IPB"; "IDB"; "DFS" ])
  |> List.length

(* ---------------------------------------------------------------- *)
(* Files *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let count_lines path =
  if Sys.file_exists path then
    String.fold_left (fun n ch -> if ch = '\n' then n + 1 else n) 0 (read_file path)
  else 0

(* ---------------------------------------------------------------- *)
(* Command line *)

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  traced : bool;
  limit : int;
  suite : string;
  reference : string option;
  write_ref : string option;
  out_dir : string;
  commit : string;
  spawned_at : float;  (** when the launcher spawned this process *)
  setup_samples : float list;  (** set-up times of earlier set-up-only runs *)
  setup_only : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 30 and trace = ref 0 in
  let limit = ref 200 and suite = ref "all" and reference = ref "" in
  let write_ref = ref "" and out_dir = ref "" and commit = ref "unknown" in
  let spawned_at = ref (now ()) and samples = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "study-seq | study-par | por");
      ("--seed", Arg.Set_int seed, "workload seed (race detection, Rand, MapleAlg)");
      ("--seconds", Arg.Set_int seconds, "measurement budget; at least one study runs");
      ("--trace", Arg.Set_int trace, "1: traced run giving the per-layer metrics");
      ("--limit", Arg.Set_int limit, "schedule limit per cell (default 200)");
      ("--suite", Arg.Set_string suite, "benchmark suite, or all (default)");
      ("--reference", Arg.Set_string reference, "per-cell reference verdicts");
      ("--write-reference", Arg.Set_string write_ref, "write this run's verdicts");
      ("--out-dir", Arg.Set_string out_dir, "directory for the store and spans");
      ("--commit", Arg.Set_string commit, "source revision to record");
      ("--spawned-at", Arg.Set_float spawned_at, "epoch seconds of the process start");
      ("--setup-samples", Arg.Set_string samples, "comma-separated earlier set-up times");
      ("--setup-only", Arg.Set setup_only, "print the set-up time and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "study.exe --workload W --seed N --seconds S --trace 0|1 --out-dir DIR";
  if !out_dir = "" then raise (Arg.Bad "--out-dir is required");
  let opt s = if s = "" then None else Some s in
  {
    workload = workload_of_name !workload;
    seed = !seed;
    seconds = float_of_int !seconds;
    traced = !trace = 1;
    limit = !limit;
    suite = !suite;
    reference = opt !reference;
    write_ref = opt !write_ref;
    out_dir = !out_dir;
    commit = !commit;
    spawned_at = !spawned_at;
    setup_samples =
      List.filter_map float_of_string_opt (String.split_on_char ',' !samples);
    setup_only = !setup_only;
  }

let select_benches cfg =
  let all =
    if cfg.suite = "all" then Sctbench.Registry.all
    else
      match Bench.suite_of_name cfg.suite with
      | Some s -> Sctbench.Registry.of_suite s
      | None -> failwith ("unknown suite " ^ cfg.suite)
  in
  match cfg.workload.w_max_threads with
  | None -> all
  | Some n -> List.filter (fun b -> b.Bench.paper.Bench.p_threads <= n) all

let options cfg =
  {
    Techniques.default_options with
    Techniques.limit = cfg.limit;
    seed = cfg.seed;
    jobs = cfg.workload.w_jobs;
    por = cfg.workload.w_por;
  }

(* ---------------------------------------------------------------- *)
(* Set-up: registry, reference, pool and store directory. [setup_s] runs
   from the process start (taken by the launcher just before it spawns this
   program) to the first cell; the launcher spawns a few set-up-only runs
   first and passes their samples in, and the median, scaled to host speed
   like the other end-to-end times, is reported. *)

type setup = {
  s_benches : Bench.t list;
  s_reference : reference option;
  s_pool : Pool.t;
  s_store_dir : string;
  s_pool_create_s : float;
}

let setup cfg =
  let benches = select_benches cfg in
  let reference = Option.map read_reference cfg.reference in
  let p0 = now () in
  let pool = Pool.create ~jobs:cfg.workload.w_jobs in
  let pool_create_s = now () -. p0 in
  let store_dir = Filename.concat cfg.out_dir "store" in
  rm_rf store_dir;
  mkdir_p store_dir;
  Db.close (Db.open_ ~dir:store_dir);
  {
    s_benches = benches;
    s_reference = reference;
    s_pool = pool;
    s_store_dir = store_dir;
    s_pool_create_s = pool_create_s;
  }

(* ---------------------------------------------------------------- *)
(* One repetition: the study, its report, the store, and the resume. *)

(* What a repetition keeps of a cell once the study's data is dropped. *)
type summary = {
  m_bench : string;
  m_tech : Techniques.t;
  m_verdict : verdict option;  (** [None]: the cell raised *)
  m_digest : string;  (** digest of the store encoding of its statistics *)
  m_secs : float;
  m_words : float;
  m_executions : int;
  m_steps : int;
  m_por_pruned : int;
}

let stats_digest s =
  Digest.to_hex (Digest.string (Json.to_string (Sct_store.Codec.stats_to_json s)))

let summarize c =
  let m_bench = c.c_bench.Bench.name and m_tech = c.c_tech in
  match c.c_result with
  | Ok s ->
      {
        m_bench;
        m_tech;
        m_verdict = Some (verdict_of s);
        m_digest = stats_digest s;
        m_secs = c.c_secs;
        m_words = c.c_words;
        m_executions = s.Stats.executions;
        m_steps = s.Stats.steps_executed;
        m_por_pruned = s.Stats.por_pruned;
      }
  | Error _ ->
      {
        m_bench;
        m_tech;
        m_verdict = None;
        m_digest = "";
        m_secs = c.c_secs;
        m_words = c.c_words;
        m_executions = 0;
        m_steps = 0;
        m_por_pruned = 0;
      }

type resumed = {
  resume_s : float;
  open_s : float;
  open_words : float;
  identical : bool;  (** the resumed Table 3 equals the fresh one *)
  digests : (string * string, string) Hashtbl.t;  (** cell -> digest *)
  reexecuted : int;  (** journal records the resume appended *)
}

type rep = {
  cells : summary list;
  detections : (string * float * Promotion.result option) list;
      (** benchmark, seconds, result (races dropped) *)
  wall_s : float;
  suite_s : float;  (** the cells alone: [Suite.run_all] or its traced copy *)
  cpu_s : float;
  text : string;
  render_s : float;
  record_s : float list;
  journal_bytes : int;
  resumed : resumed option;
}

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The study, timed: the cells, then Table 3. Untraced, the cells are the
   library's [Suite.run_all]; traced, its timed copy. *)
let study cfg o (s : setup) =
  let w = cfg.workload in
  let techs = w.w_techniques in
  let cpu0 = cpu_time () in
  let t0 = now () in
  let runs, suite_s, text, render_s, records =
    Trace.span "study" (fun () ->
        let db = if w.w_store then Some (Db.open_ ~dir:s.s_store_dir) else None in
        let q0 = now () in
        let runs, records =
          Trace.span "parallel.suite" (fun () ->
              if !Trace.on then study_traced s.s_pool ?db o techs s.s_benches
              else (study_library s.s_pool ?db o techs s.s_benches, []))
        in
        let suite_s = now () -. q0 in
        Option.iter Db.close db;
        let r0 = now () in
        let text = render ~limit:cfg.limit (List.map row_of runs) in
        Out_channel.with_open_bin (Filename.concat cfg.out_dir "table3.txt")
          (fun oc -> output_string oc text);
        (runs, suite_s, text, now () -. r0, records))
  in
  let wall_s = now () -. t0 in
  let cpu_s = cpu_time () -. cpu0 in
  let cells = List.concat_map (fun br -> List.map summarize br.b_cells) runs in
  let detections =
    List.map
      (fun br ->
        ( br.b_bench.Bench.name,
          br.b_detect_s,
          Option.map (fun d -> { d with Promotion.races = [] }) br.b_detection ))
      runs
  in
  (cells, detections, wall_s, suite_s, cpu_s, text, render_s, records)

(* Reopen the full store and render Table 3, as [--resume] does; no cell
   may run. Returns the resume's own duration; the digests of the resumed
   statistics are taken after it. *)
let resume cfg o (s : setup) ~journal ~fresh_text =
  let lines0 = count_lines journal in
  let r0 = now () in
  let rows, text, open_s, open_words =
    Trace.span "resume" (fun () ->
        let w0 = Gc.minor_words () in
        let db = Trace.span "store.open" (fun () -> Db.open_ ~dir:s.s_store_dir) in
        let open_s = now () -. r0 in
        let open_words = Gc.minor_words () -. w0 in
        let rows =
          Trace.span "parallel.resume" (fun () ->
              Sct_parallel.Suite.run_all ~pool:s.s_pool ~store:db
                ~techniques:cfg.workload.w_techniques o s.s_benches)
        in
        let text = render ~limit:cfg.limit rows in
        Db.close db;
        (rows, text, open_s, open_words))
  in
  let resume_s = now () -. r0 in
  let digests = Hashtbl.create 512 in
  List.iter
    (fun (row : Sct_report.Run_data.row) ->
      List.iter
        (fun (t, st) ->
          Hashtbl.replace digests
            (row.bench.Bench.name, Techniques.name t)
            (stats_digest st))
        row.results)
    rows;
  {
    resume_s;
    open_s;
    open_words;
    identical = String.equal fresh_text text;
    digests;
    reexecuted = count_lines journal - lines0;
  }

(* One repetition. [wall_s] runs from the first library call to the last
   output byte: the study, and on a store workload also the resume. Between
   the two, untimed, the study's data is dropped and the heap compacted, as
   a [--resume] starts in a fresh process. *)
let run_rep cfg o (s : setup) =
  let journal = Filename.concat s.s_store_dir "journal.jsonl" in
  rm_rf s.s_store_dir;
  mkdir_p s.s_store_dir;
  Gc.compact ();
  let cells, detections, study_s, suite_s, cpu_s, text, render_s, record_s =
    study cfg o s
  in
  let journal_bytes = file_size journal in
  let resumed =
    if cfg.workload.w_store then begin
      Gc.compact ();
      Some (resume cfg o s ~journal ~fresh_text:text)
    end
    else None
  in
  {
    cells;
    detections;
    wall_s =
      (study_s +. match resumed with Some r -> r.resume_s | None -> 0.);
    suite_s;
    cpu_s;
    text;
    render_s;
    record_s;
    journal_bytes;
    resumed;
  }

(* ---------------------------------------------------------------- *)
(* Verdict checks *)

(* A reference bounds the agreement of any run of its limit and suite; its
   cells apply only at its seed. *)
let same_study cfg (r : reference) = r.r_limit = cfg.limit && r.r_suite = cfg.suite
let reference_applies cfg r = same_study cfg r && r.r_seed = cfg.seed

(* The failed cells of one repetition, whether the study as a whole checks
   out (table identity on resume, agreement not worse), and the IPB/IDB/DFS
   deviation count. *)
let check cfg (s : setup) rep =
  let exact =
    Option.bind s.s_reference (fun r -> if reference_applies cfg r then Some r else None)
  in
  let failed =
    List.filter
      (fun m ->
        let name = (m.m_bench, Techniques.name m.m_tech) in
        match m.m_verdict with
        | None -> true
        | Some v -> (
            (match rep.resumed with
            | Some r -> Hashtbl.find_opt r.digests name <> Some m.m_digest
            | None -> false)
            ||
            match exact with
            | None -> false
            | Some r -> List.assoc_opt name r.r_cells <> Some v))
      rep.cells
  in
  let deviations = systematic_deviations rep.text in
  let agreement_ok =
    match s.s_reference with
    | Some r when same_study cfg r -> deviations <= r.r_deviations
    | _ -> true
  in
  let reexecuted, identical =
    match rep.resumed with Some r -> (r.reexecuted, r.identical) | None -> (0, true)
  in
  let n_failed = min (List.length rep.cells) (List.length failed + reexecuted) in
  (n_failed, identical && agreement_ok, deviations)

(* ---------------------------------------------------------------- *)
(* Core layer: [Runtime.exec] under the deterministic round-robin
   scheduler, with the workload's promotion set for the benchmark. *)

let round_robin (c : Sct_core.Runtime.ctx) =
  match
    Sct_core.Delay.deterministic_choice ~n:c.c_n_threads ~last:c.c_last
      ~enabled:c.c_enabled
  with
  | Some t -> t
  | None -> List.hd c.c_enabled

let exec_ns_per_step o detections name =
  match Sctbench.Registry.by_name name with
  | None -> 0.
  | Some b ->
      let promote =
        match
          List.find_map
            (fun (n, _, d) -> if n = name then d else None)
            detections
        with
        | Some d -> Promotion.promote d
        | None -> Promotion.promote (Techniques.detect_races o b.Bench.program)
      in
      Trace.span ("core.exec." ^ name) (fun () ->
          let t0 = now () in
          let rec go n steps =
            let r =
              Sct_core.Runtime.exec ~promote ~max_steps:o.Techniques.max_steps
                ~record_decisions:false ~scheduler:round_robin b.Bench.program
            in
            let steps = steps + r.Sct_core.Runtime.r_steps in
            if n >= 20 && now () -. t0 >= 0.25 then (now () -. t0, steps)
            else go (n + 1) steps
          in
          let dt, steps = go 1 0 in
          dt *. 1e9 /. float_of_int (max 1 steps))

(* ---------------------------------------------------------------- *)
(* Host speed. On a shared host the same study runs up to ~60% slower for
   minutes at a time, with no steal time: the vCPU itself runs slower, for
   every process alike, so a median over one run cannot remove it. A fixed
   kernel of Stdlib work, which no change to the library can speed up or
   slow down, is timed before and after each repetition, and the end-to-end
   times are scaled by [cal_ref_s] over its time: they are seconds on a host
   on which the kernel takes [cal_ref_s]. The raw times are in the [# rep]
   lines and [host.cal_ms]. *)

let cal_ref_s = 0.2

let host_kernel () =
  let st = Random.State.make [| 42 |] in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 600_000 do
    let k = Random.State.int st 20_000 in
    let l = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k (if List.length l >= 4 then [ i ] else i :: l);
    acc := !acc + k
  done;
  let a = Array.init 200_000 (fun _ -> Random.State.int st 1_000_000) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc + a.(0)))

let host_cal () =
  let t0 = now () in
  host_kernel ();
  now () -. t0

(* ---------------------------------------------------------------- *)
(* Output *)

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name v unit)
         ms)
  ^ "}"

let () =
  let cfg = try parse_args () with Arg.Bad m | Failure m -> prerr_endline m; exit 2 in
  Trace.on := cfg.traced;
  mkdir_p cfg.out_dir;
  let o = options cfg in
  let w = cfg.workload in
  let s = setup cfg in
  let setup_s = now () -. cfg.spawned_at in
  if cfg.setup_only then begin
    Pool.shutdown s.s_pool;
    Printf.printf "%.9f\n" setup_s;
    exit 0
  end;
  let setup_s = median (setup_s :: cfg.setup_samples) in
  let pool_create_s = s.s_pool_create_s in
  (* each repetition with the mean time of the host kernel around it *)
  let measured =
    let t0 = now () in
    let rec go acc cal0 =
      let r0 = now () in
      let rep = Trace.span ~parent:0 "rep" (fun () -> run_rep cfg o s) in
      let cal1 = host_cal () in
      let cal = (cal0 +. cal1) /. 2. in
      Printf.printf "# rep %d wall_s %.6f cal_s %.6f\n%!" (List.length acc) rep.wall_s cal;
      let acc = (rep, cal) :: acc in
      let last = now () -. r0 in
      if cfg.traced || now () -. t0 +. last > cfg.seconds then List.rev acc
      else go acc cal1
    in
    go [] (host_cal ())
  in
  let reps = List.map fst measured in
  let first = List.hd reps in
  (* the first repetition warms caches and the heap; the medians leave it
     out when at least two others ran *)
  let timed = match measured with _ :: (_ :: _ :: _ as rest) -> rest | l -> l in
  let cal_s = median (List.map snd measured) in
  (* Traced, the library's own [Suite.run_all] on the same inputs, into a
     store of its own: its time, and the cells on which the traced copy
     differs from it. *)
  let run_all_s, diverged =
    if not cfg.traced then (0., 0)
    else begin
      let dir = Filename.concat cfg.out_dir "store-library" in
      rm_rf dir;
      mkdir_p dir;
      Gc.compact ();
      let db = if w.w_store then Some (Db.open_ ~dir) else None in
      let t0 = now () in
      let runs = study_library s.s_pool ?db o w.w_techniques s.s_benches in
      let dt = now () -. t0 in
      Option.iter Db.close db;
      let digests = Hashtbl.create 512 in
      List.iter
        (fun br ->
          List.iter
            (fun c ->
              let m = summarize c in
              Hashtbl.replace digests (m.m_bench, m.m_tech) m.m_digest)
            br.b_cells)
        runs;
      ( dt,
        List.length
          (List.filter
             (fun m ->
               m.m_verdict = None
               || Hashtbl.find_opt digests (m.m_bench, m.m_tech) <> Some m.m_digest)
             first.cells) )
    end
  in
  let sd0 = now () in
  Pool.shutdown s.s_pool;
  let pool_shutdown_s = now () -. sd0 in
  let checks = List.map (check cfg s) reps in
  let attempted = List.length first.cells in
  let failed =
    min attempted
      (List.fold_left (fun acc (n, _, _) -> max acc n) diverged checks)
  in
  let correct = failed = 0 && List.for_all (fun (_, ok, _) -> ok) checks in
  let _, _, deviations = List.hd checks in
  (match cfg.write_ref with
  | Some path when correct ->
      write_reference path
        {
          r_seed = cfg.seed;
          r_limit = cfg.limit;
          r_suite = cfg.suite;
          r_deviations = deviations;
          r_cells =
            List.filter_map
              (fun m ->
                Option.map
                  (fun v -> ((m.m_bench, Techniques.name m.m_tech), v))
                  m.m_verdict)
              first.cells;
        }
  | _ -> ());
  let schedules rep =
    isum (fun m -> match m.m_verdict with Some v -> v.total | None -> 0) rep.cells
  in
  let gc = Gc.quick_stat () in
  let metrics =
    if not cfg.traced then
      [
        ( "wall_s",
          median (List.map (fun (r, cal) -> r.wall_s *. cal_ref_s /. cal) timed),
          "s" );
        ("setup_s", setup_s *. cal_ref_s /. cal_s, "s");
        ( "schedules_per_s",
          median
            (List.map
               (fun (r, cal) -> float_of_int (schedules r) /. (r.wall_s *. cal_ref_s /. cal))
               timed),
          "1/s" );
        ( "heap_peak_mb",
          float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6,
          "MB" );
      ]
    else begin
      let rep = first in
      let ok =
        List.filter_map (fun m -> Option.map (fun v -> (m, v)) m.m_verdict) rep.cells
      in
      let wide = exec_ns_per_step o rep.detections "CS.twostage_100_bad" in
      let narrow = exec_ns_per_step o rep.detections "CS.twostage_bad" in
      let detections = List.filter_map (fun (_, _, d) -> d) rep.detections in
      let explore t =
        let mine = List.filter (fun (m, _) -> m.m_tech = t) ok in
        let secs = sum (fun (m, _) -> m.m_secs) mine in
        let execs = isum (fun (m, _) -> m.m_executions) mine in
        let scheds = isum (fun (_, v) -> v.total) mine in
        let steps = isum (fun (m, _) -> m.m_steps) mine in
        let k = "explore." ^ tech_key t ^ "." in
        [
          (k ^ "s", secs, "s");
          (k ^ "executions", float_of_int execs, "count");
          (k ^ "schedules", float_of_int scheds, "count");
          (k ^ "useful_ratio", ratio scheds execs, "ratio");
          (k ^ "ns_per_step", secs *. 1e9 /. float_of_int (max 1 steps), "ns");
          (k ^ "minor_words", sum (fun (m, _) -> m.m_words) mine, "words");
        ]
        @
        if Techniques.supports_por t then
          [
            ( k ^ "por_pruned",
              float_of_int (isum (fun (m, _) -> m.m_por_pruned) mine),
              "count" );
            (k ^ "us_per_exec", secs *. 1e6 /. float_of_int (max 1 execs), "us");
          ]
        else []
      in
      let cell_ms = List.map (fun (m, _) -> m.m_secs *. 1e3) ok in
      let record_ms = List.map (fun x -> x *. 1e3) rep.record_s in
      let spans = !Trace.spans in
      let selfs = Trace.self_by_layer spans in
      let self l = Option.value (Hashtbl.find_opt selfs l) ~default:0. in
      let per_span = Trace.calibrate () in
      (* the store metrics are 0 on the workloads without a store *)
      let resumed f = match rep.resumed with Some r -> f r | None -> 0. in
      (* top-10 slowest cells and the known-cost sanity notes *)
      let by_time = List.sort (fun (a, _) (b, _) -> compare b.m_secs a.m_secs) ok in
      List.iteri
        (fun i (m, _) ->
          if i < 10 then
            Printf.printf "# top %2d  %-28s %-8s %9.3f s %8d execs %10.1f ns/step\n"
              (i + 1)
              m.m_bench (Techniques.name m.m_tech) m.m_secs m.m_executions
              (m.m_secs *. 1e9 /. float_of_int (max 1 m.m_steps)))
        by_time;
      (match by_time with
      | (m, _) :: _ ->
          Printf.printf "# sanity: slowest cell %s/%s (%s)\n" m.m_bench
            (Techniques.name m.m_tech)
            (if m.m_bench = "CS.twostage_100_bad" && m.m_tech = Techniques.IDB
             then "IDB on CS.twostage_100_bad, as expected"
             else "not IDB on CS.twostage_100_bad")
      | [] -> ());
      Option.iter
        (fun r ->
          Printf.printf "# sanity: store.open_s is %.0f%% of resume_s\n"
            (100. *. r.open_s /. r.resume_s))
        rep.resumed;
      Hashtbl.iter (fun l t -> Printf.printf "# self %-10s %9.3f s\n" l t) selfs;
      Trace.write ~run:(Unix.getpid ()) (Filename.concat cfg.out_dir "spans.jsonl");
      [
        ("race.detect_s", sum (fun (_, dt, _) -> dt) rep.detections, "s");
        ( "race.runs",
          float_of_int (isum (fun d -> d.Promotion.runs) detections),
          "count" );
        ( "race.racy_locations",
          float_of_int (isum (fun d -> List.length d.Promotion.racy) detections),
          "count" );
        ("core.exec_ns_per_step.wide", wide, "ns");
        ("core.exec_ns_per_step.narrow", narrow, "ns");
      ]
      @ List.concat_map explore Techniques.all_paper
      @ [
          ("parallel.pool_create_s", pool_create_s, "s");
          ("parallel.pool_shutdown_s", pool_shutdown_s, "s");
          ("parallel.run_all_s", run_all_s, "s");
          ("parallel.copy_s", rep.suite_s, "s");
          ( "parallel.cpu_util",
            rep.cpu_s /. (float_of_int w.w_jobs *. rep.wall_s),
            "ratio" );
          ( "parallel.critical_cell_share",
            List.fold_left (fun acc (m, _) -> max acc m.m_secs) 0. ok /. rep.wall_s,
            "ratio" );
          ("store.record_ms_p50", median record_ms, "ms");
          ("store.record_ms_p95", quantile 0.95 record_ms, "ms");
          ("store.write_s", List.fold_left ( +. ) 0. rep.record_s, "s");
          ( "store.bytes_per_cell",
            ratio rep.journal_bytes (List.length rep.record_s),
            "bytes" );
          ("store.open_s", resumed (fun r -> r.open_s), "s");
          ( "store.open_mb_per_s",
            resumed (fun r -> float_of_int rep.journal_bytes /. 1e6 /. r.open_s),
            "MB/s" );
          ("store.open_minor_words", resumed (fun r -> r.open_words), "words");
          ("resume_s", resumed (fun r -> r.resume_s), "s");
          ("report.render_ms", rep.render_s *. 1e3, "ms");
          ("gc.minor_words", gc.Gc.minor_words, "words");
          ("gc.major_collections", float_of_int gc.Gc.major_collections, "count");
          ("trace.overhead_s", per_span *. float_of_int (List.length spans), "s");
          ("host.cal_ms", cal_s *. 1e3, "ms");
          ("cell_p50_ms", median cell_ms, "ms");
          ("cell_p95_ms", quantile 0.95 cell_ms, "ms");
          ("failed_cells", ratio failed attempted, "share");
          ("report.systematic_deviations", float_of_int deviations, "count");
        ]
      @ List.map
          (fun l -> ("self." ^ l ^ "_s", self l, "s"))
          [ "race"; "explore"; "core"; "parallel"; "store"; "report" ]
    end
  in
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      correct attempted failed (metrics_json metrics)
  in
  let meta =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"limit\": %d, \"jobs\": %d, \"nproc\": %d, \
       \"commit\": %S, \"suite\": %S, \"trace\": %b, \"reps\": %d}"
      w.w_name cfg.seed cfg.limit w.w_jobs
      (Domain.recommended_domain_count ())
      cfg.commit cfg.suite cfg.traced (List.length reps)
  in
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644
    (Filename.concat cfg.out_dir "results.jsonl") (fun oc ->
      Printf.fprintf oc "{\"meta\": %s, \"result\": %s}\n" meta result);
  Printf.printf "# run %s\n%s\n" meta result
