module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques

type entry = {
  e_bench : string;
  e_technique : string;
  e_racy : int;
  e_stats : Stats.t;
  e_witness : string option;
  e_progress : Codec.progress option;
}

type t = {
  t_dir : string;
  journal : string;
  mutable chan : out_channel option;
  tbl : (string, entry) Hashtbl.t;
  mutable order : string list;  (** reverse insertion order of distinct keys *)
  mutable needs_newline : bool;
      (** recovery left a torn final record with no trailing newline *)
}

let dir t = t.t_dir
let artifacts_dir t = Filename.concat t.t_dir "artifacts"
let journal_file dir = Filename.concat dir "journal.jsonl"

let fingerprint ~bench ~technique (o : Techniques.options) =
  (* jobs / split_depth excluded: results are identical for every value *)
  Json.to_string
    (Json.Obj
       ([
          ("v", Json.Int Codec.version);
          ("bench", Json.Str bench);
          ("technique", Json.Str technique);
          ("limit", Json.Int o.Techniques.limit);
          ("seed", Json.Int o.Techniques.seed);
          ("max_steps", Json.Int o.Techniques.max_steps);
          ("race_runs", Json.Int o.Techniques.race_runs);
          ("pct_change_points", Json.Int o.Techniques.pct_change_points);
          ("maple_profile_runs", Json.Int o.Techniques.maple_profile_runs);
        ]
      (* emitted only when set, so deadline-free fingerprints are stable
         across versions; a wall-clock limit makes the cell's statistics
         timing-dependent, so such cells never alias deadline-free ones *)
      @ (match o.Techniques.time_limit with
        | None -> []
        | Some s -> [ ("time_limit", Codec.time_limit_to_json s) ])
      @ (* only-when-set: a reduced cell explores a different schedule set,
           so it must never alias the plain cell (and POR-free fingerprints
           stay byte-identical to pre-POR stores) *)
      (match o.Techniques.por with
      | None -> []
      | Some m -> [ ("por", Json.Str (Sct_explore.Por.mode_name m)) ])
      @ (* only-when-non-default, so pre-Axes fingerprints are unchanged;
           a Fair/Length cell at a different bound explores a different
           schedule set and must never alias *)
      (if o.Techniques.fair_bound <> Sct_explore.Axes.default_fair_bound then
         [ ("fair_bound", Json.Int o.Techniques.fair_bound) ]
       else [])
      @
      if o.Techniques.length_bound <> Sct_explore.Axes.default_length_bound
      then [ ("length_bound", Json.Int o.Techniques.length_bound) ]
      else []))
  |> Digest.string |> Digest.to_hex

(* The "progress" field is emitted only on campaign records, so cells
   written by the one-shot study runner keep the version-1 wire format
   byte-for-byte. *)
let entry_to_line key e =
  Json.to_string
    (Json.Obj
       ([
          ("v", Json.Int Codec.version);
          ("key", Json.Str key);
          ("bench", Json.Str e.e_bench);
          ("technique", Json.Str e.e_technique);
          ("racy", Json.Int e.e_racy);
          ("stats", Codec.stats_to_json e.e_stats);
          ( "witness",
            match e.e_witness with None -> Json.Null | Some d -> Json.Str d );
        ]
       @
       match e.e_progress with
       | None -> []
       | Some p -> [ ("progress", Codec.progress_to_json p) ]))

(* [None] on any malformed line: the only way a record can be malformed is a
   write torn by a crash (or a foreign line), and resuming past it merely
   re-executes that cell. *)
let entry_of_line line =
  match Json.of_string line with
  | exception Json.Parse_error _ -> None
  | j -> (
      try
        Codec.check_version j;
        Some
          ( Codec.get_string (Codec.field j "key"),
            {
              e_bench = Codec.get_string (Codec.field j "bench");
              e_technique = Codec.get_string (Codec.field j "technique");
              e_racy = Codec.get_int (Codec.field j "racy");
              e_stats = Codec.stats_of_json (Codec.field j "stats");
              e_witness = Codec.opt_field j "witness" Codec.get_string;
              e_progress = Codec.opt_field j "progress" Codec.progress_of_json;
            } )
      with Codec.Error _ -> None)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let open_ ~dir =
  mkdir_p dir;
  let journal = journal_file dir in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let needs_newline = ref false in
  if Sys.file_exists journal then begin
    let ic = open_in_bin journal in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let len = String.length content in
    needs_newline := len > 0 && content.[len - 1] <> '\n';
    String.split_on_char '\n' content
    |> List.iter (fun line ->
           if String.trim line <> "" then
             match entry_of_line line with
             | Some (key, e) ->
                 if not (Hashtbl.mem tbl key) then order := key :: !order;
                 Hashtbl.replace tbl key e
             | None -> ())
  end;
  {
    t_dir = dir;
    journal;
    chan = None;
    tbl;
    order = !order;
    needs_newline = !needs_newline;
  }

let channel t =
  match t.chan with
  | Some oc -> oc
  | None ->
      let oc =
        open_out_gen
          [ Open_wronly; Open_append; Open_creat; Open_binary ]
          0o644 t.journal
      in
      if t.needs_newline then begin
        output_char oc '\n';
        t.needs_newline <- false
      end;
      t.chan <- Some oc;
      oc

let add t ~key entry =
  let oc = channel t in
  output_string oc (entry_to_line key entry);
  output_char oc '\n';
  flush oc;
  if not (Hashtbl.mem t.tbl key) then t.order <- key :: t.order;
  Hashtbl.replace t.tbl key entry

let record ?progress t ~key ~bench ~technique ~racy ~options (stats : Stats.t)
    =
  let e_witness =
    match stats.Stats.first_bug with
    | None -> None
    | Some w ->
        let a =
          Artifact.make ~bench ~technique ~options ~bound:stats.Stats.bound w
        in
        let (_ : string) = Artifact.save ~dir:(artifacts_dir t) a in
        Some a.Artifact.digest
  in
  add t ~key
    { e_bench = bench; e_technique = technique; e_racy = racy;
      e_stats = stats; e_witness; e_progress = progress }

let finished e =
  match e.e_progress with None -> true | Some p -> p.Codec.p_done
let find_any t key = Hashtbl.find_opt t.tbl key

(* The legacy lookups see only finished cells: a resumed [run]/[table3]
   treats an in-flight campaign cell as missing and re-executes it in
   full, which is always sound. *)
let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e when finished e -> Some e
  | _ -> None

let mem t key = find t key <> None
let is_empty t = Hashtbl.length t.tbl = 0

let entries_any t = List.rev_map (fun k -> (k, Hashtbl.find t.tbl k)) t.order

let entries t = List.filter (fun (_, e) -> finished e) (entries_any t)
let size t = List.length (entries t)

let close t =
  match t.chan with
  | Some oc ->
      close_out oc;
      t.chan <- None
  | None -> ()

(* --- merging worker stores --- *)

(* Every record of one fingerprint is a snapshot along the same
   deterministic trajectory (the cell's options pin the seed and the
   exploration order), so two records for one key are always comparable:
   one has explored at least as far as the other. The join keeps the most
   advanced snapshot — a finished record over any in-flight one, then the
   larger banked budget — with the encoded journal line as a final
   tie-break so the order is total. A total-order max is associative,
   commutative and idempotent, which makes [merge_from] a lattice join on
   stores: merging in any grouping or order, or merging a store into
   itself, yields the same store. *)
let join_entries ~key a b =
  let rank e =
    ( (if finished e then 1 else 0),
      e.e_stats.Stats.total,
      (match e.e_progress with
      | None -> max_int
      | Some p -> p.Codec.p_consumed),
      entry_to_line key e )
  in
  if rank a >= rank b then a else b

let copy_artifacts ~src ~dst =
  if Sys.file_exists src then
    Sys.readdir src |> Array.to_list |> List.sort String.compare
    |> List.iter (fun f ->
           if Filename.check_suffix f ".sched" && f.[0] <> '.' then begin
             let ic = open_in_bin (Filename.concat src f) in
             let content =
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> really_input_string ic (in_channel_length ic))
             in
             let (_ : string) = Artifact.write_atomic ~dir:dst ~file:f content in
             ()
           end)

let merge_from t ~src =
  copy_artifacts ~src:(artifacts_dir src) ~dst:(artifacts_dir t);
  List.iter
    (fun (key, e) ->
      match find_any t key with
      | None -> add t ~key e
      | Some existing ->
          let joined = join_entries ~key existing e in
          if joined != existing then add t ~key joined)
    (entries_any src)

(* --- journal compaction --- *)

let compact t =
  close t;
  let tmp = Filename.concat t.t_dir ".journal.jsonl.tmp" in
  let oc = open_out_bin tmp in
  (try
     List.iter
       (fun (key, e) ->
         output_string oc (entry_to_line key e);
         output_char oc '\n')
       (entries_any t);
     close_out oc
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  Sys.rename tmp t.journal;
  t.needs_newline <- false
