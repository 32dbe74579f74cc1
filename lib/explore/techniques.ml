type t =
  | IPB
  | IDB
  | DFS
  | Rand
  | PCT
  | Maple
  | SURW
  | Fair
  | Length
  | IVB
  | ITB

let all_paper = [ IPB; IDB; DFS; Rand; Maple ]
let all = [ IPB; IDB; DFS; Rand; PCT; Maple; SURW; Fair; Length; IVB; ITB ]

let name = function
  | IPB -> "IPB"
  | IDB -> "IDB"
  | DFS -> "DFS"
  | Rand -> "Rand"
  | PCT -> "PCT"
  | Maple -> "MapleAlg"
  | SURW -> "SURW"
  | Fair -> "Fair"
  | Length -> "Length"
  | IVB -> "IVB"
  | ITB -> "ITB"

let of_name s =
  match String.lowercase_ascii s with
  | "ipb" -> Some IPB
  | "idb" -> Some IDB
  | "dfs" -> Some DFS
  | "rand" | "random" -> Some Rand
  | "pct" -> Some PCT
  | "maple" | "maplealg" -> Some Maple
  | "surw" -> Some SURW
  | "fair" -> Some Fair
  | "length" -> Some Length
  | "ivb" -> Some IVB
  | "itb" -> Some ITB
  | _ -> None

let valid_names =
  [
    "ipb"; "idb"; "dfs"; "rand"; "pct"; "maple"; "surw"; "fair"; "length";
    "ivb"; "itb";
  ]

let parse_list ?(default = all_paper) specs =
  let names =
    List.concat_map
      (fun spec ->
        List.filter (fun s -> s <> "") (String.split_on_char ',' spec))
      specs
  in
  match (specs, names) with
  | [], _ -> Ok default
  | _, [] ->
      Error
        (Printf.sprintf "no technique names given (valid: %s)"
           (String.concat ", " valid_names))
  | _, names ->
      let rec go seen acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match of_name n with
            | None ->
                Error
                  (Printf.sprintf "unknown technique: %s (valid: %s)" n
                     (String.concat ", " valid_names))
            | Some t ->
                if List.mem t seen then go seen acc rest
                else go (t :: seen) (t :: acc) rest)
      in
      go [] [] names

type options = {
  limit : int;
  seed : int;
  max_steps : int;
  race_runs : int;
  pct_change_points : int;
  maple_profile_runs : int;
  jobs : int;
  split_depth : int;
  time_limit : float option;
  por : Por.mode option;
  fair_bound : int;
  length_bound : int;
}

let default_options =
  {
    limit = 10_000;
    seed = 0;
    max_steps = 100_000;
    race_runs = 10;
    pct_change_points = 2;
    maple_profile_runs = 10;
    jobs = 1;
    split_depth = 3;
    time_limit = None;
    por = None;
    fair_bound = Axes.default_fair_bound;
    length_bound = Axes.default_length_bound;
  }

let deadline_of o = Driver.deadline_of_time_limit o.time_limit
let dfs_stats = Dfs.stats_of

(* Pure STRATEGY registration: which strategy value a technique name
   denotes, under the campaign options. All exploration control flow lives
   in Driver.explore. *)
let strategy ?(promote = fun _ -> false) o technique program =
  match technique with
  | IPB -> Bounded.strategy ~kind:Bounded.Preemption_bounding ()
  | IDB -> Bounded.strategy ~kind:Bounded.Delay_bounding ()
  | DFS -> Dfs.strategy ~bound:Dfs.Unbounded ()
  | Rand -> Random_walk.strategy ~seed:o.seed ()
  | PCT ->
      Pct.strategy ~promote ~max_steps:o.max_steps
        ~change_points:o.pct_change_points ~seed:o.seed program ()
  | Maple ->
      Maple_lite.strategy ~promote ~profile_runs:o.maple_profile_runs
        ~seed:o.seed ()
  | SURW ->
      Surw.strategy ~promote ~max_steps:o.max_steps ~seed:o.seed program ()
  | Fair -> Axes.fair ~bound:o.fair_bound ()
  | Length -> Axes.length ~bound:o.length_bound ()
  | IVB -> Axes.variable ()
  | ITB -> Axes.threads ()

(* The bounding axes beyond the paper run on the sequential driver for
   every [--jobs] value: their schedule trees cannot be partitioned by the
   frontier (path-dependent footprint counting, execution-level cuts), and
   a sequential cell inside a parallel suite stays byte-identical. *)
let sequential_only = function
  | Fair | Length | IVB | ITB -> true
  | IPB | IDB | DFS | Rand | PCT | Maple | SURW -> false

(* Declared parallel plan per technique, consumed by Sct_parallel.Drivers.
   Again pure registration: the technique only names its capability
   ({!Strategy.sharding}); how shards are dispatched, merged and truncated
   lives in lib/parallel. *)
let sharding ?(promote = fun _ -> false) o technique program =
  let deadline = deadline_of o in
  match technique with
  | IPB ->
      Strategy.Shard_tree
        (fun run ->
          Bounded.tree_campaign ~promote ~max_steps:o.max_steps ?deadline
            ~kind:Bounded.Preemption_bounding ~limit:o.limit program run)
  | IDB ->
      Strategy.Shard_tree
        (fun run ->
          Bounded.tree_campaign ~promote ~max_steps:o.max_steps ?deadline
            ~kind:Bounded.Delay_bounding ~limit:o.limit program run)
  | DFS ->
      Strategy.Shard_tree
        (fun run ->
          Dfs.tree_campaign ~promote ~max_steps:o.max_steps ?deadline
            ~bound:Dfs.Unbounded ~limit:o.limit program run)
  | Rand ->
      Random_walk.sharding ~promote ~max_steps:o.max_steps ?deadline
        ~seed:o.seed program
  | PCT ->
      Pct.sharding ~promote ~max_steps:o.max_steps
        ~change_points:o.pct_change_points ?deadline ~seed:o.seed program
  | Maple ->
      Strategy.Shard_runs
        (Maple_lite.batches ~promote ~max_steps:o.max_steps
           ~profile_runs:o.maple_profile_runs ~seed:o.seed program)
  | SURW ->
      Surw.sharding ~promote ~max_steps:o.max_steps ?deadline ~seed:o.seed
        program
  | Fair | Length | IVB | ITB ->
      invalid_arg
        (Printf.sprintf
           "Sct_explore.Techniques.sharding: %s is sequential-only \
            (Sct_parallel.Drivers.run routes it to the sequential driver)"
           (name technique))

let supports_por technique =
  (* read off the strategy's declared capability; options/program do not
     affect it, so probe with the defaults *)
  let (module S : Strategy.STRATEGY) =
    strategy default_options technique ignore
  in
  S.supports_por

(* The POR-composed campaign: the technique's schedule tree walked by the
   Por.Walk reduction core. The sleep-pruned-run counter is threaded out
   of the walks through [on_prune] and patched into the final
   statistics. *)
let run_por ~promote ~(mode : Por.mode) o technique program =
  let deadline = deadline_of o in
  let pruned = ref 0 in
  let on_prune () = incr pruned in
  let s =
    match technique with
    | DFS ->
        let w =
          Por.Walk.make ~on_prune ~mode ~bound:Dfs.Unbounded ()
        in
        Driver.explore ~promote ~max_steps:o.max_steps ?deadline
          ~max_executions:o.limit ~limit:o.limit
          (Por.strategy_of_walk w)
          program
    | IPB ->
        Bounded.explore ~promote ~max_steps:o.max_steps ~por:mode ~on_prune
          ?deadline ~kind:Bounded.Preemption_bounding ~limit:o.limit program
    | IDB ->
        Bounded.explore ~promote ~max_steps:o.max_steps ~por:mode ~on_prune
          ?deadline ~kind:Bounded.Delay_bounding ~limit:o.limit program
    | Rand | PCT | Maple | SURW | Fair | Length | IVB | ITB -> assert false
  in
  { s with Stats.por_pruned = !pruned }

let run ?(promote = fun _ -> false) o technique program =
  match o.por with
  | Some mode when supports_por technique ->
      run_por ~promote ~mode o technique program
  | _ ->
      Driver.explore ~promote ~max_steps:o.max_steps ?deadline:(deadline_of o)
      ~limit:o.limit
      (strategy ~promote o technique program)
      program

let detect_races o program =
  Sct_race.Promotion.detect ~runs:o.race_runs ~seed:o.seed
    ~max_steps:o.max_steps program

let run_all ?(techniques = all_paper) o program =
  let detection = detect_races o program in
  let promote = Sct_race.Promotion.promote detection in
  let results = List.map (fun t -> (t, run ~promote o t program)) techniques in
  (detection, results)
