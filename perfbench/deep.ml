(* The [deep] workload: three fixed single explorations of lazily
   materialized worlds, in one domain. It loads world reveal
   ([Lazy_world]), view upkeep and [Env.apply], and algorithm [select],
   and bypasses every engine and serve layer:

   - comb, D = 348: apply-bound, so O(depth) view upkeep shows here;
   - caterpillar, Delta = 8001: select-bound;
   - binary, D = 15: the control, whose apply cost does not depend on D.

   The worlds are small enough (about 30 MB of heap) to stay mostly in
   cache: explorations of 10^5 to 10^6 nodes spend their time waiting on
   memory, and on a shared host their times then swing by a quarter from
   run to run with the memory traffic of other processes.

   The worlds and bfdn are deterministic, so every seed must reproduce the
   exact round and edge-event counts below. *)

open Common
module Param = Bfdn_scenario.Param

type world = {
  family : string;
  n : int;
  depth_hint : int;
  k : int;
  rounds : int;  (** expected, exact *)
  edge_events : int;  (** expected, exact *)
}

let w family n depth_hint k rounds edge_events =
  { family; n; depth_hint; k; rounds; edge_events }

let full =
  [
    w "comb" 30_000 150 256 13_081 60_000;
    w "caterpillar" 40_000 5 1024 125 95_998;
    w "binary" 65_535 20 1024 229 131_068;
  ]

let tiny =
  [
    w "comb" 2_000 40 16 1_013 4_000;
    w "caterpillar" 4_000 5 64 181 9_598;
    w "binary" 4_095 20 64 163 8_188;
  ]

let params w =
  [
    ("n", Param.Int w.n);
    ("depth_hint", Param.Int w.depth_hint);
    ("scale", Param.String "lazy");
  ]

let spec ~seed w =
  Scenario.make ~algo:"bfdn" ~k:w.k ~seed (Scenario.world ~params:(params w) w.family)

let count_problems w ~rounds ~edge_events =
  if rounds = w.rounds && edge_events = w.edge_events then []
  else
    [
      Printf.sprintf "%s: %d rounds / %d edge events, expected %d / %d"
        w.family rounds edge_events w.rounds w.edge_events;
    ]

(* One checked exploration through the user-facing entry point. *)
let explore ~damage_it c (s, w) =
  let o = Scenario.run s in
  let o = if damage_it then damage o else o in
  record c
    (check_outcome s o
    @ count_problems w ~rounds:o.result.rounds ~edge_events:o.result.edge_events)

let setup ~worlds ~seed () =
  let set = List.map (fun w -> (spec ~seed w, w)) worlds in
  List.iter
    (fun (s, _) ->
      match Scenario.validate s with
      | Ok () -> ()
      | Error e -> failwith ("invalid spec: " ^ e))
    set;
  (* Warm-up on the small instances: code paths and heap, not the data. *)
  List.iter (fun w -> ignore (Scenario.run (spec ~seed w))) tiny;
  set

(* One exploration set takes about half a second on a 2-core x86
   container, so a run measures [2 * seconds] sets, rounded (at least
   one): a fixed count that does not depend on how fast the machine
   happens to be, and enough sets that each world meets a quiet moment
   of the host in one of them. Each
   exploration is timed alone and the heap is compacted, untimed, between
   explorations, so that one world's garbage is neither charged to the
   next nor kept in its peak RSS. [between] runs after every set, outside
   its timing. Returns the per-world times of every set. *)
let passes ?(between = ignore) ~seconds ~c set =
  let sets = max 1 (int_of_float (Float.round (seconds *. 2.))) in
  Array.init sets (fun i ->
      let times =
        Array.of_list
          (List.mapi
             (fun j x ->
               Gc.compact ();
               let t0 = now () in
               explore ~damage_it:(i = 0 && j = 0 && !corrupt = "outcome") c x;
               now () -. t0)
             set)
      in
      between ();
      times)

let run ~worlds ~seed ~seconds =
  let c = checks () in
  let set = timed_setup (setup ~worlds ~seed) in
  section "deep: comb / caterpillar / binary on lazy worlds, 1 domain";
  let between () = setup_again (setup ~worlds ~seed) in
  let per_world = passes ~between ~seconds ~c set in
  let times = Array.map sum per_world in
  List.iteri
    (fun j (_, w) ->
      let t = Array.map (fun ts -> ts.(j)) per_world in
      line "  %-11s fastest %.4f s, median %.4f s, slowest %.4f s" w.family
        (fastest t) (median t) (percentile t 100.))
    set;
  line "  %d exploration sets" (Array.length times);
  print_passes times;
  (* One domain repeats the same three explorations every set, so the
     figures come from each world's quiet time ([quiet_times]): [wall_s]
     is their sum. A run has three operations, so it reports no latency
     percentiles: p50_ms is the mean of the three quiet times and tail_ms
     the slowest of them (the comb). *)
  let quiet = quiet_times per_world in
  let wall = sum quiet in
  let slowest = percentile quiet 100. in
  line "  quiet set %.4f s: the sum of each world's fastest exploration" wall;
  {
    e2e =
      [
        m "setup_s" "s" (setup_s ());
        m "runs_per_s" "1/s" (float_of_int (List.length set) /. wall);
        m "wall_s" "s" wall;
        m "p50_ms" "ms" (1e3 *. wall /. float_of_int (List.length set));
        m "tail_ms" "ms" (1e3 *. slowest);
        m "peak_rss_mb" "MB" (peak_rss_mb ());
        m "ok_share" "share" (ok_share c);
      ];
    layers = [];
    checks = c;
  }

(* Untraced and traced sets alternate over the measuring time (at least
   one of each), so that the tracing overhead compares like with like: the
   fastest untraced set against the fastest traced one. The layer metrics
   are totals over the traced sets, per set; each world also keeps its own
   totals for the depth-flatness ratios. *)
let trace ~worlds ~seed ~seconds =
  let c = checks () in
  let set = timed_setup (setup ~worlds ~seed) in
  let l = layers () in
  let per_world = List.map (fun (_, w) -> (w, layers ())) set in
  let plain = ref [] and traced = ref [] in
  let t_end = now () +. seconds in
  while now () < t_end || !traced = [] do
    plain := sum (passes ~seconds:0. ~c set).(0) :: !plain;
    l.passes <- l.passes + 1;
    let set_ns =
      List.fold_left
        (fun acc ((s : Scenario.t), w) ->
          Gc.compact ();
          let j = with_gc l (fun () -> Sweep.run_job ~traced:true s) in
          let o = j.outcome in
          record c
            (check_outcome s o
            @ count_problems w ~rounds:o.result.rounds
                ~edge_events:o.result.edge_events);
          let wl = List.assq w per_world in
          wl.passes <- wl.passes + 1;
          (* A complete exploration reveals every node of the lazy world,
             so the outcome's node count is the number of nodes built. *)
          List.iter
            (fun x ->
              add_run x ~k:w.k ~rounds:o.result.rounds
                ~edge_events:o.result.edge_events ~nodes:o.n ~wall_ns:j.wall_ns
                ~phases_ns:j.phases_ns)
            [ l; wl ];
          acc + j.wall_ns)
        0 set
    in
    traced := (float_of_int set_ns /. 1e9) :: !traced
  done;
  let layer = layer_metrics l in
  line "  %d traced sets" l.passes;
  print_overhead ~what:"fastest exploration set"
    ~untraced:(fastest (Array.of_list !plain))
    ~traced:(fastest (Array.of_list !traced));
  section "depth flatness and exact counts, per world (per exploration)";
  List.iter
    (fun (w, wl) ->
      let per x = float_of_int x /. float_of_int (max 1 wl.passes) in
      let ratio a b = float_of_int a /. float_of_int (max 1 b) in
      print_metrics
        [
          m ("env.apply_ns_per_event." ^ w.family) "ns"
            (ratio wl.apply_ns wl.edge_events);
          m ("algo.select_ns_per_robot_round." ^ w.family) "ns"
            (ratio wl.select_ns wl.robot_rounds);
          m ("scenario.setup_s." ^ w.family) "s" (per wl.setup_ns /. 1e9);
          m ("runner.rounds." ^ w.family) "count" (per wl.rounds);
          m ("env.edge_events." ^ w.family) "count" (per wl.edge_events);
          m ("lazy_world.nodes_built." ^ w.family) "count" (per wl.nodes_built);
        ])
    per_world;
  { e2e = []; layers = layer; checks = c }
