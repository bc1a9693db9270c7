(* The [sweep] and [batch] workloads: one fixed grid of eager explorations,
   dispatched either job by job over a two-domain [Batch.map] pool (what
   [explore sweep] does) or cell by cell through [Seed_batch.run] in one
   domain (what [explore sweep --seed-batch] does). Both paths must give
   the same outcomes for the same lanes, so [batch] checks its digest
   against a [Batch.map] pass over its own lanes. *)

open Common
module Batch = Bfdn_engine.Batch
module Seed_batch = Bfdn_engine.Seed_batch
module Probe = Bfdn_obs.Probe
module Param = Bfdn_scenario.Param

type scale = { n : int; lanes : int; grid_side : int }

let full = { n = 5000; lanes = 8; grid_side = 24 }

(* [batch] runs the grid at n = 2000: a pass then takes about 0.3 s, so
   every cell is timed about eighty times in a run, enough to meet quiet
   moments of the host ([quiet_times]). *)
let batch_full = { n = 2000; lanes = 8; grid_side = 16 }
let tiny = { n = 300; lanes = 2; grid_side = 12 }
let workers = 2

(* Tree families x algorithms x robot counts, plus one crash/restart row
   for the fault-tolerant variant and one warehouse-grid row for the graph
   executor. Cell [i] owns the consecutive lane seeds
   [base + i * lanes, base + (i + 1) * lanes). *)
let cells ~scale ~seed =
  let base = seed * 100_003 in
  let tree =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun algo ->
            List.map
              (fun k ->
                Scenario.make ~algo ~k
                  (Scenario.generated ~family ~n:scale.n ~depth_hint:20))
              [ 8; 64; 512 ])
          [ "bfdn"; "cte" ])
      [ "random"; "comb"; "binary"; "trap" ]
  in
  let faulted =
    Scenario.make ~algo:"bfdn" ~k:64
      ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
      ~faults:
        [
          ("rate", Param.Float 0.05);
          ("window", Param.Int 100);
          ("restart", Param.Int 20);
        ]
      (Scenario.generated ~family:"random" ~n:scale.n ~depth_hint:20)
  in
  let grid =
    Scenario.make ~algo:"bfdn-graph" ~k:64
      (Scenario.world
         ~params:
           [
             ("width", Param.Int scale.grid_side);
             ("height", Param.Int scale.grid_side);
           ]
         "grid")
  in
  List.mapi
    (fun i c ->
      { c with Scenario.seed = base + (i * scale.lanes); batch_seeds = scale.lanes })
    (tree @ [ faulted; grid ])

let lanes ~scale cells =
  List.concat_map (fun c -> List.init scale.lanes (Scenario.unbatch c)) cells

let validate specs =
  List.iter
    (fun s ->
      match Scenario.validate s with
      | Ok () -> ()
      | Error e -> failwith ("invalid spec: " ^ e))
    specs

(* Repeat [pass] until [seconds] of pass time have accumulated (at least
   one pass). [reduce i r] checks pass [i]'s result [r] and returns what
   the caller keeps of it, outside the pass's timing, so that a run holds
   one pass's outcomes at a time and its peak RSS does not grow with the
   number of passes. Returns what was kept and the pass durations, in
   order. [between] runs after every pass, outside its timing. *)
let window ?(between = ignore) ~seconds ~reduce pass =
  let rec go i acc total =
    if total >= seconds && acc <> [] then List.rev acc
    else
      let t0 = now () in
      let r = pass () in
      let dt = now () -. t0 in
      let kept = reduce i r in
      between ();
      go (i + 1) ((kept, dt) :: acc) (total +. dt)
  in
  go 0 [] 0.

(* ---- one pass of each dispatch path ---- *)

(* [explore sweep]: every lane is a pool job. Each job reports its own
   service time; with [traced], it also runs under a phase probe. *)
type job = {
  outcome : Scenario.outcome;
  wall_ns : int;
  phases_ns : int array;  (** finished-check, select, apply *)
}

let phase_index = function
  | Probe.Finished_check -> 0
  | Probe.Select -> 1
  | Probe.Apply -> 2

let run_job ~traced spec =
  let phases_ns = Array.make 3 0 in
  let probe =
    if traced then
      Probe.make
        ~on_phase:(fun ph ns ->
          let i = phase_index ph in
          phases_ns.(i) <- phases_ns.(i) + ns)
        ()
    else Probe.noop
  in
  let t0 = now_ns () in
  let outcome = Scenario.run ~probe spec in
  { outcome; wall_ns = now_ns () - t0; phases_ns }

(* Per-worker pool accounting, written only by its own worker domain. *)
type pool_acct = {
  busy_ns : int array;
  last_done_ns : int array;
  waits_ns : int list array;
}

let pool_acct () =
  {
    busy_ns = Array.make workers 0;
    last_done_ns = Array.make workers 0;
    waits_ns = Array.make workers [];
  }

let pool_probe a =
  Probe.make
    ~on_job:(fun ~worker ~wait_ns ~run_ns ->
      a.busy_ns.(worker) <- a.busy_ns.(worker) + run_ns;
      a.last_done_ns.(worker) <- now_ns ();
      a.waits_ns.(worker) <- wait_ns :: a.waits_ns.(worker))
    ()

let sweep_pass ?acct ~traced specs =
  let probe = match acct with Some a -> pool_probe a | None -> Probe.noop in
  Batch.map ~probe ~workers (run_job ~traced) (Array.of_list specs)

(* [explore sweep --seed-batch]: one [Seed_batch.run] per cell, timed from
   outside; no probe, since an enabled probe switches [Seed_batch] to its
   sequential path and would measure a different program. *)
type cell_run = {
  cell : Scenario.t;
  report : (Seed_batch.report, string) result;
  cell_s : float;
}

let batch_pass cells =
  List.map
    (fun cell ->
      let t0 = now () in
      let report =
        match Seed_batch.run cell with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      { cell; report; cell_s = now () -. t0 })
    cells

(* ---- checks ---- *)

(* Check one pass's outcomes in lane order; the outcomes and their digest.
   [damage_first] corrupts the first outcome before it is checked. *)
let check_lanes c ~damage_first specs results =
  let outs =
    List.mapi
      (fun i (spec, r) ->
        match r with
        | Error e ->
            record c [ Scenario.describe spec ^ ": " ^ e ];
            None
        | Ok o ->
            let o = if damage_first && i = 0 then damage o else o in
            record c (check_outcome spec o);
            Some o)
      (List.combine specs results)
  in
  let outs = List.filter_map Fun.id outs in
  (outs, digest outs)

let batch_results ~scale runs =
  List.concat_map
    (fun r ->
      match r.report with
      | Ok rep -> List.map Result.ok (Array.to_list rep.Seed_batch.outcomes)
      | Error e -> List.init scale.lanes (fun _ -> Error e))
    runs

(* ---- workloads ---- *)

(* [sweep]'s throughput is taken over the whole window: the mean pass.
   Its passes depend on the order in which two domains finish their jobs,
   so a job's fastest time says little about a pass; over ten runs the
   mean pass spread less than the median or the fastest one. A run
   repeats each job only about twelve times, too few for its quiet time
   ([quiet_times]) to be steady, so the latencies are every job of every
   pass. *)
let e2e_metrics ~runs_per_pass ~pass_s ~lat_s ~rss ~c =
  let p, tail_v, beyond = tail lat_s in
  line "  latency samples: %d; tail = p%g with %d samples beyond"
    (Array.length lat_s) p beyond;
  print_passes pass_s;
  let mean_pass = sum pass_s /. float_of_int (Array.length pass_s) in
  [
    m "setup_s" "s" (setup_s ());
    m "runs_per_s" "1/s" (float_of_int runs_per_pass /. mean_pass);
    m "wall_s" "s" mean_pass;
    m "p50_ms" "ms" (1e3 *. median lat_s);
    m "tail_ms" "ms" (1e3 *. tail_v);
    m "peak_rss_mb" "MB" rss;
    m "ok_share" "share" (ok_share c);
  ]

(* Set-up warms up on the k = 8 cells of deterministic families, so that
   it does the same work whatever the seed. *)
let warm_cells cells =
  List.filter
    (fun (c : Scenario.t) ->
      c.k = 8
      &&
      match c.instance with
      | Scenario.World { world; params } ->
          Bfdn_scenario.World_registry.deterministic_tree ~params world
      | Scenario.Adversarial _ -> false)
    cells

let setup_sweep ~scale ~seed () =
  let cs = cells ~scale ~seed in
  let specs = lanes ~scale cs in
  validate specs;
  (* Spawning the pool for a warm-up pass is part of set-up. *)
  ignore (sweep_pass ~traced:false (lanes ~scale [ List.hd (warm_cells cs) ]));
  specs

let setup_batch ~scale ~seed () =
  let cs = cells ~scale ~seed in
  validate cs;
  ignore (batch_pass (warm_cells cs));
  cs

(* Untraced passes of [explore sweep]; every pass must reproduce the
   first pass's digest. *)
let sweep_passes ~between ~seconds ~c specs =
  let first = ref None in
  let lat = ref [] and runs = ref 0 in
  let check i res =
    let res = Array.to_list res in
    let _, d =
      check_lanes c
        ~damage_first:(i = 0 && !corrupt = "outcome")
        specs
        (List.map (Result.map (fun j -> j.outcome)) res)
    in
    (match !first with
    | None -> first := Some d
    | Some d0 when d0 <> d ->
        record c [ Printf.sprintf "pass %d digest %s <> first pass %s" i d d0 ]
    | Some _ -> ());
    List.iter
      (function
        | Ok j ->
            incr runs;
            lat := Bfdn_util.Clock.ns_to_s j.wall_ns :: !lat
        | Error _ -> ())
      res
  in
  let passes =
    window ~between ~seconds ~reduce:check (fun () ->
        sweep_pass ~traced:false specs)
  in
  (!runs, Array.of_list (List.map snd passes), Array.of_list !lat, Option.get !first)

(* Untraced batch passes; the seeds run, the pass times, every cell's
   time in every pass ([cell_s.(pass).(cell)]) and each pass's digest. *)
let batch_passes ~between ~scale ~seconds ~c cells =
  let specs = lanes ~scale cells in
  let runs = ref 0 and digests = ref [] in
  let check i rs =
    let _, d =
      check_lanes c
        ~damage_first:(i = 0 && !corrupt = "outcome")
        specs (batch_results ~scale rs)
    in
    digests := d :: !digests;
    List.iter
      (fun r -> if Result.is_ok r.report then runs := !runs + scale.lanes)
      rs;
    Array.of_list (List.map (fun r -> r.cell_s) rs)
  in
  let passes =
    window ~between ~seconds ~reduce:check (fun () -> batch_pass cells)
  in
  let cell_s = Array.of_list (List.map fst passes) in
  (!runs, Array.of_list (List.map snd passes), cell_s, List.rev !digests)

(* [batch] runs the same cells in one domain every pass, so its figures
   come from each cell's quiet time ([quiet_times]): [wall_s] is their sum,
   a grid pass on a quiet host. The latencies are those of the grid's
   cells, one sample per cell; with too few samples for a percentile with
   ten beyond it, [tail_ms] is the slowest cell (p100). *)
let batch_metrics ~runs_per_pass ~pass_s ~cell_s ~rss ~c =
  let quiet = quiet_times cell_s in
  let wall = sum quiet in
  print_passes pass_s;
  line "  quiet grid pass %.4f s: the sum of each of %d cells' fastest time over %d passes"
    wall (Array.length quiet) (Array.length pass_s);
  line "  cell latency samples: %d (one per cell); tail = p100" (Array.length quiet);
  [
    m "setup_s" "s" (setup_s ());
    m "runs_per_s" "1/s" (float_of_int runs_per_pass /. wall);
    m "wall_s" "s" wall;
    m "p50_ms" "ms" (1e3 *. median quiet);
    m "tail_ms" "ms" (1e3 *. percentile quiet 100.);
    m "peak_rss_mb" "MB" rss;
    m "ok_share" "share" (ok_share c);
  ]

(* The batch oracle: after the timed window, one [Batch.map] pass over the
   same lanes (the sweep path) must give the digest of every batch pass. *)
let check_against_sweep ~scale ~c cells digests =
  let specs = lanes ~scale cells in
  let sc = checks () in
  let _, reference =
    check_lanes sc ~damage_first:false specs
      (List.map
         (Result.map (fun j -> j.outcome))
         (Array.to_list (sweep_pass ~traced:false specs)))
  in
  line "  batch oracle: sweep digest %s over %d lanes" reference
    (List.length specs);
  List.iteri
    (fun i d ->
      if d <> reference then
        record c
          [ Printf.sprintf "batch pass %d digest %s <> sweep digest %s" i d reference ])
    digests;
  if sc.failed > 0 then
    record c [ "sweep reference pass failed its own checks" ]

let run_sweep ~scale ~seed ~seconds =
  let c = checks () in
  let specs = timed_setup (setup_sweep ~scale ~seed) in
  section "sweep: Batch.map over the grid on 2 worker domains";
  let between () = setup_again (setup_sweep ~scale ~seed) in
  let runs, pass_s, lat, d = sweep_passes ~between ~seconds ~c specs in
  line "  %d runs in %d passes, %.3f s; outcome digest %s" runs
    (Array.length pass_s) (sum pass_s) d;
  let rss = peak_rss_mb () in
  {
    e2e =
      e2e_metrics ~runs_per_pass:(List.length specs) ~pass_s ~lat_s:lat
        ~rss ~c;
    layers = [];
    checks = c;
  }

let run_batch ~scale ~seed ~seconds =
  let c = checks () in
  let cells = timed_setup (setup_batch ~scale ~seed) in
  section
    (Printf.sprintf "batch: Seed_batch.run per cell, %d seeds per cell, 1 domain"
       scale.lanes);
  let between () = setup_again (setup_batch ~scale ~seed) in
  let runs, pass_s, cell_s, digests =
    batch_passes ~between ~scale ~seconds ~c cells
  in
  line "  %d seeds in %d passes, %.3f s" runs (Array.length pass_s) (sum pass_s);
  (* Peak RSS of the batch passes alone: the oracle pass below runs on a
     two-domain pool and is not part of the workload. *)
  let rss = peak_rss_mb () in
  check_against_sweep ~scale ~c cells digests;
  {
    e2e =
      batch_metrics ~runs_per_pass:(List.length cells * scale.lanes)
        ~pass_s ~cell_s ~rss ~c;
    layers = [];
    checks = c;
  }

(* ---- traced runs ---- *)

(* Untraced and traced passes alternate over the measuring time, so the
   tracing overhead compares like with like. A traced pass runs every job
   under a phase probe and the pool under a per-job timing probe. *)
let trace_sweep ~scale ~seed ~seconds =
  let c = checks () in
  let specs = timed_setup (setup_sweep ~scale ~seed) in
  let l = layers () in
  let plain = ref [] and traced = ref [] in
  let busy = ref [] and tail_idle = ref [] and waits = ref [] in
  let jobs_ns = ref 0 and pool_run_ns = ref 0 in
  let check res =
    ignore
      (check_lanes c ~damage_first:false specs
         (List.map (Result.map (fun j -> j.outcome)) (Array.to_list res)))
  in
  let t_end = now () +. seconds in
  while now () < t_end || !traced = [] do
    let t0 = now () in
    check (sweep_pass ~traced:false specs);
    plain := (now () -. t0) :: !plain;
    let acct = pool_acct () in
    let t0 = now () in
    let res = with_gc l (fun () -> sweep_pass ~acct ~traced:true specs) in
    let wall = now () -. t0 in
    traced := wall :: !traced;
    check res;
    l.passes <- l.passes + 1;
    List.iter2
      (fun (spec : Scenario.t) r ->
        match r with
        | Ok j ->
            let o = j.outcome in
            jobs_ns := !jobs_ns + j.wall_ns;
            add_run l ~k:spec.k ~rounds:o.result.rounds
              ~edge_events:o.result.edge_events ~nodes:o.n ~wall_ns:j.wall_ns
              ~phases_ns:j.phases_ns
        | Error _ -> ())
      specs (Array.to_list res);
    let run_ns = Array.fold_left ( + ) 0 acct.busy_ns in
    pool_run_ns := !pool_run_ns + run_ns;
    busy := (float_of_int run_ns /. 1e9 /. (wall *. float_of_int workers)) :: !busy;
    let last = Array.fold_left max min_int acct.last_done_ns
    and first_idle = Array.fold_left min max_int acct.last_done_ns in
    tail_idle := (float_of_int (last - first_idle) /. 1e9) :: !tail_idle;
    Array.iter (fun ws -> waits := List.rev_append ws !waits) acct.waits_ns
  done;
  let layer = layer_metrics l in
  line "  pool: jobs timed inside the pool %.3f s, pool-measured run time %.3f s (%.1f%%)"
    (float_of_int !jobs_ns /. 1e9)
    (float_of_int !pool_run_ns /. 1e9)
    (100. *. float_of_int !jobs_ns /. float_of_int (max 1 !pool_run_ns));
  print_overhead ~what:"grid pass (median)"
    ~untraced:(median (Array.of_list !plain))
    ~traced:(median (Array.of_list !traced));
  section "pool layer (Batch.map on 2 worker domains)";
  let waits_ms =
    Array.of_list (List.map (fun ns -> float_of_int ns /. 1e6) !waits)
  in
  print_metrics
    [
      m "pool.busy_share" "share" (median (Array.of_list !busy));
      m "pool.wait_p99_ms" "ms" (percentile waits_ms 99.);
      m "pool.tail_idle_s" "s" (median (Array.of_list !tail_idle));
    ];
  { e2e = []; layers = layer; checks = c }

(* The traced batch run times [Seed_batch.run] calls only and classifies
   cells by the report's flags. The runner phases come from a reference
   pass of plain [Scenario.run] calls over the same lanes, and
   [vs_sequential] compares each executed (not collapsed) cell with its S
   plain runs. *)
let trace_batch ~scale ~seed ~seconds =
  let c = checks () in
  let cells = timed_setup (setup_batch ~scale ~seed) in
  let specs = lanes ~scale cells in
  let passes =
    window ~seconds:(seconds /. 2.) ~reduce:(fun _ rs -> rs) (fun () ->
        batch_pass cells)
  in
  List.iter
    (fun (rs, _) ->
      ignore (check_lanes c ~damage_first:false specs (batch_results ~scale rs)))
    passes;
  let npasses = float_of_int (List.length passes) in
  let per_pass f =
    List.fold_left
      (fun acc (rs, _) ->
        List.fold_left (fun acc r -> if f r then acc +. r.cell_s else acc) acc rs)
      0. passes
    /. npasses
  in
  let flag f r = match r.report with Ok rep -> f rep | Error _ -> false in
  let collapsed = flag (fun r -> r.Seed_batch.collapsed) in
  let lockstep = flag (fun r -> r.Seed_batch.lockstep) in
  let first = fst (List.hd passes) in
  let share f =
    float_of_int (List.length (List.filter f first))
    /. float_of_int (List.length first)
  in
  (* Sequential reference: each executed cell's batch call alternates with
     its S plain runs, three times, so that a drift in machine speed hits
     both sides alike; the ratio is the median of the three rounds. *)
  let executed = List.filter (fun r -> not (collapsed r)) first in
  let timed f =
    let t0 = now () in
    f ();
    now () -. t0
  in
  let rounds =
    Array.init 3 (fun _ ->
        List.fold_left
          (fun (b, s) r ->
            ( b +. timed (fun () -> ignore (Seed_batch.run r.cell)),
              s
              +. timed (fun () ->
                     List.iter
                       (fun s -> ignore (Scenario.run s))
                       (lanes ~scale [ r.cell ])) ))
          (0., 0.) executed)
  in
  let vs_sequential = median (Array.map (fun (b, s) -> s /. b) rounds) in
  (* Phase split of the same lanes as plain probed runs. *)
  let l = layers () in
  l.passes <- 1;
  with_gc l (fun () ->
      List.iter
        (fun (spec : Scenario.t) ->
          let j = run_job ~traced:true spec in
          record c (check_outcome spec j.outcome);
          add_run l ~k:spec.k ~rounds:j.outcome.result.rounds
            ~edge_events:j.outcome.result.edge_events ~nodes:j.outcome.n
            ~wall_ns:j.wall_ns ~phases_ns:j.phases_ns)
        specs);
  let layer = layer_metrics l in
  section "tracing overhead (traced minus untraced)";
  line
    "  none: the timed batch passes are the untraced program; calls are \
     timed from outside and no probe is installed";
  section "seed batch layer (per grid pass)";
  print_metrics
    [
      m "seed_batch.collapsed_share" "share" (share collapsed);
      m "seed_batch.lockstep_share" "share" (share lockstep);
      m "seed_batch.collapsed_s" "s" (per_pass collapsed);
      m "seed_batch.executed_s" "s" (per_pass (fun r -> not (collapsed r)));
      m "seed_batch.vs_sequential" "x" vs_sequential;
    ];
  line
    "  executed cells: %d of %d; vs_sequential = their S plain runs' time \
     over their batched time (below 1: the batch is slower)"
    (List.length executed) (List.length first);
  { e2e = []; layers = layer; checks = c }
