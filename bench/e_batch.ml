(* E22 — seed-batched execution and intra-run sharding.

   Two throughput claims go into BENCH_batch.json:

   1. Seed batching: executing S consecutive seeds of one (world, algo,
      k) config through [Seed_batch.run] beats S sequential
      [Scenario.run] calls. On deterministic families with the
      draw-free bfdn policy the identical-lane collapse makes the
      batch degenerate to ONE execution plus S-1 replications, so
      seeds/sec grows nearly linearly in S; the perf gate requires
      >= 2x at S=64 vs the measured S=1 baseline of the same run.
      Cells that cannot collapse (randomized family, drawing algorithm,
      faults) run every lane as a plain [Scenario.run]; their rows
      report the batch's seeds/sec next to S sequential runs', so the
      unfavourable side of the claim is recorded too.

   2. Intra-run sharding: [Scenario.run ~shards:N] spreads the
      per-robot route-computation pass over a domain team with a
      deterministic robot-index-order merge. Results are bit-for-bit
      identical for every N (the smoke check re-proves it); on a
      multi-core machine the wall clock of one big run drops, and the
      perf gate requires > 1x there. On a single-core runner the rows
      are still recorded but the speedup criterion is skipped — there
      is nothing to shard onto.

   `--det-check --jobs=N` (the CI determinism lane) reuses this module:
   sequential runs, the N-worker job pool, the seed batch and the
   sharded path must agree outcome-for-outcome over a config matrix. *)

open Bench_common
module Seed_batch = Bfdn_engine.Seed_batch

let report_path = "BENCH_batch.json"
let nominal_n = 4000

(* (family, depth_hint) — all three are deterministic families, so the
   batched rows exercise the collapse; the non-collapsing rows and the
   determinism lane below cover the other shapes. *)
let families = [ ("binary", 12); ("comb", 60); ("spider", 30) ]
let ks = [ 64; 512 ]
let batch_sizes = [ 1; 8; 64 ]

let spec ?(batch_seeds = 1) family k =
  Scenario.make ~algo:"bfdn" ~k ~seed ~batch_seeds
    (Scenario.world
       ~params:
         [
           ("depth_hint", Param.Int (List.assoc family families));
           ("n", Param.Int (sized nominal_n));
         ]
       family)

let min_total () =
  match !scale with Quick -> 0.02 | Normal -> 0.3 | Full -> 1.0

(* One end-to-end execution of the (possibly batched) spec, including
   validation and world construction — batching amortizes exactly that
   dispatch, so it must be inside the timed region. *)
let exec t =
  if t.Scenario.batch_seeds = 1 then begin
    ignore (Scenario.run t : Scenario.outcome);
    false
  end
  else (Seed_batch.run t).Seed_batch.collapsed

type row = {
  b_family : string;
  b_k : int;
  b_s : int;
  b_wall : float; (* seconds per batch execution *)
  b_seeds_s : float;
  b_collapsed : bool;
  mutable b_speedup : float; (* seeds/s vs the S=1 row of the same cell *)
}

let measure family k s =
  let t = spec ~batch_seeds:s family k in
  let collapsed = ref (exec t) (* warm: page in the generator and stats *) in
  let t0 = Batch.now () in
  let reps = ref 0 in
  while Batch.now () -. t0 < min_total () || !reps = 0 do
    collapsed := exec t;
    incr reps
  done;
  let wall = (Batch.now () -. t0) /. float_of_int !reps in
  {
    b_family = family;
    b_k = k;
    b_s = s;
    b_wall = wall;
    b_seeds_s = float_of_int s /. Float.max 1e-9 wall;
    b_collapsed = !collapsed;
    b_speedup = 1.0;
  }

let measure_cell family k =
  let rows = List.map (measure family k) batch_sizes in
  let base =
    match rows with r :: _ -> r.b_seeds_s | [] -> assert false
  in
  List.iter (fun r -> r.b_speedup <- r.b_seeds_s /. Float.max 1e-9 base) rows;
  rows

(* ---- cells that cannot collapse: batch vs S sequential runs ---- *)

let nc_batch = 8
let nc_k = 64

let non_collapsing () =
  let w family dh =
    Scenario.world
      ~params:
        [ ("depth_hint", Param.Int dh); ("n", Param.Int (sized nominal_n)) ]
      family
  in
  [
    ("random/bfdn", Scenario.make ~algo:"bfdn" ~k:nc_k ~seed (w "random" 12));
    ( "binary/random-walk",
      Scenario.make ~algo:"random-walk" ~k:nc_k ~seed (w "binary" 12) );
    ( "binary/bfdn+faults",
      Scenario.make ~algo:"bfdn"
        ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
        ~faults:[ ("rate", Param.Float 0.05); ("restart", Param.Int 9) ]
        ~k:nc_k ~seed (w "binary" 12) );
  ]

type nc_row = {
  n_label : string;
  n_batch_seeds_s : float;
  n_seq_seeds_s : float;
  n_collapsed : bool;
}

(* The batch and its S plain runs alternate, so a drift in machine speed
   hits both sides alike. *)
let measure_non_collapsing (label, plain) =
  let t = { plain with Scenario.batch_seeds = nc_batch } in
  let lanes = List.init nc_batch (Scenario.unbatch t) in
  let collapsed = exec t in
  let batch_s = ref 0. and seq_s = ref 0. and reps = ref 0 in
  let timed f =
    let t0 = Batch.now () in
    f ();
    Batch.now () -. t0
  in
  while !batch_s +. !seq_s < 2. *. min_total () || !reps = 0 do
    batch_s := !batch_s +. timed (fun () -> ignore (exec t : bool));
    seq_s :=
      !seq_s
      +. timed (fun () ->
             List.iter
               (fun l -> ignore (Scenario.run l : Scenario.outcome))
               lanes);
    incr reps
  done;
  let seeds = float_of_int (nc_batch * !reps) in
  {
    n_label = label;
    n_batch_seeds_s = seeds /. Float.max 1e-9 !batch_s;
    n_seq_seeds_s = seeds /. Float.max 1e-9 !seq_s;
    n_collapsed = collapsed;
  }

(* ---- intra-run sharding: one big single run, plain vs sharded ---- *)

type shard_row = {
  h_shards : int;
  h_wall : float;
  mutable h_speedup : float; (* vs the shards=1 row *)
}

let shard_spec () =
  Scenario.make ~algo:"bfdn" ~k:512 ~seed
    (Scenario.world
       ~params:
         [ ("depth_hint", Param.Int 60); ("n", Param.Int (sized (4 * nominal_n))) ]
       "comb")

let measure_sharded shards =
  let t = shard_spec () in
  ignore (Scenario.run ~shards t : Scenario.outcome);
  let t0 = Batch.now () in
  let reps = ref 0 in
  while Batch.now () -. t0 < min_total () || !reps = 0 do
    ignore (Scenario.run ~shards t : Scenario.outcome);
    incr reps
  done;
  { h_shards = shards; h_wall = (Batch.now () -. t0) /. float_of_int !reps;
    h_speedup = 1.0 }

let shard_counts () =
  let cores = Domain.recommended_domain_count () in
  List.sort_uniq compare [ 1; min 2 cores; cores ]

let measure_shard_rows () =
  let rows = List.map measure_sharded (shard_counts ()) in
  let base =
    match rows with r :: _ -> r.h_wall | [] -> assert false
  in
  List.iter
    (fun r -> r.h_speedup <- base /. Float.max 1e-9 r.h_wall)
    rows;
  rows

(* ---- report ---- *)

let json_of_row r =
  Engine_report.Obj
    [
      ("family", Engine_report.String r.b_family);
      ("k", Engine_report.Int r.b_k);
      ("batch", Engine_report.Int r.b_s);
      ("wall_s", Engine_report.Float r.b_wall);
      ("seeds_per_sec", Engine_report.Float r.b_seeds_s);
      ("collapsed", Engine_report.Bool r.b_collapsed);
      ("speedup_vs_s1", Engine_report.Float r.b_speedup);
    ]

let json_of_nc_row r =
  Engine_report.Obj
    [
      ("cell", Engine_report.String r.n_label);
      ("k", Engine_report.Int nc_k);
      ("batch", Engine_report.Int nc_batch);
      ("batch_seeds_per_sec", Engine_report.Float r.n_batch_seeds_s);
      ("sequential_seeds_per_sec", Engine_report.Float r.n_seq_seeds_s);
      ( "vs_sequential",
        Engine_report.Float
          (r.n_batch_seeds_s /. Float.max 1e-9 r.n_seq_seeds_s) );
      ("collapsed", Engine_report.Bool r.n_collapsed);
    ]

let json_of_shard_row r =
  Engine_report.Obj
    [
      ("shards", Engine_report.Int r.h_shards);
      ("wall_s", Engine_report.Float r.h_wall);
      ("speedup_vs_unsharded", Engine_report.Float r.h_speedup);
    ]

let scale_name () =
  match !scale with Quick -> "quick" | Normal -> "normal" | Full -> "full"

let run () =
  header "E22 (seed batching + sharding)"
    "seed batches (identical-lane collapse) and intra-run sharded route \
     computation";
  let rows =
    List.concat_map
      (fun (family, _) -> List.concat_map (measure_cell family) ks)
      families
  in
  let t =
    Table.create
      ~caption:
        "seeds/sec of S seeds of one config: S=1 is sequential \
         Scenario.run; collapsed = identical-lane collapse proved"
      [
        ("family", Table.Left); ("k", Table.Right); ("S", Table.Right);
        ("wall/batch", Table.Right); ("seeds/s", Table.Right);
        ("collapsed", Table.Left); ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.b_family; Table.fint r.b_k; Table.fint r.b_s;
          Printf.sprintf "%.4fs" r.b_wall;
          Printf.sprintf "%.0f" r.b_seeds_s;
          Table.fbool r.b_collapsed;
          Table.fratio r.b_speedup;
        ])
    rows;
  Table.print t;
  let nc_rows = List.map measure_non_collapsing (non_collapsing ()) in
  let nt =
    Table.create
      ~caption:
        (Printf.sprintf
           "cells that cannot collapse, S=%d, k=%d: one Seed_batch.run vs \
            the S sequential Scenario.run calls it stands for"
           nc_batch nc_k)
      [
        ("cell", Table.Left); ("batch seeds/s", Table.Right);
        ("sequential seeds/s", Table.Right); ("vs sequential", Table.Right);
        ("collapsed", Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row nt
        [
          r.n_label;
          Printf.sprintf "%.0f" r.n_batch_seeds_s;
          Printf.sprintf "%.0f" r.n_seq_seeds_s;
          Table.fratio (r.n_batch_seeds_s /. Float.max 1e-9 r.n_seq_seeds_s);
          Table.fbool r.n_collapsed;
        ])
    nc_rows;
  Table.print nt;
  let shard_rows = measure_shard_rows () in
  let st =
    Table.create
      ~caption:
        (Printf.sprintf
           "one comb n=%d k=512 run, route phase sharded over domains \
            (%d core(s) here); results bit-identical for every row"
           (sized (4 * nominal_n))
           (Domain.recommended_domain_count ()))
      [
        ("shards", Table.Right); ("wall", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row st
        [
          Table.fint r.h_shards;
          Printf.sprintf "%.4fs" r.h_wall;
          Table.fratio r.h_speedup;
        ])
    shard_rows;
  Table.print st;
  Engine_report.write ~path:report_path
    (Engine_report.Obj
       (Engine_report.meta ~seed ~workers:1
       @ [
           ( "label",
             Engine_report.String
               "E22 seed-batched execution + intra-run sharding" );
           ("scale", Engine_report.String (scale_name ()));
           ( "cores",
             Engine_report.Int (Domain.recommended_domain_count ()) );
           ("configs", Engine_report.List (List.map json_of_row rows));
           ( "non_collapsing",
             Engine_report.List (List.map json_of_nc_row nc_rows) );
           ( "sharded",
             Engine_report.List (List.map json_of_shard_row shard_rows) );
         ]));
  Printf.printf "report written to %s\n" report_path

(* ---- smoke (--smoke / @runtest-quick) ----

   Tiny batch and shard runs that must agree byte-for-byte with their
   sequential counterparts, and the collapse must engage on a
   deterministic family. *)
let smoke () =
  let t =
    Scenario.make ~algo:"bfdn" ~k:8 ~seed:3 ~batch_seeds:4
      (Scenario.world
         ~params:[ ("depth_hint", Param.Int 10); ("n", Param.Int 120) ]
         "binary")
  in
  let r = Seed_batch.run t in
  let batch_ok =
    Array.length r.Seed_batch.outcomes = 4
    && Array.for_all2
         (fun o l -> Scenario.equal_outcome o (Scenario.run l))
         r.Seed_batch.outcomes
         (Array.init 4 (Scenario.unbatch t))
  in
  let single =
    Scenario.make ~algo:"bfdn" ~k:16 ~seed:4
      (Scenario.world
         ~params:[ ("depth_hint", Param.Int 12); ("n", Param.Int 200) ]
         "comb")
  in
  let plain = Scenario.run single in
  let shard_ok =
    List.for_all
      (fun shards ->
        Scenario.equal_outcome plain (Scenario.run ~shards single))
      [ 2; 3 ]
  in
  batch_ok && r.Seed_batch.collapsed && r.Seed_batch.lockstep && shard_ok

(* ---- perf gate (--perf-gate) ----

   Three kinds of rows:
   - committed-baseline floors (0.6x) on a subset of seeds/sec configs,
     like every other gate;
   - the machine-independent batching claim, re-measured fresh: S=64
     seeds/sec must be >= 2x the S=1 baseline measured in the same
     process — this holds on any machine because it is a ratio;
   - the sharding claim, only enforceable with > 1 core: the sharded
     single run must beat the unsharded one. *)

let gate_floor = 0.6
let batch_speedup_floor = 2.0
let gate_subset = [ ("comb", 64); ("binary", 512) ]

let committed_seeds_s j (family, k, s) =
  match Bfdn_obs.Json.member "configs" j with
  | Some (Engine_report.List rows) ->
      List.find_map
        (fun row ->
          match
            ( Bfdn_obs.Json.member "family" row,
              Bfdn_obs.Json.member "k" row,
              Bfdn_obs.Json.member "batch" row,
              Bfdn_obs.Json.member "seeds_per_sec" row )
          with
          | ( Some (Engine_report.String f),
              Some (Engine_report.Int kk),
              Some (Engine_report.Int ss),
              Some (Engine_report.Float v) )
            when f = family && kk = k && ss = s ->
              Some v
          | _ -> None)
        rows
  | _ -> failwith (report_path ^ ": no configs member")

let perf_gate () =
  scale := Normal;
  header "PERF GATE (batch)"
    (Printf.sprintf
       "seeds/s >= %.2fx committed %s; S=64 >= %.1fx S=1; sharded > 1x on \
        multi-core"
       gate_floor report_path batch_speedup_floor);
  let j =
    let raw = In_channel.with_open_text report_path In_channel.input_all in
    match Bfdn_obs.Json.of_string raw with
    | Ok j -> j
    | Error msg -> failwith (report_path ^ ": " ^ msg)
  in
  List.iter
    (fun (family, k) ->
      let rows = measure_cell family k in
      (* committed floors on the S=1 and S=64 rows *)
      List.iter
        (fun r ->
          if r.b_s = 1 || r.b_s = 64 then
            match committed_seeds_s j (family, k, r.b_s) with
            | None ->
                Printf.printf
                  "  %-6s k=%-3d S=%-3d no committed baseline, skipped\n"
                  family k r.b_s
            | Some base ->
                let ratio = r.b_seeds_s /. Float.max 1e-9 base in
                let ok = ratio >= gate_floor in
                record_gate ~gate:"E22"
                  ~name:(Printf.sprintf "%s k=%d S=%d seeds/s" family k r.b_s)
                  ~measured:r.b_seeds_s ~baseline:base ~ok;
                Printf.printf
                  "  %-6s k=%-3d S=%-3d %s %9.0f seeds/s vs committed %9.0f \
                   (%.2fx)\n"
                  family k r.b_s
                  (if ok then "ok  " else "FAIL")
                  r.b_seeds_s base ratio)
        rows;
      (* the batching claim itself, machine-independent *)
      let s64 = List.find (fun r -> r.b_s = 64) rows in
      let ok = s64.b_speedup >= batch_speedup_floor in
      record_gate ~gate:"E22"
        ~name:(Printf.sprintf "%s k=%d S=64 speedup vs S=1" family k)
        ~measured:s64.b_speedup ~baseline:batch_speedup_floor ~ok;
      Printf.printf "  %-6s k=%-3d S=64/S=1     %s %.2fx (floor %.1fx)\n"
        family k
        (if ok then "ok  " else "FAIL")
        s64.b_speedup batch_speedup_floor)
    gate_subset;
  let cores = Domain.recommended_domain_count () in
  if cores > 1 then begin
    let rows = measure_shard_rows () in
    let best =
      List.fold_left (fun acc r -> Float.max acc r.h_speedup) 0.0 rows
    in
    let ok = best > 1.0 in
    record_gate ~gate:"E22" ~name:"sharded single-run speedup" ~measured:best
      ~baseline:1.0 ~ok;
    Printf.printf "  sharded single run       %s %.2fx on %d cores\n"
      (if ok then "ok  " else "FAIL")
      best cores
  end
  else
    Printf.printf
      "  sharded single run       single core here, speedup check skipped\n"

(* ---- determinism lane (--det-check --jobs=N) ----

   Sequential Scenario.run, the N-worker job pool, Seed_batch and the
   sharded select must agree outcome-for-outcome over a matrix that
   covers deterministic and randomized families, draw-free and drawing
   policies, fault schedules and the collapse/fallback tiers. *)

let det_specs () =
  let w family n dh = Scenario.world
      ~params:[ ("depth_hint", Param.Int dh); ("n", Param.Int n) ]
      family
  in
  [
    ("binary/bfdn S=6", Scenario.make ~algo:"bfdn" ~k:8 ~seed:100 ~batch_seeds:6 (w "binary" 250 10));
    ("comb/cte S=5", Scenario.make ~algo:"cte" ~k:8 ~seed:200 ~batch_seeds:5 (w "comb" 250 20));
    ("random/bfdn S=6", Scenario.make ~algo:"bfdn" ~k:8 ~seed:300 ~batch_seeds:6 (w "random" 220 10));
    ( "spider/random-open S=4",
      Scenario.make ~algo:"bfdn"
        ~algo_params:[ ("policy", Param.String "random-open") ]
        ~k:8 ~seed:400 ~batch_seeds:4 (w "spider" 220 14) );
    ( "binary/ft+crashes S=4",
      Scenario.make ~algo:"bfdn"
        ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
        ~faults:[ ("crashes", Param.String "1@8,3@20+25") ]
        ~k:8 ~seed:500 ~batch_seeds:4 (w "binary" 220 10) );
    ( "adversarial S=3",
      Scenario.make ~algo:"bfdn" ~k:4 ~seed:600 ~batch_seeds:3
        (Scenario.adversarial ~policy:"corridor" ~capacity:150
           ~depth_budget:12) );
  ]

let det_check ~jobs () =
  header "DET CHECK"
    (Printf.sprintf
       "sequential vs %d-worker pool vs seed batch vs %d-shard select" jobs
       jobs);
  let ok_all = ref true in
  List.iter
    (fun (label, t) ->
      let s = t.Scenario.batch_seeds in
      let lanes = List.init s (Scenario.unbatch t) in
      let seq = List.map Scenario.run lanes in
      let pool_ok =
        List.for_all2
          (fun o (_, res) ->
            match res with
            | Ok o' -> Scenario.equal_outcome o o'
            | Error _ -> false)
          seq
          (Batch.run ~workers:jobs lanes)
      in
      let batch_ok =
        let r = Seed_batch.run t in
        List.for_all2 Scenario.equal_outcome seq
          (Array.to_list r.Seed_batch.outcomes)
      in
      let shard_ok =
        (* sharding only touches the tree path; lane 0 suffices *)
        match (lanes, seq) with
        | lane :: _, o :: _ -> (
            match t.Scenario.instance with
            | Scenario.World _ ->
                Scenario.equal_outcome o (Scenario.run ~shards:jobs lane)
            | Scenario.Adversarial _ -> true)
        | _ -> true
      in
      let ok = pool_ok && batch_ok && shard_ok in
      if not ok then ok_all := false;
      Printf.printf "  %-26s pool=%s batch=%s shards=%s\n" label
        (if pool_ok then "ok" else "FAIL")
        (if batch_ok then "ok" else "FAIL")
        (if shard_ok then "ok" else "FAIL"))
    (det_specs ());
  if !ok_all then Printf.printf "det check: all lanes agree\n"
  else Printf.printf "det check: DISAGREEMENT\n";
  !ok_all
