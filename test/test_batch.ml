(* Tests for seed-batched execution and intra-run sharding.

   The two contracts under test are determinism contracts:

   - batch oracle: every lane of [Seed_batch.run] is byte-identical to
     the sequential [Scenario.run] of the unbatched lane spec — across
     random configs (QCheck), including shapes that cannot collapse
     (adversarial, faults, randomized algorithms, enabled probes);
   - shard oracle: [Scenario.run ~shards:n] is byte-identical to the
     unsharded run for every n — the sharded select's merge is stable
     robot-index order by construction.

   Plus the soundness premises of the identical-lane collapse: the
   deterministic-family predicate is asserted against the generators
   themselves, and the collapse flag only appears when its proof
   obligations hold. [lockstep] marks the batches whose lane 0 ran as
   the collapse witness. *)

module Scenario = Bfdn_scenario.Scenario
module Param = Bfdn_scenario.Param
module World_registry = Bfdn_scenario.World_registry
module Seed_batch = Bfdn_engine.Seed_batch
module Metrics = Bfdn_obs.Metrics
module Probe = Bfdn_obs.Probe
module Tree_gen = Bfdn_trees.Tree_gen
module Tree = Bfdn_trees.Tree
module Rng = Bfdn_util.Rng
module Shard_pool = Bfdn_util.Shard_pool

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let gen_spec ~family ~n ~k ~seed ?(algo = "bfdn") ?(batch_seeds = 1)
    ?algo_params ?faults () =
  Scenario.make ~algo ?algo_params ?faults ~k ~seed ~batch_seeds
    (Scenario.world
       ~params:[ ("n", Param.Int n); ("depth_hint", Param.Int 8) ]
       family)

let sequential_outcomes t =
  Array.init t.Scenario.batch_seeds (fun l ->
      Scenario.run (Scenario.unbatch t l))

let check_batch_equals_sequential ?probe what t =
  let report = Seed_batch.run ?probe t in
  let seq = sequential_outcomes t in
  checki (what ^ ": lane count") t.Scenario.batch_seeds
    (Array.length report.Seed_batch.outcomes);
  Array.iteri
    (fun l o ->
      checkb
        (Printf.sprintf "%s: lane %d identical" what l)
        true
        (Scenario.equal_outcome o seq.(l)))
    report.Seed_batch.outcomes;
  report

(* ---- deterministic-family predicate vs the generators ---- *)

let test_deterministic_families () =
  List.iter
    (fun family ->
      let build seed =
        Tree_gen.of_family family ~rng:(Rng.create seed) ~n:60 ~depth_hint:5
      in
      let same = Tree.equal (build 1) (build 99) in
      checkb
        (Printf.sprintf "family %s: predicate matches generator" family)
        (Tree_gen.deterministic_family family)
        same)
    Tree_gen.families;
  checkb "unknown family is not deterministic" false
    (Tree_gen.deterministic_family "no-such-family");
  checkb "world predicate: eager binary" true
    (World_registry.deterministic_tree "binary");
  checkb "world predicate: random is not" false
    (World_registry.deterministic_tree "random");
  checkb "world predicate: lazy scale is not" false
    (World_registry.deterministic_tree
       ~params:[ ("scale", Param.String "lazy") ]
       "binary");
  checkb "world predicate: graph world is not" false
    (World_registry.deterministic_tree "grid")

(* ---- collapse: flags only when the proof obligations hold ---- *)

let binary_bfdn () =
  gen_spec ~family:"binary" ~n:120 ~k:8 ~seed:5 ~batch_seeds:4 ()

let faulty_binary () =
  gen_spec ~family:"binary" ~n:100 ~k:8 ~seed:8 ~batch_seeds:3
    ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
    ~faults:[ ("rate", Param.Float 0.2); ("restart", Param.Int 9) ]
    ()

let test_collapse_flags () =
  (* Deterministic family + draw-free algorithm: collapses. *)
  let r =
    check_batch_equals_sequential "binary/bfdn"
      (gen_spec ~family:"binary" ~n:120 ~k:8 ~seed:5 ~batch_seeds:8 ())
  in
  checkb "binary/bfdn collapses" true r.Seed_batch.collapsed;
  checkb "binary/bfdn ran a witness" true r.Seed_batch.lockstep;
  (* Randomized instance: not a witness shape, no collapse, still equal. *)
  let r =
    check_batch_equals_sequential "random/bfdn"
      (gen_spec ~family:"random" ~n:100 ~k:8 ~seed:6 ~batch_seeds:4 ())
  in
  checkb "random/bfdn does not collapse" false r.Seed_batch.collapsed;
  checkb "random/bfdn runs no witness" false r.Seed_batch.lockstep;
  (* Drawing algorithm on a deterministic family: lanes genuinely
     differ, so the draw-free proof must fail. *)
  let r =
    check_batch_equals_sequential "binary/random-walk"
      (gen_spec ~family:"binary" ~n:60 ~k:4 ~seed:7 ~batch_seeds:3
         ~algo:"random-walk" ())
  in
  checkb "random-walk does not collapse" false r.Seed_batch.collapsed;
  checkb "random-walk lane 0 was the witness" true r.Seed_batch.lockstep;
  (* Faults: per-lane schedules differ, so no collapse even on a
     deterministic family. *)
  let r =
    check_batch_equals_sequential "faulty binary/bfdn" (faulty_binary ())
  in
  checkb "faulty batch does not collapse" false r.Seed_batch.collapsed;
  checkb "faulty batch runs no witness" false r.Seed_batch.lockstep

let test_fallback_shapes () =
  (* Adversarial: every lane runs, still lane-identical. *)
  let t =
    Scenario.make ~algo:"bfdn" ~k:4 ~seed:11 ~batch_seeds:3
      (Scenario.adversarial ~policy:"corridor" ~capacity:120 ~depth_budget:10)
  in
  let r = check_batch_equals_sequential "adversarial" t in
  checkb "adversarial runs no witness" false r.Seed_batch.lockstep;
  checkb "adversarial does not collapse" false r.Seed_batch.collapsed;
  (* Round cap: hit_round_limit lanes stay identical. *)
  let t =
    {
      (gen_spec ~family:"comb" ~n:150 ~k:2 ~seed:12 ~batch_seeds:3 ()) with
      Scenario.max_rounds = Some 17;
    }
  in
  let r = check_batch_equals_sequential "round-capped" t in
  checkb "capped lane hit the limit" true
    r.Seed_batch.outcomes.(0).Scenario.result.Bfdn_sim.Runner.hit_round_limit

(* ---- on_round, probes and faults ---- *)

let total_rounds outcomes =
  Array.fold_left
    (fun acc (o : Scenario.outcome) -> acc + o.result.Bfdn_sim.Runner.rounds)
    0 outcomes

let test_on_round_per_lane_round () =
  List.iter
    (fun (what, t, executed) ->
      let calls = ref 0 in
      let r = Seed_batch.run ~on_round:(fun _ -> incr calls) t in
      checki
        (what ^ ": one call per round of every executed lane")
        (total_rounds (Array.sub r.Seed_batch.outcomes 0 executed))
        !calls)
    [
      (* collapsed: only lane 0 executes *)
      ("binary/bfdn", binary_bfdn (), 1);
      ( "random/bfdn",
        gen_spec ~family:"random" ~n:100 ~k:8 ~seed:6 ~batch_seeds:4 (),
        4 );
      ( "binary/random-walk",
        gen_spec ~family:"binary" ~n:60 ~k:4 ~seed:7 ~batch_seeds:3
          ~algo:"random-walk" (),
        3 );
      ("faulty binary", faulty_binary (), 3);
    ]

let test_no_collapse_under_probe_or_faults () =
  let probe = Probe.of_metrics (Metrics.create ()) in
  let r =
    check_batch_equals_sequential ~probe "probed binary" (binary_bfdn ())
  in
  checkb "enabled probe: no collapse" false r.Seed_batch.collapsed;
  checkb "enabled probe: no witness" false r.Seed_batch.lockstep;
  let r =
    check_batch_equals_sequential ~probe "probed faulty binary"
      (faulty_binary ())
  in
  checkb "probe and faults: no collapse" false r.Seed_batch.collapsed

let test_probed_batch_equals_sequential () =
  let probe = Probe.of_metrics (Metrics.create ()) in
  List.iter
    (fun (what, t) -> ignore (check_batch_equals_sequential ~probe what t))
    [
      ("binary/bfdn", binary_bfdn ());
      ( "random/cte",
        gen_spec ~family:"random" ~n:90 ~k:5 ~seed:9 ~batch_seeds:3 ~algo:"cte"
          () );
      ( "comb/random-walk",
        gen_spec ~family:"comb" ~n:60 ~k:3 ~seed:10 ~batch_seeds:3
          ~algo:"random-walk" () );
      ("faulty binary", faulty_binary ());
      ( "adversarial",
        Scenario.make ~algo:"bfdn" ~k:4 ~seed:13 ~batch_seeds:2
          (Scenario.adversarial ~policy:"corridor" ~capacity:100
             ~depth_budget:10) );
    ]

(* ---- qcheck: batch oracle across random configs ---- *)

let batched_spec_gen =
  let open QCheck2.Gen in
  oneofl [ "binary"; "comb"; "spider"; "random"; "star"; "caterpillar" ]
  >>= fun family ->
  (* Faults only pair with fault-tolerant bfdn — the other algorithms
     don't survive crash/restart (same restriction as the fault suite). *)
  oneofl [ []; [ ("rate", Param.Float 0.15); ("restart", Param.Int 7) ] ]
  >>= fun faults ->
  (if faults <> [] then return "bfdn"
   else oneofl [ "bfdn"; "bfdn-wr"; "cte"; "dfs"; "random-walk" ])
  >>= fun algo ->
  (match algo with
  | "bfdn" ->
      oneofl [ "least-loaded"; "first-open"; "random-open" ] >>= fun p ->
      return
        (("policy", Param.String p)
        ::
        (if faults <> [] then [ ("fault_tolerant", Param.Bool true) ] else []))
  | _ -> return [])
  >>= fun algo_params ->
  int_range 1 12 >>= fun k ->
  int_range 30 150 >>= fun n ->
  int_range (-5000) 5000 >>= fun seed ->
  int_range 2 5 >>= fun batch_seeds ->
  return
    (gen_spec ~family ~n ~k ~seed ~algo ~batch_seeds ~algo_params ~faults ())

let prop_batch_equals_sequential =
  QCheck2.Test.make ~count:40 ~name:"seed batch = S sequential runs"
    ~print:Scenario.to_string batched_spec_gen (fun t ->
      let report = Seed_batch.run t in
      let seq = sequential_outcomes t in
      Array.for_all2
        (fun a b -> Scenario.equal_outcome a b)
        report.Seed_batch.outcomes seq)

(* ---- sharding: bit-for-bit across shard counts ---- *)

let test_shard_equality () =
  List.iter
    (fun (what, t) ->
      let plain = Scenario.run t in
      List.iter
        (fun shards ->
          let sharded = Scenario.run ~shards t in
          checkb
            (Printf.sprintf "%s: %d shards = unsharded" what shards)
            true
            (Scenario.equal_outcome plain sharded))
        [ 1; 2; 3 ])
    [
      ("comb k=64", gen_spec ~family:"comb" ~n:400 ~k:64 ~seed:3 ());
      ("trap k=32", gen_spec ~family:"trap" ~n:300 ~k:32 ~seed:4 ());
      ( "shortcut spider",
        gen_spec ~family:"spider" ~n:300 ~k:16 ~seed:5
          ~algo_params:[ ("shortcut", Param.Bool true) ]
          () );
      ( "fault-tolerant binary",
        gen_spec ~family:"binary" ~n:200 ~k:8 ~seed:6
          ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
          ~faults:[ ("crashes", Param.String "1@8,3@20+25") ]
          () );
    ]

let test_shard_pool () =
  let pool = Shard_pool.create ~shards:3 in
  checki "shards" 3 (Shard_pool.shards pool);
  let hits = Array.make 100 0 in
  Shard_pool.run pool ~n:100 (fun i -> hits.(i) <- hits.(i) + 1);
  checkb "every index exactly once" true (Array.for_all (( = ) 1) hits);
  (* Worker exceptions surface at the caller and the pool survives. *)
  checkb "exception propagates" true
    (try
       Shard_pool.run pool ~n:10 (fun i -> if i = 7 then failwith "boom");
       false
     with Failure _ -> true);
  Shard_pool.run pool ~n:100 (fun i -> hits.(i) <- hits.(i) + 1);
  checkb "pool alive after exception" true (Array.for_all (( = ) 2) hits);
  Shard_pool.shutdown pool;
  Shard_pool.shutdown pool (* idempotent *)

(* ---- batched specs on the wire ---- *)

let test_batch_wire () =
  let plain = gen_spec ~family:"comb" ~n:90 ~k:4 ~seed:2 () in
  let batched = { plain with Scenario.batch_seeds = 16 } in
  (* batch_seeds = 1 is the plain pre-batch wire form, byte for byte. *)
  checkb "batch=1 emits no batch member" false
    (contains ~affix:"batch" (Scenario.to_string plain));
  let wire = Scenario.to_string batched in
  checkb "batch member emitted" true
    (contains ~affix:{|"batch":{"seeds":16}|} wire);
  checkb "batched spec is version 2" true
    (contains ~affix:{|"schema_version":2|} wire);
  (match Scenario.of_string wire with
  | Ok t -> checkb "round-trips" true (Scenario.equal t batched)
  | Error e -> Alcotest.failf "batched spec failed to parse: %s" e);
  checkb "distinct fingerprints" true
    (Scenario.fingerprint plain <> Scenario.fingerprint batched);
  (* Range checks and the run-side rejection. *)
  checkb "batch=0 invalid" true
    (Result.is_error (Scenario.validate { plain with Scenario.batch_seeds = 0 }));
  checkb "batch>65536 invalid" true
    (Result.is_error
       (Scenario.validate { plain with Scenario.batch_seeds = 65537 }));
  checkb "Scenario.run rejects batched specs" true
    (try
       ignore (Scenario.run batched);
       false
     with Invalid_argument _ -> true);
  (* unbatch: lane seeds and bounds. *)
  checki "lane 3 seed" (batched.Scenario.seed + 3)
    (Scenario.unbatch batched 3).Scenario.seed;
  checkb "lane out of range" true
    (try
       ignore (Scenario.unbatch batched 16);
       false
     with Invalid_argument _ -> true)

let suite =
  ( "batch",
    [
      Alcotest.test_case "deterministic families" `Quick
        test_deterministic_families;
      Alcotest.test_case "collapse flags" `Quick test_collapse_flags;
      Alcotest.test_case "fallback shapes" `Quick test_fallback_shapes;
      Alcotest.test_case "on_round fires per round of every executed lane"
        `Quick test_on_round_per_lane_round;
      Alcotest.test_case "no collapse under a probe or faults" `Quick
        test_no_collapse_under_probe_or_faults;
      Alcotest.test_case "probed batch = S sequential runs" `Quick
        test_probed_batch_equals_sequential;
      Alcotest.test_case "shard equality" `Quick test_shard_equality;
      Alcotest.test_case "shard pool" `Quick test_shard_pool;
      Alcotest.test_case "batched wire form" `Quick test_batch_wire;
      QCheck_alcotest.to_alcotest prop_batch_equals_sequential;
    ] )
