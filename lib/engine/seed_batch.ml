(* Seed-batched execution.

   A batched spec ([Scenario.batch_seeds = S]) stands for the S plain
   specs [unbatch t 0 .. unbatch t (S-1)], and its outcome is exactly
   theirs. What a batch earns over those S runs is the identical-lane
   collapse: lanes differ only through their RNG streams, so on a world
   whose tree ignores the instance stream
   ({!Bfdn_scenario.World_registry.deterministic_tree}), with no faults
   and a noop probe, the only stream that can still reach the run is
   the algorithm stream. If lane 0 completes without drawing from it
   ([Scenario.run_witness]), every other lane would execute the
   byte-identical run, and its outcome is replicated without running
   it. This is the serve cache's fingerprint argument applied within a
   batch, and it makes multi-seed sweeps of the deterministic paper
   algorithms nearly free. Every lane that does have to run is a plain
   [Scenario.run], so the seed derivation lives in [Scenario] alone. *)

module Scenario = Bfdn_scenario.Scenario
module World_registry = Bfdn_scenario.World_registry
module Algo_registry = Bfdn_scenario.Algo_registry
module Probe = Bfdn_obs.Probe

type report = {
  outcomes : Scenario.outcome array;
  lockstep : bool;
  collapsed : bool;
}

(* The shapes where lane 0's draw-free run proves the whole batch. *)
let collapsible probe t =
  (not probe.Probe.enabled)
  && t.Scenario.faults = []
  && (match t.Scenario.instance with
     | Scenario.World { world; params } ->
         World_registry.deterministic_tree ~params world
     | Scenario.Adversarial _ -> false)
  &&
  match Algo_registry.find t.Scenario.algo with
  | Some e -> e.Algo_registry.make_tree <> None
  | None -> false

let run ?(probe = Probe.noop) ?on_round t =
  (match Scenario.validate t with
  | Ok () -> ()
  | Error msg ->
      invalid_arg ("Seed_batch: " ^ msg ^ " in " ^ Scenario.describe t));
  let s = t.Scenario.batch_seeds in
  let lane l = Scenario.run ~probe ?on_round (Scenario.unbatch t l) in
  if not (collapsible probe t) then
    { outcomes = Array.init s lane; lockstep = false; collapsed = false }
  else
    let o0, drew_nothing =
      Scenario.run_witness ?on_round (Scenario.unbatch t 0)
    in
    if drew_nothing then
      { outcomes = Array.make s o0; lockstep = true; collapsed = s > 1 }
    else
      {
        outcomes = Array.init s (fun l -> if l = 0 then o0 else lane l);
        lockstep = true;
        collapsed = false;
      }
