(** Seed-batched execution of one spec over S consecutive seeds.

    A batched spec ([Scenario.batch_seeds = S]) stands for the S plain
    specs [Scenario.unbatch t 0 .. S-1], and [run] returns exactly
    their outcomes. The batch skips work only through the
    {e identical-lane collapse}: when the tree family's generator
    ignores the instance stream, the spec has no faults, the probe is a
    noop, and lane 0 completes without a single algorithm-stream draw
    ({!Bfdn_scenario.Scenario.run_witness}), every sibling lane is
    provably byte-identical and its outcome is replicated without
    executing it — the serve cache's fingerprint argument applied
    inside a batch. Every other lane is one plain
    {!Bfdn_scenario.Scenario.run}.

    Outcomes equal S sequential [Scenario.run] calls — QCheck-asserted
    across random configs and re-checked in CI's determinism lane. *)

type report = {
  outcomes : Bfdn_scenario.Scenario.outcome array;
      (** lane [i] = outcome of [Scenario.run (unbatch t i)], always *)
  lockstep : bool;
      (** lane 0 ran as the collapse witness (the spec had a collapsible
          shape). The name predates this meaning and stays only because
          the benchmark reads it. *)
  collapsed : bool;
      (** lanes 1..S-1 replicated from lane 0's draw-free proof *)
}

val run :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  Bfdn_scenario.Scenario.t ->
  report
(** Execute a (possibly) batched spec. [batch_seeds = 1] degenerates to
    one [Scenario.run].

    [probe]: per-lane observation; an {e enabled} probe rules the
    collapse out, so every lane runs and is observed.
    [on_round] is forwarded to every executed lane's [Scenario.run] and
    so fires once per round of each of them — raise from it to abort
    the batch (the serve layer's deadline/cancellation hook).
    @raise Invalid_argument when the spec fails validation. *)
