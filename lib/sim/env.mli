(** Synchronous exploration environment.

    Holds the hidden tree, the robots' positions, the partially explored
    tree, the round counter and the run metrics. One call to {!apply}
    executes one synchronous round: every robot moves along one incident
    discovered edge (or stays), then newly reached nodes are revealed.

    Legality is enforced here: a robot may only stay, go up, or leave
    through a port of its current (hence explored) position — all of which
    are discovered edges, so no algorithm can read or use hidden
    information through this interface.

    The environment also implements the adversarial break-down model of
    Section 4.2: an optional {e move mask} decides, per round and robot,
    whether the robot is allowed to move; masked robots are pinned in
    place whatever the algorithm selected. *)

type t

type robot = int

type move =
  | Stay
  | Up  (** towards the root; illegal at the root *)
  | Via_port of int  (** leave through a port (explored or dangling) *)

type mask = round:int -> robot:robot -> bool

type fault_hook = {
  fh_enabled : bool;
      (** immutable master switch; when [false] the predicates are never
          called and the round loop is branch-identical to a fault-free
          environment *)
  fh_down : round:int -> robot:robot -> bool;
      (** crashed or masked this round — pinned in place like a masked
          robot, and reported as not {!allowed}. Must be pure: it is
          consulted both at select time and inside {!apply}. *)
  fh_restart : round:int -> robot:robot -> bool;
      (** [true] at the end of round [r] teleports the robot to the root
          before round [r+1] (a replacement robot coming online) *)
  fh_may_restart : bool;
      (** [false] lets {!apply} skip the per-robot restart sweep
          entirely — set it iff the plan can never answer [fh_restart]
          with [true] (e.g. all crashes are permanent) *)
}
(** Fault-injection hook threaded through the round loop. Compile one
    from a fault plan with [Bfdn_faults.Injector.hook]. *)

val fault_noop : fault_hook
(** The disabled hook; default everywhere a [?fault] is accepted. *)

type reactive_blocker = round:int -> selected:move array -> bool array
(** Remark 8's stronger adversary: it observes the moves the robots have
    {e selected} this round before deciding who may move ([true] =
    allowed). Composed with the plain mask (both must allow a robot). *)

val create :
  ?mask:mask ->
  ?probe:Bfdn_obs.Probe.t ->
  ?fault:fault_hook ->
  Bfdn_trees.Tree.t ->
  k:int ->
  t
(** [create tree ~k] places [k] robots on the root and reveals it.
    [mask] defaults to "always allowed". [probe] (default
    {!Bfdn_obs.Probe.noop}) receives an [on_round] callback after every
    {!apply} with that round's moved/revealed/edge-event deltas.
    [fault] (default {!fault_noop}) injects crashes, restarts and
    fault-plan masks into the round loop. *)

(** {2 Lazily materialized worlds}

    For adaptive-adversary experiments the hidden tree can be decided
    {e online}: node degrees are fixed only when a node is revealed, and
    child ids are pre-allocated at promise time, so the discovered tree
    never leaks information the robots should not have. See
    {!Adversary}, which builds such worlds from a budgeted policy. *)

type world = {
  w_capacity : int;  (** upper bound on node ids, for array sizing *)
  w_root : int;
  w_degree : node:int -> arriving:int -> round:int -> int;
      (** total ports of a node; queried exactly once, at its reveal *)
  w_child : int -> int -> int;
      (** [(revealed parent, child port)] to the promised node id *)
  w_stats : unit -> int * int * int;
      (** materialized so far: n, depth, max degree *)
  w_tree : unit -> Bfdn_trees.Tree.t;
      (** freeze the materialized tree *)
}

val of_world :
  ?mask:mask ->
  ?fixed:bool ->
  ?probe:Bfdn_obs.Probe.t ->
  ?fault:fault_hook ->
  world ->
  k:int ->
  t
(** [fixed] (default [false]) declares that the world's [w_stats] never
    change after creation, letting {!Runner.run} compute its termination
    bound once instead of every round. {!create} sets it. *)

val fixed_world : t -> bool
(** Whether the hidden world was declared fixed at creation. *)

val k : t -> int

val capacity : t -> int
(** Upper bound on node ids (the node count for tree-backed worlds);
    algorithms should size per-node state with this. *)

val round : t -> int
(** Number of rounds executed so far. *)

val view : t -> Partial_tree.t
(** The discovered tree. Read-only for algorithms ({!Partial_tree.Internal}
    is reserved to this module). *)

val position : t -> robot -> Partial_tree.node

val positions : t -> Partial_tree.node array
(** A copy of all positions. *)

val set_reactive_blocker : t -> reactive_blocker -> unit
(** Install a Remark 8 adversary. No guarantee from the paper applies
    under it; the library exposes it for experiments. *)

val allowed : t -> robot -> bool
(** Whether the mask {e and} the fault hook allow this robot to move in
    the {e upcoming} round. A crashed robot reads as not allowed, which
    is exactly the Section 4.2 break-down signal algorithms already
    handle. *)

val apply : t -> move array -> unit
(** Execute one synchronous round with the given per-robot selections
    (length [k]). Masked robots are forced to [Stay].
    @raise Invalid_argument on an illegal selection (bad port, [Up] at the
    root, wrong array length). *)

val fully_explored : t -> bool
(** No dangling edge remains. *)

val all_at_root : t -> bool

(** {2 Metrics} *)

val restarts : t -> int
(** Number of crash-with-restart teleports executed so far. *)

val moves_total : t -> int
(** Total edge traversals performed (all robots, all rounds). *)

val moves_of_robot : t -> robot -> int

val edge_events : t -> int
(** Number of edge events (Section 5): first parent-to-child crossings plus
    first child-to-parent crossings; at most [2*(n-1)]. *)

val allowed_total : t -> int
(** Total number of (round, robot) slots the mask allowed so far —
    [k * A(M)] restricted to the elapsed rounds (Section 4.2). *)

val multi_reveals : t -> int
(** Number of first-time edge traversals performed by two or more robots
    simultaneously. Always [0] under BFDN (Claim 2: the round-local
    selection makes discoveries exclusive); CTE routinely piles robots on
    one dangling edge. *)

(** {2 Harness-side oracle}

    These reveal the hidden instance parameters (n, D, Δ) for reporting and
    for bound formulas. Exploration algorithms must not call them. *)

val oracle_n : t -> int
val oracle_depth : t -> int
val oracle_max_degree : t -> int
val oracle_tree : t -> Bfdn_trees.Tree.t
