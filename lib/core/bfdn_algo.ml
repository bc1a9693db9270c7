module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Runner = Bfdn_sim.Runner
module Rng = Bfdn_util.Rng
module Heartbeat = Bfdn_faults.Heartbeat

type policy = Least_loaded | First_open | Random_open of Rng.t

(* Crash-tolerance bookkeeping. Detection is purely whiteboard-local:
   every acting robot writes a heartbeat, and a robot silent for more
   than [suspect_after] rounds is {e buried} — its anchor is handed back
   to the pool (accounted at the root) so the survivors re-cover its
   subtree, and the termination condition stops waiting for it. Burial
   is reversible: a fresh surviving heartbeat (a restarted robot, or a
   false positive under whiteboard write drops) revives the robot, which
   then rejoins the fleet through the ordinary walk-home/re-anchor flow. *)
type ft = {
  hb : Heartbeat.t;
  suspect_after : int;
  buried : bool array;
  mutable lost : int;
  mutable revived : int;
}

(* A robot's pending breadth-first route, int-coded into a reusable
   per-robot buffer: -1 = Up, p >= 0 = Via_port p. The slice
   [route_pos, route_len) holds the moves left to reach the anchor. *)
type rstate = {
  mutable anchor : int;
  mutable route : int array;
  mutable route_pos : int;
  mutable route_len : int;
}

type t = {
  env : Env.t;
  policy : policy;
  shortcut : bool;
  ft : ft option;
  probe : Bfdn_obs.Probe.t; (* anchor-switch and idle-robot hooks *)
  (* Optional domain team for the route-computation pass of select; the
     decision passes stay sequential (see [select_sharded]). *)
  shard : Bfdn_util.Shard_pool.t option;
  (* Robots whose breadth-first route is deferred to the sharded fill
     pass this round: indices [0, pending_n) in robot order. *)
  pending : int array;
  robots : rstate array;
  (* Per-node scratch tracks the view's growable id space
     ({!Partial_tree.id_bound}), re-ensured at the top of every select:
     on a lazily materialized huge world the algorithm holds O(explored)
     state instead of O(capacity). *)
  mutable anchor_load : int array;
  (* Cursor over the ports of each node: everything before it is known to
     be non-dangling (or dangling-but-selected-this-round, hence resolved
     by the end of the round). Keeps the depth-next dangling lookup O(1)
     amortized even on high-degree nodes. *)
  mutable dangle_cursor : int array;
  mutable reanchor_counts : int array; (* indexed by anchor depth *)
  mutable reanchors_total : int;
  mutable summary_sent : bool; (* probe reanchor summary fired once *)
  (* Round-local resume index per node, valid while its stamp equals the
     select call's epoch: just past the port most recently picked there.
     Robots at a node pick the next dangling ports past the cursor, in
     order, so a later robot resumes there instead of re-skipping them. *)
  mutable sel_stamp : int array;
  mutable sel_next : int array;
  mutable sel_epoch : int;
  moves : Env.move array; (* returned by select, refilled each round *)
  (* Cached [Via_port p] values indexed by port, so routing and depth-next
     moves allocate nothing in steady state. Per-instance: instances may
     run in parallel domains under the batch engine. *)
  mutable via : Env.move array;
}

let make ?(policy = Least_loaded) ?(shortcut = false)
    ?(probe = Bfdn_obs.Probe.noop) ?(fault_tolerant = false) ?(suspect_after = 4)
    ?drop ?shard_pool env =
  let n = Partial_tree.id_bound (Env.view env) in
  let root = Partial_tree.root (Env.view env) in
  if suspect_after < 1 then
    invalid_arg "Bfdn_algo.make: suspect_after must be >= 1";
  {
    env;
    policy;
    shortcut;
    ft =
      (if not fault_tolerant then None
       else
         Some
           {
             hb = Heartbeat.create ?drop ~k:(Env.k env) ();
             suspect_after;
             buried = Array.make (Env.k env) false;
             lost = 0;
             revived = 0;
           });
    probe;
    shard = shard_pool;
    pending = Array.make (Env.k env) 0;
    robots =
      Array.init (Env.k env) (fun _ ->
          { anchor = root; route = Array.make 8 0; route_pos = 0; route_len = 0 });
    anchor_load =
      (let load = Array.make n 0 in
       load.(root) <- Env.k env;
       load);
    dangle_cursor = Array.make n 0;
    reanchor_counts = Array.make (min (Env.capacity env + 2) (n + 2)) 0;
    reanchors_total = 0;
    summary_sent = false;
    sel_stamp = Array.make n (-1);
    sel_next = Array.make n 0;
    sel_epoch = 0;
    moves = Array.make (Env.k env) Env.Stay;
    via = Array.init 8 (fun p -> Env.Via_port p);
  }

(* Growth preserves contents and the 0/-1 defaults, so behaviour is
   byte-identical to a full preallocation; only ids below
   [Partial_tree.id_bound] (explored nodes) are ever indexed. *)
let grow_int_array a cap fill =
  let bigger = Array.make cap fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let ensure_nodes t =
  let need = Partial_tree.id_bound (Env.view t.env) in
  if need > Array.length t.anchor_load then begin
    let cap = max need (2 * Array.length t.anchor_load) in
    t.anchor_load <- grow_int_array t.anchor_load cap 0;
    t.dangle_cursor <- grow_int_array t.dangle_cursor cap 0;
    t.sel_stamp <- grow_int_array t.sel_stamp cap (-1);
    t.sel_next <- grow_int_array t.sel_next cap 0
  end

let ensure_depth t d =
  if d + 1 >= Array.length t.reanchor_counts then
    t.reanchor_counts <-
      grow_int_array t.reanchor_counts
        (max (d + 2) (2 * Array.length t.reanchor_counts))
        0

let via t p =
  let len = Array.length t.via in
  if p >= len then begin
    let len' =
      let l = ref len in
      while p >= !l do
        l := 2 * !l
      done;
      !l
    in
    t.via <- Array.init len' (fun q -> Env.Via_port q)
  end;
  t.via.(p)

(* First dangling port of [pos] at or past [c], or -1; with [commit],
   the cursor moves past every non-dangling port scanned. *)
let rec scan t view pos nports c commit =
  if c >= nports then -1
  else if Partial_tree.is_port_dangling view pos c then c
  else begin
    if commit then t.dangle_cursor.(pos) <- c + 1;
    scan t view pos nports (c + 1) commit
  end

(* The cursor may permanently skip non-dangling ports, but a port picked
   earlier this round is skipped only by resuming past it without
   committing the cursor: if that move is vetoed (reactive blocking,
   Remark 8) the port stays dangling and is picked again next round. *)
let next_dangling t view pos =
  let nports = Partial_tree.num_ports view pos in
  if t.sel_stamp.(pos) = t.sel_epoch then scan t view pos nports t.sel_next.(pos) false
  else scan t view pos nports t.dangle_cursor.(pos) true

let mark_selected t pos p =
  t.sel_stamp.(pos) <- t.sel_epoch;
  t.sel_next.(pos) <- p + 1

let pick_anchor t view =
  let d = Partial_tree.min_open_depth_raw view in
  if d < 0 then Partial_tree.root view
  else
    match t.policy with
    | Least_loaded ->
        (* Unique minimum (load, then id): independent of bucket order. *)
        Partial_tree.fold_open_at_depth view d ~init:(-1) ~f:(fun b v ->
            if
              b < 0
              || t.anchor_load.(v) < t.anchor_load.(b)
              || (t.anchor_load.(v) = t.anchor_load.(b) && v < b)
            then v
            else b)
    | First_open -> Partial_tree.fold_open_at_depth view d ~init:max_int ~f:min
    | Random_open rng ->
        (* Canonical order: the draw maps to the sorted candidate set, so
           the result is independent of the open-bucket iteration order. *)
        Rng.pick rng (Array.of_list (Partial_tree.open_nodes_at_depth view d))

let ensure_route r needed =
  if Array.length r.route < needed then begin
    let cap = ref (Array.length r.route) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    r.route <- Array.make !cap 0
  end

(* Moves from [src] to [dst] along the discovered tree, written into the
   robot's reusable buffer: up to the lowest common ancestor, then down the
   port path read off the parent-port cache. With [src = root] this is the
   plain Algorithm 1 stack. *)
let fill_route view r src dst =
  let rec lift u du w dw ups =
    if u = w then (u, ups)
    else if du >= dw then
      lift (Partial_tree.parent_id view u) (du - 1) w dw (ups + 1)
    else lift u du (Partial_tree.parent_id view w) (dw - 1) ups
  in
  let lca, ups =
    lift src (Partial_tree.depth_of view src) dst (Partial_tree.depth_of view dst) 0
  in
  let downs = Partial_tree.depth_of view dst - Partial_tree.depth_of view lca in
  let len = ups + downs in
  ensure_route r len;
  Array.fill r.route 0 ups (-1);
  let w = ref dst in
  for j = len - 1 downto ups do
    let p = Partial_tree.parent_port view !w in
    if p < 0 then invalid_arg "Bfdn_algo.fill_route: broken parent link";
    r.route.(j) <- p;
    w := Partial_tree.parent_id view !w
  done;
  r.route_pos <- 0;
  r.route_len <- len

(* The shared-state half of a re-anchor: anchor-load accounting, the
   anchor pick and the reanchor statistics. Everything here reads and
   writes state shared across robots, so it always runs in the
   sequential decision pass (in robot-index order); the route fill —
   a pure function of the view writing only the robot's own buffer —
   can then run out of line (and out of order). *)
let reanchor_decide t view i =
  let r = t.robots.(i) in
  t.anchor_load.(r.anchor) <- t.anchor_load.(r.anchor) - 1;
  let v = pick_anchor t view in
  r.anchor <- v;
  t.anchor_load.(v) <- t.anchor_load.(v) + 1;
  let d = Partial_tree.depth_of view v in
  ensure_depth t d;
  t.reanchor_counts.(d) <- t.reanchor_counts.(d) + 1;
  t.reanchors_total <- t.reanchors_total + 1;
  d

let reanchor t i =
  let view = Env.view t.env in
  let r = t.robots.(i) in
  let pos = Env.position t.env i in
  let d = reanchor_decide t view i in
  fill_route view r pos r.anchor;
  (* Per-event hook only under [events]: a trap instance reanchors ~100
     robots per round at k = 512, so even no-op calls here would break
     the aggregate probe's overhead budget. Aggregate consumers get the
     counts from the end-of-run summary instead. *)
  if t.probe.Bfdn_obs.Probe.events then
    t.probe.Bfdn_obs.Probe.on_reanchor ~robot:i ~depth:d ~route_len:r.route_len

(* Pop the next breadth-first move off the robot's route. *)
let pop_route t r =
  let c = r.route.(r.route_pos) in
  r.route_pos <- r.route_pos + 1;
  if c < 0 then Env.Up else via t c

(* Fault-tolerance prepass: heartbeats, revivals and burials, before any
   move is decided, so this round's re-anchoring already sees the
   corrected anchor loads. A buried robot that is in fact alive (false
   positive under write drops, or not yet revived because its beat
   dropped again) still acts normally below — burial only affects anchor
   accounting and the termination condition, never legality. *)
let ft_prepass t f root =
  let round = Env.round t.env in
  let k = Env.k t.env in
  for i = 0 to k - 1 do
    if Env.allowed t.env i then begin
      Heartbeat.beat f.hb ~robot:i ~round;
      if f.buried.(i) && Heartbeat.last_seen f.hb i = round then begin
        f.buried.(i) <- false;
        f.revived <- f.revived + 1;
        if t.probe.Bfdn_obs.Probe.enabled then
          t.probe.Bfdn_obs.Probe.on_robot_revived ~robot:i ~round
      end
    end;
    if
      (not f.buried.(i))
      && Heartbeat.stale f.hb ~robot:i ~round ~after:f.suspect_after
    then begin
      let r = t.robots.(i) in
      t.anchor_load.(r.anchor) <- t.anchor_load.(r.anchor) - 1;
      r.anchor <- root;
      t.anchor_load.(root) <- t.anchor_load.(root) + 1;
      (* Drop the pending route: if the robot is in fact alive it falls
         back to depth-next moves and walks home, which is always legal. *)
      r.route_pos <- 0;
      r.route_len <- 0;
      f.buried.(i) <- true;
      f.lost <- f.lost + 1;
      if t.probe.Bfdn_obs.Probe.enabled then
        t.probe.Bfdn_obs.Probe.on_robot_lost ~robot:i ~round
          ~latency:(Heartbeat.missed f.hb ~robot:i ~round)
    end
  done

let select_seq t =
  let view = Env.view t.env in
  let root = Partial_tree.root view in
  ensure_nodes t;
  let k = Env.k t.env in
  let moves = t.moves in
  Array.fill moves 0 k Env.Stay;
  t.sel_epoch <- t.sel_epoch + 1;
  (match t.ft with None -> () | Some f -> ft_prepass t f root);
  for i = 0 to k - 1 do
    if Env.allowed t.env i then begin
      let r = t.robots.(i) in
      let pos = Env.position t.env i in
      if pos = root then reanchor t i;
      if r.route_pos < r.route_len then
        (* Breadth-first move along the stacked route. *)
        moves.(i) <- pop_route t r
      else begin
        (* Depth-next move. *)
        let p = next_dangling t view pos in
        if p >= 0 then begin
          mark_selected t pos p;
          moves.(i) <- via t p
        end
        else if pos <> root then begin
          if t.shortcut && Partial_tree.min_open_depth_raw view >= 0 then
            (* Ablation: re-anchor in place instead of walking home first
               (the paper keeps the walk for the write-read model; see
               Section 2). *)
            reanchor t i;
          if r.route_pos < r.route_len then moves.(i) <- pop_route t r
          else moves.(i) <- Env.Up
        end
      end
    end
  done;
  (* The O(k) idle scan is per-event instrumentation ([events] only):
     aggregate consumers get the idle count for free from Env.apply's
     on_round. Pattern match, not [=]: polymorphic equality on the move
     variant would cost a caml_compare call per robot. *)
  if t.probe.Bfdn_obs.Probe.events then begin
    let idle = ref 0 in
    for i = 0 to k - 1 do
      match moves.(i) with Env.Stay -> incr idle | _ -> ()
    done;
    t.probe.Bfdn_obs.Probe.on_select ~idle:!idle
  end;
  moves

(* Sharded select: same decisions as [select_seq], bit for bit, with the
   route computation spread over a domain team. Three passes —

   A. sequential, robot order: every read/write of cross-robot state
      (anchor loads in [pick_anchor], the per-node selected-dangling
      counters, the dangle cursors). A robot that re-anchors to a node
      other than its position has its route {e deferred}: only the fact
      that the route will be non-empty matters for this round's control
      flow (it will pop, not depth-next), and that is exactly
      [anchor <> position].
   B. parallel: [fill_route] for the deferred robots. The fill is a pure
      function of the (frozen-during-select) view writing only the
      robot's own buffer, so chunk scheduling cannot be observed.
   C. sequential, robot order: pop the first route move. Kept out of the
      parallel pass because popping grows the shared [via] cache; the
      cache's contents are index-deterministic, so a sequential pass in
      robot order reproduces the unsharded layout exactly.

   The merge is therefore "stable robot-index order" by construction:
   every shared-state mutation happens in the same order as in
   [select_seq], and 1-vs-N shards is byte-identical (asserted by the
   determinism suite). Per-event probes still use the sequential path —
   their [on_reanchor] hook wants the route length at decision time. *)
let select_sharded t pool =
  let view = Env.view t.env in
  let root = Partial_tree.root view in
  ensure_nodes t;
  let k = Env.k t.env in
  let moves = t.moves in
  Array.fill moves 0 k Env.Stay;
  t.sel_epoch <- t.sel_epoch + 1;
  (match t.ft with None -> () | Some f -> ft_prepass t f root);
  let pending = t.pending in
  let np = ref 0 in
  let defer_or_depth_next i r pos =
    if r.anchor <> pos then begin
      pending.(!np) <- i;
      incr np;
      true
    end
    else begin
      (* Re-anchored to its own position: the route is empty, exactly as
         [fill_route view r pos pos] would leave it. *)
      r.route_pos <- 0;
      r.route_len <- 0;
      false
    end
  in
  for i = 0 to k - 1 do
    if Env.allowed t.env i then begin
      let r = t.robots.(i) in
      let pos = Env.position t.env i in
      if pos = root then begin
        ignore (reanchor_decide t view i : int);
        if not (defer_or_depth_next i r pos) then begin
          (* Anchor is the root itself: depth-next at the root. *)
          let p = next_dangling t view pos in
          if p >= 0 then begin
            mark_selected t pos p;
            moves.(i) <- via t p
          end
        end
      end
      else if r.route_pos < r.route_len then moves.(i) <- pop_route t r
      else begin
        let p = next_dangling t view pos in
        if p >= 0 then begin
          mark_selected t pos p;
          moves.(i) <- via t p
        end
        else if t.shortcut && Partial_tree.min_open_depth_raw view >= 0 then begin
          ignore (reanchor_decide t view i : int);
          if not (defer_or_depth_next i r pos) then moves.(i) <- Env.Up
        end
        else moves.(i) <- Env.Up
      end
    end
  done;
  if !np > 0 then begin
    let robots = t.robots and env = t.env in
    Bfdn_util.Shard_pool.run pool ~n:!np (fun idx ->
        let i = pending.(idx) in
        let r = robots.(i) in
        fill_route view r (Env.position env i) r.anchor);
    for idx = 0 to !np - 1 do
      let i = pending.(idx) in
      moves.(i) <- pop_route t robots.(i)
    done
  end;
  moves

let select t =
  match t.shard with
  | Some pool when not t.probe.Bfdn_obs.Probe.events -> select_sharded t pool
  | _ -> select_seq t

(* Fired once, the first time [finished] holds: hand the probe the
   reanchor statistics accumulated (at zero marginal cost) during the
   run. The copy is trimmed to the depths actually used. *)
let send_summary t =
  t.summary_sent <- true;
  let counts = t.reanchor_counts in
  let hi = ref (Array.length counts - 1) in
  while !hi >= 0 && counts.(!hi) = 0 do
    decr hi
  done;
  t.probe.Bfdn_obs.Probe.on_reanchor_summary ~total:t.reanchors_total
    ~by_depth:(Array.sub counts 0 (!hi + 1))

(* Crash-tolerant termination: explored, and every robot not presumed
   lost is back at the root. Waiting for buried robots would spin until
   the round bound whenever a crash is permanent. *)
let ft_finished f env =
  Env.fully_explored env
  &&
  let root = Partial_tree.root (Env.view env) in
  let ok = ref true in
  for i = 0 to Env.k env - 1 do
    if (not f.buried.(i)) && Env.position env i <> root then ok := false
  done;
  !ok

let algo t =
  {
    Runner.name = (match t.ft with None -> "bfdn" | Some _ -> "bfdn-ft");
    select = (fun _ -> select t);
    finished =
      (fun env ->
        let fin =
          match t.ft with
          | None -> Env.fully_explored env && Env.all_at_root env
          | Some f -> ft_finished f env
        in
        if fin && t.probe.Bfdn_obs.Probe.enabled && not t.summary_sent then
          send_summary t;
        fin);
  }

let anchors t = Array.map (fun r -> r.anchor) t.robots

let reanchors_at_depth t d =
  if d < 0 || d >= Array.length t.reanchor_counts then 0
  else t.reanchor_counts.(d)

let reanchors_total t = t.reanchors_total

let fault_tolerant t = t.ft <> None
let robots_lost t = match t.ft with None -> 0 | Some f -> f.lost
let robots_revived t = match t.ft with None -> 0 | Some f -> f.revived

let presumed_lost t =
  match t.ft with
  | None -> [||]
  | Some f ->
      let acc = ref [] in
      for i = Array.length f.buried - 1 downto 0 do
        if f.buried.(i) then acc := i :: !acc
      done;
      Array.of_list !acc

let check_claim4 t =
  let view = Env.view t.env in
  let anchor_list = Array.to_list (anchors t) in
  let covered v = List.exists (fun a -> Partial_tree.is_ancestor view a v) anchor_list in
  let all_open_covered acc v =
    acc && ((not (Partial_tree.is_open view v)) || covered v)
  in
  Partial_tree.fold_explored view ~init:true ~f:all_open_covered
