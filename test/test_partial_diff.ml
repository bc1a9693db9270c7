(* Differential oracle for Partial_tree: a naive list-based reference
   implementation is driven through the same randomized reveal/resolve
   traces as the real structure, and every observable — port states,
   parents, depths, ports_from_root, min_open_depth, sorted open-node
   buckets, subtree_open — must agree at every step. This is what licenses the
   swap-remove bucket and parent-port-cache internals: any bookkeeping bug
   diverges from the reference within a few steps. *)

module Partial_tree = Bfdn_sim.Partial_tree
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* ---- reference implementation: association lists, recomputed scans ---- *)

module Ref_tree = struct
  type t = {
    root : int;
    mutable revealed : (int * int * int option) list; (* node, nports, parent *)
    mutable resolved : (int * int * int) list; (* v, port, child *)
  }

  let create ~root = { root; revealed = []; resolved = [] }

  let reveal t v ~parent ~num_ports =
    t.revealed <- (v, num_ports, parent) :: t.revealed

  let resolve t v p c = t.resolved <- (v, p, c) :: t.resolved

  let explored t =
    List.sort compare (List.map (fun (v, _, _) -> v) t.revealed)

  let num_ports t v =
    let _, np, _ = List.find (fun (w, _, _) -> w = v) t.revealed in
    np

  let parent t v =
    let _, _, p = List.find (fun (w, _, _) -> w = v) t.revealed in
    p

  let child_behind t v p =
    List.find_opt (fun (w, q, _) -> w = v && q = p) t.resolved
    |> Option.map (fun (_, _, c) -> c)

  (* Mirrors Partial_tree.port_state without depending on its internals. *)
  let port t v p =
    if v <> t.root && p = 0 then Partial_tree.To_parent
    else
      match child_behind t v p with
      | Some c -> Partial_tree.Child c
      | None -> Partial_tree.Dangling

  let rec depth t v =
    match parent t v with None -> 0 | Some p -> 1 + depth t p

  let parent_port t v =
    match List.find_opt (fun (_, _, c) -> c = v) t.resolved with
    | None -> -1
    | Some (_, p, _) -> p

  let rec ports_from_root t v =
    match parent t v with
    | None -> []
    | Some p -> ports_from_root t p @ [ parent_port t v ]

  let dangling_ports t v =
    List.filter
      (fun p -> port t v p = Partial_tree.Dangling)
      (List.init (num_ports t v) Fun.id)

  let is_open t v = dangling_ports t v <> []

  let num_dangling t =
    List.fold_left (fun acc v -> acc + List.length (dangling_ports t v)) 0 (explored t)

  let min_open_depth t =
    List.fold_left
      (fun acc v ->
        if is_open t v then
          match acc with
          | None -> Some (depth t v)
          | Some d -> Some (min d (depth t v))
        else acc)
      None (explored t)

  let open_at t d =
    List.filter (fun v -> is_open t v && depth t v = d) (explored t)

  let max_depth t = List.fold_left (fun acc v -> max acc (depth t v)) 0 (explored t)

  (* Explored nodes whose subtree holds a dangling edge: every open node
     and all its ancestors. One parent table per call keeps this cheap
     enough to run after every step of a deep sequence. *)
  let open_subtrees t =
    let parent = Hashtbl.create 64 and np = Hashtbl.create 64 in
    List.iter
      (fun (v, n, p) ->
        Hashtbl.replace np v n;
        Option.iter (Hashtbl.replace parent v) p)
      t.revealed;
    let resolved = Hashtbl.create 64 in
    List.iter (fun (v, p, _) -> Hashtbl.replace resolved (v, p) ()) t.resolved;
    let marked = Hashtbl.create 64 in
    let rec mark v =
      if not (Hashtbl.mem marked v) then begin
        Hashtbl.replace marked v ();
        Option.iter mark (Hashtbl.find_opt parent v)
      end
    in
    Hashtbl.iter
      (fun v n ->
        let first = if v = t.root then 0 else 1 in
        let dangling = ref false in
        for p = first to n - 1 do
          if not (Hashtbl.mem resolved (v, p)) then dangling := true
        done;
        if !dangling then mark v)
      np;
    marked
end

(* ---- step-by-step comparison ---- *)

let compare_subtree_open pt rt =
  let marked = Ref_tree.open_subtrees rt in
  List.iter
    (fun (v, _, _) ->
      checkb
        (Printf.sprintf "subtree_open %d" v)
        (Hashtbl.mem marked v)
        (Partial_tree.subtree_open pt v))
    rt.Ref_tree.revealed

let compare_states pt rt =
  Partial_tree.check_invariants pt;
  let expl = Ref_tree.explored rt in
  checki "num_explored" (List.length expl) (Partial_tree.num_explored pt);
  checki "num_dangling" (Ref_tree.num_dangling rt) (Partial_tree.num_dangling pt);
  List.iter
    (fun v ->
      checkb "is_explored" true (Partial_tree.is_explored pt v);
      let np = Ref_tree.num_ports rt v in
      checki "num_ports" np (Partial_tree.num_ports pt v);
      for p = 0 to np - 1 do
        let want = Ref_tree.port rt v p in
        checkb "port state" true (Partial_tree.port pt v p = want);
        checkb "is_port_dangling" (want = Partial_tree.Dangling)
          (Partial_tree.is_port_dangling pt v p);
        checki "port_child_id"
          (match want with Partial_tree.Child c -> c | _ -> -1)
          (Partial_tree.port_child_id pt v p)
      done;
      checki "depth" (Ref_tree.depth rt v) (Partial_tree.depth_of pt v);
      checkb "parent" true (Ref_tree.parent rt v = Partial_tree.parent pt v);
      checki "parent_port" (Ref_tree.parent_port rt v) (Partial_tree.parent_port pt v);
      check_ints "ports_from_root" (Ref_tree.ports_from_root rt v)
        (Partial_tree.ports_from_root pt v);
      checkb "is_open" (Ref_tree.is_open rt v) (Partial_tree.is_open pt v))
    expl;
  compare_subtree_open pt rt;
  checkb "min_open_depth" true
    (Ref_tree.min_open_depth rt = Partial_tree.min_open_depth pt);
  for d = 0 to Ref_tree.max_depth rt + 1 do
    check_ints "open_nodes_at_depth" (Ref_tree.open_at rt d)
      (Partial_tree.open_nodes_at_depth pt d);
    checki "num_open_at_depth"
      (List.length (Ref_tree.open_at rt d))
      (Partial_tree.num_open_at_depth pt d)
  done

(* ---- randomized reveal/resolve traces ---- *)

(* Grow a random tree one node per step: pick a uniformly random dangling
   (node, port), resolve it to a fresh id, reveal the new node with a
   random degree. Exactly the call sequence Env issues during a run. *)
let run_trace ~seed ~steps ~check_every =
  let rng = Rng.create seed in
  let capacity = steps + 1 in
  let pt = Partial_tree.Internal.create ~hidden_n:capacity ~root:0 in
  let rt = Ref_tree.create ~root:0 in
  let root_ports = 1 + Rng.int rng 3 in
  Partial_tree.Internal.reveal pt 0 ~parent:None ~num_ports:root_ports;
  Ref_tree.reveal rt 0 ~parent:None ~num_ports:root_ports;
  compare_states pt rt;
  (* The frontier mirror only drives trace generation; the structures
     under test never see it. *)
  let frontier = ref (List.map (fun p -> (0, p)) (List.init root_ports Fun.id)) in
  let next_id = ref 1 in
  let step s =
    match !frontier with
    | [] -> false
    | fr ->
        let i = Rng.int rng (List.length fr) in
        let v, p = List.nth fr i in
        let c = !next_id in
        incr next_id;
        let np = 1 + Rng.int rng 4 in
        Partial_tree.Internal.resolve_dangling pt v p c;
        Partial_tree.Internal.reveal pt c ~parent:(Some v) ~num_ports:np;
        Ref_tree.resolve rt v p c;
        Ref_tree.reveal rt c ~parent:(Some v) ~num_ports:np;
        frontier :=
          List.filteri (fun j _ -> j <> i) fr
          @ List.map (fun q -> (c, q)) (List.init (np - 1) (fun q -> q + 1));
        if s mod check_every = 0 then compare_states pt rt;
        true
  in
  let s = ref 0 in
  while !s < steps && step !s do
    incr s
  done;
  compare_states pt rt

let test_small_every_step () =
  run_trace ~seed:1 ~steps:60 ~check_every:1;
  run_trace ~seed:2 ~steps:60 ~check_every:1

let test_medium_sampled () =
  run_trace ~seed:3 ~steps:250 ~check_every:7;
  run_trace ~seed:4 ~steps:250 ~check_every:7

let test_chain_heavy () =
  (* Seeded so degree-1 reveals dominate: exercises deep buckets with a
     single open node and the O(depth) ports_from_root walk. *)
  let rng = Rng.create 99 in
  let steps = 120 in
  let pt = Partial_tree.Internal.create ~hidden_n:(steps + 1) ~root:0 in
  let rt = Ref_tree.create ~root:0 in
  Partial_tree.Internal.reveal pt 0 ~parent:None ~num_ports:1;
  Ref_tree.reveal rt 0 ~parent:None ~num_ports:1;
  let tip = ref (0, 0) in
  for c = 1 to steps do
    let v, p = !tip in
    (* Mostly chain links (2 ports: parent + one child), occasional leaf
       burst that closes the path and reopens it elsewhere is skipped to
       keep a single frontier port. *)
    let np = if Rng.int rng 10 = 0 then 3 else 2 in
    Partial_tree.Internal.resolve_dangling pt v p c;
    Partial_tree.Internal.reveal pt c ~parent:(Some v) ~num_ports:np;
    Ref_tree.resolve rt v p c;
    Ref_tree.reveal rt c ~parent:(Some v) ~num_ports:np;
    tip := (c, 1);
    if c mod 10 = 0 then compare_states pt rt
  done;
  compare_states pt rt

(* ---- deep shaped sequences ---- *)

(* Explore a fixed hidden tree by resolving one frontier port per step,
   depth-first ([lifo]: the newest port first, so subtrees close one at a
   time and a closing tooth charges the spine) or in random order. Deep
   shapes make every close cascade over many ancestors; subtree_open and
   the invariants are checked after every step, the full comparison
   (whose reference is cubic in depth) every [full_every] steps, if at
   all. *)
let run_shape ~tree ~lifo ~seed ~full_every =
  let rng = Rng.create seed in
  let module Tree = Bfdn_trees.Tree in
  let root = Tree.root tree in
  let pt = Partial_tree.Internal.create ~hidden_n:(Tree.n tree) ~root in
  let rt = Ref_tree.create ~root in
  let np = Tree.degree tree root in
  Partial_tree.Internal.reveal pt root ~parent:None ~num_ports:np;
  Ref_tree.reveal rt root ~parent:None ~num_ports:np;
  let frontier = ref (List.init np (fun p -> (root, p))) in
  let steps = ref 0 in
  while !frontier <> [] do
    let fr = !frontier in
    let i = if lifo then 0 else Rng.int rng (List.length fr) in
    let v, p = List.nth fr i in
    let c = Tree.neighbor_via_port tree v p in
    let np = Tree.degree tree c in
    Partial_tree.Internal.resolve_dangling pt v p c;
    Partial_tree.Internal.reveal pt c ~parent:(Some v) ~num_ports:np;
    Ref_tree.resolve rt v p c;
    Ref_tree.reveal rt c ~parent:(Some v) ~num_ports:np;
    frontier :=
      List.init (np - 1) (fun q -> (c, q + 1)) @ List.filteri (fun j _ -> j <> i) fr;
    incr steps;
    Partial_tree.check_invariants pt;
    compare_subtree_open pt rt;
    if !steps mod full_every = 0 then compare_states pt rt
  done;
  compare_subtree_open pt rt;
  checkb "root subtree closed" false (Partial_tree.subtree_open pt root)

let test_deep_path () =
  run_shape ~tree:(Bfdn_trees.Tree_gen.path 400) ~lifo:true ~seed:5 ~full_every:max_int

let test_deep_comb () =
  let tree = Bfdn_trees.Tree_gen.comb ~spine:12 ~tooth_len:20 in
  run_shape ~tree ~lifo:true ~seed:6 ~full_every:50;
  run_shape ~tree ~lifo:false ~seed:7 ~full_every:50

(* The counter only supports the Env call order: a non-root reveal must
   follow the resolution of its parent's port. *)
let test_reveal_needs_resolve () =
  let pt = Partial_tree.Internal.create ~hidden_n:4 ~root:0 in
  Partial_tree.Internal.reveal pt 0 ~parent:None ~num_ports:2;
  let rejects f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  checkb "unresolved reveal rejected" true
    (rejects (fun () -> Partial_tree.Internal.reveal pt 1 ~parent:(Some 0) ~num_ports:1));
  Partial_tree.Internal.resolve_dangling pt 0 0 1;
  checkb "reveal under another parent rejected" true
    (rejects (fun () -> Partial_tree.Internal.reveal pt 2 ~parent:(Some 0) ~num_ports:1));
  Partial_tree.Internal.reveal pt 1 ~parent:(Some 0) ~num_ports:1;
  Partial_tree.check_invariants pt;
  checkb "leaf closed" false (Partial_tree.subtree_open pt 1);
  checkb "root still open" true (Partial_tree.subtree_open pt 0)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "diff",
    [
      tc "random traces, checked every step" test_small_every_step;
      tc "random traces, sampled checks" test_medium_sampled;
      tc "chain-heavy trace" test_chain_heavy;
      tc "deep path, subtree_open every step" test_deep_path;
      tc "deep comb, subtree_open every step" test_deep_comb;
      tc "reveal requires a resolved port" test_reveal_needs_resolve;
    ] )
