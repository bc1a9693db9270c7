(* Plumbing shared by every workload: clocks, order statistics, the
   output checks, and the report / result-line format. *)

module Json = Bfdn_obs.Json
module Scenario = Bfdn_scenario.Scenario

let now = Bfdn_util.Clock.now
let now_ns = Bfdn_util.Clock.now_ns

(* ---- order statistics ---- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.
let fastest xs = (sorted xs).(0)

(* The highest of the usual percentiles that leaves at least ten samples
   beyond it, as [(p, value, samples_beyond)]; with fewer than eleven
   samples none qualifies and the maximum is returned as p100. The ladder
   stops at p99.9 so that a longer run does not chase a rarer event. *)
let tail xs =
  let n = Array.length xs in
  let beyond p =
    n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))
  in
  match
    List.find_opt
      (fun p -> beyond p >= 10)
      [ 99.9; 99.; 95.; 90.; 75.; 50. ]
  with
  | Some p -> (p, percentile xs p, beyond p)
  | None -> (100., percentile xs 100., 0)

let sum = Array.fold_left ( +. ) 0.

(* Each operation's time on a quiet host: its fastest over the run's
   passes, where [times.(i).(j)] is operation [j] in pass [i]. Other
   tenants of a shared host only ever slow an operation down, and they
   come and go over seconds, so over many passes an operation meets a
   quiet moment; a pass-level figure instead needs every operation of
   one pass to be quiet at once. *)
let quiet_times times =
  Array.init (Array.length times.(0)) (fun j ->
      Array.fold_left (fun acc row -> Float.min acc row.(j)) infinity times)

(* Set-up is timed every time it runs, and [setup_s] is the median of
   all its times in the run. A workload sets up once before its first
   timed operation and once more after every pass, outside the pass's
   timing, so that the figure samples the same stretch of the run as the
   passes do instead of one burst at launch: memory-bound work on a
   shared host runs faster or slower for tens of seconds at a time. *)
let setup_times = ref []

let timed_setup f =
  let t0 = now () in
  let r = f () in
  setup_times := (now () -. t0) :: !setup_times;
  r

(* One more timed set-up whose result [release] disposes of. The heap is
   compacted first, untimed, as it is clean at launch: otherwise set-up
   would pay for collecting the garbage of the pass before it. *)
let setup_again ?(release = ignore) f =
  Gc.compact ();
  release (timed_setup f)

(* ---- output checks ---- *)

(* Operations attempted and failed; a failed operation counts once however
   many of its checks fail. The first failures are kept for the report. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let checks () = { attempted = 0; failed = 0; notes = [] }

let record c = function
  | [] -> c.attempted <- c.attempted + 1
  | problems ->
      c.attempted <- c.attempted + 1;
      c.failed <- c.failed + 1;
      if List.length c.notes < 10 then
        c.notes <- c.notes @ [ String.concat "; " problems ]

let ok_share c =
  if c.attempted = 0 then 0.
  else float_of_int (c.attempted - c.failed) /. float_of_int c.attempted

(* Set from [--corrupt]: the benchmark damages one output on purpose so
   that the self-check can show the output checks catch it. *)
let corrupt = ref ""

(* The checks every exploration outcome must pass: fault-free runs end
   explored with every robot home, fault-tolerant runs end explored, and
   plain bfdn on a tree stays within Theorem 1's
   2n/k + D^2 (min(log k, log Delta) + 3). *)
let outcome_problems (spec : Scenario.t) ~explored ~at_root ~hit_limit ~rounds
    ~n ~depth ~max_degree =
  let p = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> p := s :: !p) fmt in
  let label = Scenario.describe spec in
  if not explored then fail "%s: not explored" label;
  if spec.faults = [] && not at_root then fail "%s: robots not at root" label;
  if hit_limit then fail "%s: hit the round limit" label;
  let tree_world =
    match spec.instance with
    | Scenario.World { world; _ } ->
        List.mem world Bfdn_scenario.World_registry.tree_names
    | Scenario.Adversarial _ -> false
  in
  (if spec.algo = "bfdn" && spec.faults = [] && spec.algo_params = []
      && tree_world then
     let bound = Bfdn.Bounds.bfdn ~n ~k:spec.k ~d:depth ~delta:max_degree in
     if float_of_int rounds > bound then
       fail "%s: %d rounds exceed Theorem 1's %.0f" label rounds bound);
  List.rev !p

let check_outcome spec (o : Scenario.outcome) =
  let r = o.result in
  outcome_problems spec ~explored:r.explored ~at_root:r.at_root
    ~hit_limit:r.hit_round_limit ~rounds:r.rounds ~n:o.n ~depth:o.depth
    ~max_degree:o.max_degree

(* Damage an outcome the way a wrong engine would: a run that claims it
   left the tree unexplored one round later. *)
let damage (o : Scenario.outcome) =
  {
    o with
    result = { o.result with explored = false; rounds = o.result.rounds + 1 };
  }

(* Order-sensitive digest of a list of outcomes, over their canonical wire
   form: equal digests mean byte-identical outcomes in the same order. *)
let digest outcomes =
  let b = Buffer.create 4096 in
  List.iter
    (fun o ->
      Buffer.add_string b (Json.to_string (Scenario.outcome_to_json o));
      Buffer.add_char b '\n')
    outcomes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- the host ---- *)

(* A fixed integer loop that touches no memory, timed as the fastest of
   three tries: about 34 ms on a quiet 2-core x86 container. Printed before
   and after a workload, it shows whether other processes on the host were
   slowing every figure of the run down. *)
let host_probe_ms () =
  let once () =
    let t0 = now () in
    let x = ref 1 in
    for i = 1 to 20_000_000 do
      x := ((!x * 1103515245) + i) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !x);
    1e3 *. (now () -. t0)
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

(* ---- memory ---- *)

(* VmHWM of a process, in MB (the kernel's resident high-water mark). *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Allocation and collection totals of this process; worker domains that
   have terminated are folded into the totals by the runtime. *)
let gc_totals () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* ---- report and result line ---- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let section title = Printf.printf "\n== %s ==\n" title

let line fmt = Printf.printf (fmt ^^ "\n")

(* Every repetition's time, in order, so that a reader can see the spread
   and any drift within the run. *)
let print_passes times =
  line "  pass times: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") times)))

(* [setup_s]: the median of the run's set-up times, which are printed in
   order. *)
let setup_s () =
  let times = Array.of_list (List.rev !setup_times) in
  line "  set-up times: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)));
  median times

let print_metrics ms =
  List.iter (fun x -> line "  %-40s %16.6g %s" x.name x.value x.unit) ms

(* The last line of standard output: one JSON object that callers parse.
   Returns the process exit code: nonzero when any output check failed. *)
let emit_result c metrics =
  if c.notes <> [] then begin
    section "failed output checks";
    List.iter (fun s -> line "  %s" s) c.notes
  end;
  let metric x =
    ( x.name,
      Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]
    )
  in
  let correct = c.failed = 0 && c.attempted > 0 in
  print_string
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int c.attempted);
            ("failed", Json.Int c.failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]));
  print_newline ();
  if correct then 0 else 1

(* What a workload run hands back: its end-to-end metrics (untraced run)
   or its per-layer metrics (traced run), and its output checks. *)
type run_result = {
  e2e : metric list;
  layers : metric list;
  checks : checks;
}

(* ---- the per-layer metrics every traced run reports ---- *)

(* Totals over the traced explorations of one run, normalized per pass
   (one grid pass, one exploration set, or one serve window) when
   reported. [robot_rounds] is the sum of k x rounds. *)
type layers = {
  mutable passes : int;
  mutable finished_ns : int;
  mutable select_ns : int;
  mutable apply_ns : int;
  mutable setup_ns : int;
  mutable rounds : int;
  mutable edge_events : int;
  mutable robot_rounds : int;
  mutable nodes_built : int;
  mutable minor_words : float;
  mutable major_collections : int;
}

let layers () =
  {
    passes = 0;
    finished_ns = 0;
    select_ns = 0;
    apply_ns = 0;
    setup_ns = 0;
    rounds = 0;
    edge_events = 0;
    robot_rounds = 0;
    nodes_built = 0;
    minor_words = 0.;
    major_collections = 0;
  }

(* Account one traced exploration: its wall time and phase split. The
   wall time not covered by the three phases is the scenario's own
   set-up: world build plus environment and algorithm construction. *)
let add_run l ~k ~rounds ~edge_events ~nodes ~wall_ns ~phases_ns =
  l.finished_ns <- l.finished_ns + phases_ns.(0);
  l.select_ns <- l.select_ns + phases_ns.(1);
  l.apply_ns <- l.apply_ns + phases_ns.(2);
  l.setup_ns <- l.setup_ns + (wall_ns - Array.fold_left ( + ) 0 phases_ns);
  l.rounds <- l.rounds + rounds;
  l.edge_events <- l.edge_events + edge_events;
  l.robot_rounds <- l.robot_rounds + (k * rounds);
  l.nodes_built <- l.nodes_built + nodes

(* Run [f] and add its allocation and major collections to [l]. *)
let with_gc l f =
  let w0, c0 = gc_totals () in
  let r = f () in
  let w1, c1 = gc_totals () in
  l.minor_words <- l.minor_words +. (w1 -. w0);
  l.major_collections <- l.major_collections + (c1 - c0);
  r

let layer_metrics l =
  let per_pass x = float_of_int x /. float_of_int (max 1 l.passes) in
  let s ns = per_pass ns /. 1e9 in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let phases = l.finished_ns + l.select_ns + l.apply_ns in
  section "reconciliation: runner phases + scenario set-up = run wall";
  line "  finished %.4f s + select %.4f s + apply %.4f s + set-up %.4f s = %.4f s per pass"
    (s l.finished_ns) (s l.select_ns) (s l.apply_ns) (s l.setup_ns)
    (s (phases + l.setup_ns));
  line "  phases cover %.1f%% of run wall" (100. *. ratio phases (phases + l.setup_ns));
  [
    m "runner.select_s" "s" (s l.select_ns);
    m "runner.apply_s" "s" (s l.apply_ns);
    m "runner.finished_s" "s" (s l.finished_ns);
    m "scenario.setup_s" "s" (s l.setup_ns);
    m "env.apply_ns_per_event" "ns" (ratio l.apply_ns l.edge_events);
    m "algo.select_ns_per_robot_round" "ns" (ratio l.select_ns l.robot_rounds);
    m "runner.rounds" "count" (per_pass l.rounds);
    m "env.edge_events" "count" (per_pass l.edge_events);
    m "world.nodes_built" "count" (per_pass l.nodes_built);
    m "gc.minor_mwords" "Mwords" (l.minor_words /. 1e6 /. float_of_int (max 1 l.passes));
    m "gc.major_collections" "count" (per_pass l.major_collections);
  ]

(* Traced minus untraced time of the same work. *)
let print_overhead ~what ~untraced ~traced =
  section "tracing overhead (traced minus untraced)";
  line "  %s: untraced %.6g s, traced %.6g s, overhead %+.4g s (%+.2f%%)" what
    untraced traced (traced -. untraced)
    (100. *. (traced -. untraced) /. untraced)
