(* The [serve] workload: open-loop POST /run in a few windows, each
   against a fresh [explore serve --workers 2] process. Requests are due
   at a fixed rate and go out over at most two connections from this one
   process; each is timed from its due time, so a stall also charges the
   requests queued behind it.

   90% of requests repeat a hot set warmed during set-up (cache hits:
   HTTP, spec parsing and validation, fingerprint, result cache). 10% are
   fresh small specs (misses: admission, the pool queue, Scenario.run and
   the result encoding); their seeds are unique within a run and the same
   in every run, so every run does the same miss work. *)

open Common
module Client = Bfdn_serve.Client
module Param = Bfdn_scenario.Param
module Rng = Bfdn_util.Rng

type scale = {
  rate : float;
  hot : int;
  hot_n : int;
  miss_n : int;
  windows : int;
}

let full = { rate = 300.; hot = 32; hot_n = 1000; miss_n = 2000; windows = 4 }
let tiny = { rate = 100.; hot = 4; hot_n = 200; miss_n = 300; windows = 2 }

(* A request slower than this counts as failed: over ten thousand times
   the quiet p50, far above the half-second stalls seen when the host took
   back a third of the VM's CPU, far below a server that stopped. *)
let latency_limit_s = 5.0

let families = [| "random"; "comb"; "binary" |]

let spec ~family ~algo ~k ~n ~seed =
  Scenario.make ~algo ~k ~seed
    (Scenario.generated ~family ~n ~depth_hint:20)

let hot_specs ~scale ~seed =
  Array.init scale.hot (fun i ->
      spec ~family:families.(i mod 3)
        ~algo:(if i mod 2 = 0 then "bfdn" else "cte")
        ~k:(if i mod 4 < 2 then 8 else 64)
        ~n:scale.hot_n ~seed:((seed * 1000) + i))

let miss_spec ~scale j =
  spec ~family:families.(j mod 3)
    ~algo:(if j / 3 mod 2 = 0 then "bfdn" else "cte")
    ~k:(if j / 6 mod 2 = 0 then 8 else 64)
    ~n:scale.miss_n ~seed:(1_000_000 + j)

(* The request schedule of window [w] of a run. Every tenth request is
   the next fresh miss, numbered on from the previous window's, so misses
   never bunch up by chance and every run offers the same miss work at the
   same times; which hot spec each other request repeats follows the
   seed. *)
type request = { spec : Scenario.t; body : string; hot : int option }

let miss_every = 10

let schedule ~scale ~seed ~w ~count =
  let rng = Rng.create ((seed * 64) + w + 17) in
  let hot = hot_specs ~scale ~seed in
  let first_miss = w * (count / miss_every) in
  Array.init count (fun i ->
      if i mod miss_every = miss_every - 1 then
        let s = miss_spec ~scale (first_miss + (i / miss_every)) in
        { spec = s; body = Scenario.to_string s; hot = None }
      else
        let h = Rng.int rng scale.hot in
        { spec = hot.(h); body = Scenario.to_string hot.(h); hot = Some h })

(* ---- the server process ---- *)

type server = { pid : int; port : int }

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false)

let get ~port path = Client.request ~port ~meth:"GET" ~path ()

let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.01;
        reap ()
    | 0, _ ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

(* Start the server and wait until /healthz answers. *)
let start ~explore ~span_log =
  let port = free_port () in
  let trace_args =
    match span_log with
    | Some f -> [ "--span-log"; f ]
    | None -> [ "--no-trace" ]
  in
  let args =
    [ explore; "serve"; "--host"; "127.0.0.1"; "--port"; string_of_int port;
      "--workers"; "2"; "--quiet" ]
    @ trace_args
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process explore (Array.of_list args) null null null)
  in
  let srv = { pid; port } in
  let deadline = now () +. 20. in
  let rec wait () =
    match get ~port "/healthz" with
    | Ok { Client.status = 200; _ } -> srv
    | _ when now () > deadline ->
        stop srv;
        failwith "explore serve did not answer /healthz"
    | _ -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            Thread.delay 0.001;
            wait ()
        | _ -> failwith "explore serve exited during start-up")
  in
  wait ()

(* The [result] member of a POST /run body, as bytes. *)
let result_bytes body =
  let key = "\"result\":" in
  let kl = String.length key and bl = String.length body in
  let rec find i =
    if i + kl > bl then None
    else if String.sub body i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | Some start when bl > start && body.[bl - 1] = '}' ->
      Some (String.sub body start (bl - 1 - start))
  | _ -> None

let jint j key =
  match Json.member key j with
  | Some (Json.Int i) -> i
  | Some (Json.Float f) -> int_of_float f
  | _ -> -1

let jbool j key = Json.member key j = Some (Json.Bool true)

(* Output checks on a fresh result: the same outcome checks as every
   other workload, on the decoded wire form. *)
let miss_problems spec result =
  match Json.of_string result with
  | Error e -> [ "unparseable result: " ^ e ]
  | Ok j ->
      outcome_problems spec ~explored:(jbool j "explored")
        ~at_root:(jbool j "at_root") ~hit_limit:(jbool j "hit_round_limit")
        ~rounds:(jint j "rounds") ~n:(jint j "n") ~depth:(jint j "depth")
        ~max_degree:(jint j "max_degree")

let post ~port body = Client.request ~port ~body ~meth:"POST" ~path:"/run" ()

(* Set-up: request generation, server start, /healthz, and warming the hot
   set. The warm answers are the reference bytes for every later hit. *)
let setup ~explore ~scale ~seed ~w ~count ~span_log () =
  let reqs = schedule ~scale ~seed ~w ~count in
  let srv = start ~explore ~span_log in
  let hot = hot_specs ~scale ~seed in
  let warm_one s =
    match post ~port:srv.port (Scenario.to_string s) with
    | Ok { Client.status = 200; body; _ } -> (
        match result_bytes body with
        | Some r when miss_problems s r = [] -> r
        | _ -> failwith ("warm-up answer failed its checks: " ^ body))
    | Ok r -> failwith (Printf.sprintf "warm-up answered %d" r.Client.status)
    | Error e -> failwith ("warm-up request failed: " ^ e)
  in
  match Array.map warm_one hot with
  | warm -> (srv, reqs, warm)
  | exception e ->
      stop srv;
      raise e

(* ---- the open-loop generator ---- *)

type sample = {
  mutable due : float;
  mutable sent : float;
  mutable fin : float;
  mutable status : int;
  mutable resp : string;
}

let drive ~port ~rate reqs =
  let n = Array.length reqs in
  let s =
    Array.init n (fun _ -> { due = 0.; sent = 0.; fin = 0.; status = 0; resp = "" })
  in
  let next = Atomic.make 0 in
  let t0 = now () +. 0.02 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let x = s.(i) in
      x.due <- t0 +. (float_of_int i /. rate);
      let wait = x.due -. now () in
      if wait > 0. then Thread.delay wait;
      x.sent <- now ();
      (match post ~port reqs.(i).body with
      | Ok r ->
          x.status <- r.Client.status;
          x.resp <- r.Client.body
      | Error e -> x.resp <- e);
      x.fin <- now ();
      worker ()
    end
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create worker ()));
  s

(* Check every answer; hits must repeat the warm bytes exactly. *)
let check_window c ~reqs ~warm samples =
  let damage_pending = ref (!corrupt = "body") in
  Array.iteri
    (fun i x ->
      let r = reqs.(i) in
      let lat = x.fin -. x.due in
      let problems =
        if x.status <> 200 then
          [ Printf.sprintf "request %d: status %d %s" i x.status x.resp ]
        else if lat > latency_limit_s then
          [ Printf.sprintf "request %d: %.3f s over the latency limit" i lat ]
        else
          match (result_bytes x.resp, r.hot) with
          | None, _ -> [ Printf.sprintf "request %d: no result in %S" i x.resp ]
          | Some got, Some h ->
              let got =
                if !damage_pending then begin
                  damage_pending := false;
                  "[" ^ got
                end
                else got
              in
              if got = warm.(h) then []
              else [ Printf.sprintf "request %d: hit differs from its miss" i ]
          | Some got, None -> miss_problems r.spec got
      in
      record c problems)
    samples

let latencies samples = Array.map (fun x -> x.fin -. x.due) samples

let metrics_json ~port =
  match get ~port "/metrics" with
  | Ok { Client.status = 200; body; _ } -> (
      match Json.of_string body with Ok j -> Some j | Error _ -> None)
  | _ -> None

let counters j =
  let sub key j = Option.value ~default:Json.Null (Json.member key j) in
  let num key j =
    match Json.member key j with
    | Some (Json.Int i) -> float_of_int i
    | Some (Json.Float f) -> f
    | _ -> 0.
  in
  match j with
  | None -> []
  | Some j ->
      let mj = sub "metrics" j and cj = sub "cache" j in
      [
        ("hits", num "hits" cj);
        ("misses", num "misses" cj);
        ("rejected", num "rejected_busy" mj);
        ("request_s", num "sum" (sub "request_s" mj));
        ("minor_words", num "gc_minor_words" mj);
        ("major_collections", num "gc_major_collections" mj);
      ]

let delta before after key =
  Option.value ~default:0. (List.assoc_opt key after)
  -. Option.value ~default:0. (List.assoc_opt key before)

(* ---- the workload ---- *)

(* One window: a fresh server, set up and warmed, takes [count] requests
   and is stopped. Returns the window's schedule, its answers, the
   server's counters around the requests, and the server's peak RSS. *)
type window = {
  reqs : request array;
  samples : sample array;
  before : (string * float) list;
  after : (string * float) list;
  rss : float;
}

let window ~explore ~scale ~seed ~w ~count ~span_log c =
  let srv, reqs, warm =
    timed_setup (setup ~explore ~scale ~seed ~w ~count ~span_log)
  in
  let samples, before, after, rss =
    Fun.protect ~finally:(fun () -> stop srv) (fun () ->
        let before = counters (metrics_json ~port:srv.port) in
        let s = drive ~port:srv.port ~rate:scale.rate reqs in
        let after = counters (metrics_json ~port:srv.port) in
        (s, before, after, peak_rss_mb ~pid:(string_of_int srv.pid) ()))
  in
  check_window c ~reqs ~warm samples;
  { reqs; samples; before; after; rss }

let report_latency samples =
  let lat = latencies samples in
  let late = Array.map (fun x -> x.sent -. x.due) samples in
  let p, tv, beyond = tail lat in
  line "  %d requests at %.0f/s over <= 2 connections" (Array.length samples)
    (float_of_int (Array.length samples)
    /. (samples.(Array.length samples - 1).due -. samples.(0).due));
  line "  latency from due time: p50 %.3f ms, tail p%g %.3f ms (%d samples beyond)"
    (1e3 *. median lat) p (1e3 *. tv) beyond;
  line "  generator lateness p99: %.3f ms" (1e3 *. percentile late 99.);
  (median lat, tv)

(* The measuring time is split into [scale.windows] windows, each against
   a fresh server, and every figure is the median over the windows, so
   that a burst of contention on the host during one window does not set
   the run's figures. Before each window [extra_setups] more servers are
   set up, warmed and stopped, so that [setup_s] is the median of enough
   set-ups to be steady. *)
let extra_setups = 3

let run ~explore ~scale ~seed ~seconds =
  let c = checks () in
  let count =
    int_of_float (scale.rate *. seconds /. float_of_int scale.windows)
  in
  let windows =
    Array.init scale.windows (fun w ->
        for _ = 1 to extra_setups do
          setup_again
            ~release:(fun (s, _, _) -> stop s)
            (setup ~explore ~scale ~seed ~w ~count ~span_log:None)
        done;
        let x = window ~explore ~scale ~seed ~w ~count ~span_log:None c in
        section
          (Printf.sprintf "serve window %d: open-loop POST /run, fresh server, \
                           90%% hits / 10%% misses" (w + 1));
        let p50, tv = report_latency x.samples in
        (* The server's own time answering the window: the request window
           itself is fixed by the schedule and would not show a slower
           server. *)
        let busy = delta x.before x.after "request_s" in
        let answered =
          Array.fold_left
            (fun n r -> if r.status = 200 then n + 1 else n)
            0 x.samples
        in
        line "  server: %.0f cache hits, %.0f misses, %.0f rejected (429); \
              %.3f s summed request time; peak RSS %.1f MB"
          (delta x.before x.after "hits") (delta x.before x.after "misses")
          (delta x.before x.after "rejected") busy x.rss;
        (p50, tv, busy, float_of_int answered, x.rss))
  in
  section "serve: medians over the windows";
  let med f = median (Array.map f windows) in
  let busy = med (fun (_, _, b, _, _) -> b) in
  {
    e2e =
      [
        m "setup_s" "s" (setup_s ());
        m "runs_per_s" "1/s" (med (fun (_, _, _, a, _) -> a) /. busy);
        m "wall_s" "s" busy;
        m "p50_ms" "ms" (1e3 *. med (fun (p, _, _, _, _) -> p));
        m "tail_ms" "ms" (1e3 *. med (fun (_, t, _, _, _) -> t));
        m "peak_rss_mb" "MB" (med (fun (_, _, _, _, r) -> r));
        m "ok_share" "share" (ok_share c);
      ];
    layers = [];
    checks = c;
  }

(* ---- the traced run ---- *)

type span = {
  trace : string;
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  dur_ns : int;
}

let read_spans path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> (
            match Json.of_string l with
            | Ok j ->
                let str k =
                  match Json.member k j with Some (Json.String s) -> s | _ -> ""
                in
                go
                  ({
                     trace = str "trace";
                     id = jint j "span";
                     parent = jint j "parent";
                     name = str "name";
                     start_ns = jint j "start_ns";
                     dur_ns = jint j "dur_ns";
                   }
                  :: acc)
            | Error _ -> go acc)
      in
      go [])

let ms ns = float_of_int ns /. 1e6

let trace ~explore ~scale ~seed ~seconds =
  let c = checks () in
  (* Both windows offer the same schedule, so their latencies compare. *)
  let count = int_of_float (scale.rate *. seconds /. 2.) in
  section "serve, untraced window (--no-trace)";
  let plain = window ~explore ~scale ~seed ~w:0 ~count ~span_log:None c in
  let p50_0, tail_0 = report_latency plain.samples in
  section "serve, traced window (--span-log)";
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let log = Filename.concat dir (Printf.sprintf "spans-%d.jsonl" (Unix.getpid ())) in
  if Sys.file_exists log then Sys.remove log;
  let { reqs; samples; before; after; _ } =
    window ~explore ~scale ~seed ~w:0 ~count ~span_log:(Some log) c
  in
  let p50_1, tail_1 = report_latency samples in
  let spans = read_spans log in
  Sys.remove log;
  (* Span timestamps count from each request's own recorder, so the window
     is told apart by order: the warm-up requests are answered one by one
     before the window opens, so their request spans come first. *)
  let roots = List.filter (fun s -> s.name = "request") spans in
  let warm_traces = Hashtbl.create 64 in
  List.iteri
    (fun i s -> if i < scale.hot then Hashtbl.replace warm_traces s.trace ())
    roots;
  let window_only = List.filter (fun s -> not (Hashtbl.mem warm_traces s.trace)) in
  let roots = window_only roots and spans = window_only spans in
  let by_name name =
    Array.of_list
      (List.filter_map
         (fun s -> if s.name = name then Some (ms s.dur_ns) else None)
         spans)
  in
  (* Client time outside the request span (connect, framing, transfer):
     spans carry no absolute time to pair them with client requests, so
     this is the difference of the two distributions' quantiles. *)
  let service = Array.map (fun x -> 1e3 *. (x.fin -. x.sent)) samples in
  let request = by_name "request" in
  let http_q q = percentile service q -. percentile request q in
  section "reconciliation: child spans of each request vs the request span";
  let by_trace = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.add by_trace s.trace s) spans;
  let children = [ "parse"; "cache_lookup"; "admission"; "queue"; "execute" ] in
  let cover ~miss =
    Array.of_list
      (List.filter_map
         (fun r ->
           let kids =
             List.filter
               (fun s -> s.parent = r.id && List.mem s.name children)
               (Hashtbl.find_all by_trace r.trace)
           in
           if List.exists (fun s -> s.name = "execute") kids <> miss then None
           else
             let covered = List.fold_left (fun acc s -> acc + s.dur_ns) 0 kids in
             Some (float_of_int covered /. float_of_int (max 1 r.dur_ns), r.dur_ns - covered))
         roots)
  in
  List.iter
    (fun (what, miss) ->
      let c = cover ~miss in
      let share = Array.map fst c and rest = Array.map (fun (_, ns) -> ms ns) c in
      line
        "  %-6s %4d requests: %s cover p50 %.1f%% of the request span; the \
         rest (answer write, wake-up) p50 %.3f ms"
        what (Array.length c) (String.concat "+" children) (100. *. median share)
        (median rest))
    [ ("hits", false); ("misses", true) ];
  let layer = layers () in
  layer.passes <- 1;
  let phase name = by_name name |> sum |> fun x -> int_of_float (x *. 1e6) in
  let execute = phase "execute" in
  let fin = phase "phase:finished_check"
  and sel = phase "phase:select"
  and app = phase "phase:apply" in
  Array.iteri
    (fun i x ->
      let r = reqs.(i) in
      if r.hot = None then
        match Option.map Json.of_string (result_bytes x.resp) with
        | Some (Ok j) ->
            add_run layer ~k:r.spec.k ~rounds:(jint j "rounds")
              ~edge_events:(jint j "edge_events") ~nodes:(jint j "n")
              ~wall_ns:0 ~phases_ns:[| 0; 0; 0 |]
        | _ -> ())
    samples;
  layer.finished_ns <- fin;
  layer.select_ns <- sel;
  layer.apply_ns <- app;
  layer.setup_ns <- execute - fin - sel - app;
  layer.minor_words <- delta before after "minor_words";
  layer.major_collections <-
    int_of_float (delta before after "major_collections");
  let lm = layer_metrics layer in
  print_overhead ~what:"p50 latency" ~untraced:p50_0 ~traced:p50_1;
  print_overhead ~what:"tail latency" ~untraced:tail_0 ~traced:tail_1;
  section "serve layers, from the span log (ms)";
  let pair name key =
    let xs = by_name key in
    [
      m (Printf.sprintf "serve.%s_ms.p50" name) "ms" (median xs);
      m (Printf.sprintf "serve.%s_ms.p99" name) "ms" (percentile xs 99.);
    ]
  in
  print_metrics
    (pair "parse" "parse" @ pair "cache_lookup" "cache_lookup"
    @ [
        m "serve.http_ms.p50" "ms" (http_q 50.);
        m "serve.http_ms.p99" "ms" (http_q 99.);
      ]
    @ pair "admission" "admission" @ pair "queue" "queue"
    @ pair "execute" "execute" @ pair "run" "run"
    @ pair "phase_select" "phase:select"
    @ pair "phase_apply" "phase:apply"
    @ [
        m "result_cache.hit_share" "share"
          (delta before after "hits"
          /. Float.max 1. (delta before after "hits" +. delta before after "misses"));
        m "admission.rejected_429" "count" (delta before after "rejected");
      ]);
  { e2e = []; layers = lm; checks = c }
