(* Benchmark program: runs one workload for a fixed measuring time and
   prints a human-readable report followed by one JSON result line.

   bench.exe --workload sweep|batch|deep|serve --seed N --seconds S
             --trace 0|1 [--scale full|tiny] [--corrupt outcome|body]
             [--explore PATH]

   With --trace 0 the result line carries the end-to-end metrics; with
   --trace 1 it carries the per-layer metrics of a separate traced run.
   The exit code is nonzero when any output check failed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and scale = ref "full" and explore = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep, batch, deep or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--scale", Arg.Set_string scale, "full|tiny input size");
      ("--corrupt", Arg.Set_string Common.corrupt, "outcome|body damage one output");
      ("--explore", Arg.Set_string explore, "PATH the explore executable (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let tiny = !scale = "tiny" in
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let probe_before = Common.host_probe_ms () in
  let r =
    match !workload with
    | "sweep" ->
        let scale = if tiny then Sweep.tiny else Sweep.full in
        if traced then Sweep.trace_sweep ~scale ~seed ~seconds
        else Sweep.run_sweep ~scale ~seed ~seconds
    | "batch" ->
        let scale = if tiny then Sweep.tiny else Sweep.batch_full in
        if traced then Sweep.trace_batch ~scale ~seed ~seconds
        else Sweep.run_batch ~scale ~seed ~seconds
    | "deep" ->
        let worlds = if tiny then Deep.tiny else Deep.full in
        if traced then Deep.trace ~worlds ~seed ~seconds
        else Deep.run ~worlds ~seed ~seconds
    | "serve" ->
        let scale = if tiny then Serve_load.tiny else Serve_load.full in
        if !explore = "" then begin
          prerr_endline "serve needs --explore PATH";
          exit 2
        end;
        if traced then Serve_load.trace ~explore:!explore ~scale ~seed ~seconds
        else Serve_load.run ~explore:!explore ~scale ~seed ~seconds
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  let metrics = if traced then r.Common.layers else r.e2e in
  Common.section "host";
  Common.line "  integer loop before %.2f ms, after %.2f ms" probe_before
    (Common.host_probe_ms ());
  Common.section "metrics";
  Common.print_metrics metrics;
  exit (Common.emit_result r.checks metrics)
