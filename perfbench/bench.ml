(* One workload process of the benchmark (see README.md):

     bench.exe --workload fig2|exhaust|serve --seed N --seconds S
       --trace 0|1 --scratch DIR [--setup-only]

   It sets up, prints "ready", then runs closed-loop passes on a single
   domain for S seconds and prints a report ending in one JSON line.
   With --setup-only it exits right after "ready", so that run.py can
   time launch-to-ready several times. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload fig2|exhaust|serve --seed N --seconds S \
     --trace 0|1 --scratch DIR [--setup-only]";
  exit 2

let args =
  let rec go acc = function
    | "--setup-only" :: rest -> go (("setup-only", "1") :: acc) rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg name = match List.assoc_opt name args with Some v -> v | None -> usage ()

let int_arg name =
  match int_of_string_opt (arg name) with Some n -> n | None -> usage ()

let workload = arg "workload"
let seed = int_arg "seed"
let seconds = int_arg "seconds"
let traced = int_arg "trace" = 1
let scratch = arg "scratch"
let setup_only = List.mem_assoc "setup-only" args

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let runner () =
  match workload with
  | "fig2" -> Workloads.fig2 ~seed
  | "exhaust" -> Workloads.exhaust (Workloads.exhaust_input ())
  | "serve" ->
    let stream = Stream.generate ~seed in
    if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
    Workloads.serve ~scratch stream
  | _ -> usage ()

let items_per_s (o : Workloads.outcome) = float_of_int o.items /. Clock.s o.pass_ns

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let count (o : Workloads.outcome) =
  tally.attempted <- tally.attempted + Array.length o.op_ns;
  tally.failed <- tally.failed + o.failed

(* Passes while the next one (taken to last as long as the previous)
   still fits in [seconds] of measured time, and at least
   [min_passes]. *)
let measure (r : Workloads.runner) ~min_passes =
  let rec go acc spent =
    let next = match acc with o :: _ -> Clock.s o.Workloads.pass_ns | [] -> 0. in
    if List.length acc >= min_passes && spent +. next > float_of_int seconds then List.rev acc
    else
      let o = r.pass () in
      count o;
      Printf.printf "pass %d: %.1f items/s, %d failed\n%!" (List.length acc + 1)
        (items_per_s o) o.failed;
      go (o :: acc) (spent +. Clock.s o.pass_ns)
  in
  go [] 0.

(* Percentile of the steady operation times in ms; when a pass has too
   few operations for the percentile (exhaust's single campaign), the
   slowest operation. *)
let latency ~p outcomes =
  let ms = Array.to_list (Workloads.steady outcomes).op_ms in
  match Pct.percentile ~p ms with Some v -> v | None -> List.fold_left Float.max 0. ms

(* The highest percentile a pass's operations allow: p99 over serve's
   1,700 requests, p80 over fig2's 62 sweeps (the Xor sweeps). *)
let tail_p = match workload with "serve" -> 99 | _ -> 80

let untraced r =
  let outcomes = measure r ~min_passes:(match workload with "fig2" -> 2 | _ -> 3) in
  tally.failed <- tally.failed + r.finish ();
  [ ("items_per_s", Workloads.steady_items_per_s outcomes, "1/s");
    ("latency_p50_ms", latency ~p:50 outcomes, "ms");
    ("latency_tail_ms", latency ~p:tail_p outcomes, "ms");
    ("peak_rss_mb", peak_rss_mb (), "MB") ]

(* The probes, then alternating untraced and traced passes of this
   workload while the next pair still fits in [seconds] (two pairs at
   least). *)
let traced_run r =
  let t0 = Clock.now_ns () in
  Trace.enabled := true;
  let probes, ops, failed = Probes.all ~seed ~scratch in
  tally.attempted <- tally.attempted + ops;
  tally.failed <- tally.failed + failed;
  let first_own = !Trace.pass + 1 in
  let rec go plain traced =
    let pair =
      match (plain, traced) with
      | p :: _, t :: _ -> Clock.s (p.Workloads.pass_ns + t.Workloads.pass_ns)
      | _ -> 0.
    in
    if List.length traced >= 2
       && Clock.s (Clock.now_ns () - t0) +. pair > float_of_int seconds
    then (plain, traced)
    else begin
      Trace.enabled := false;
      let p = r.Workloads.pass () in
      count p;
      Trace.enabled := true;
      incr Trace.pass;
      let t = r.pass () in
      count t;
      go (p :: plain) (t :: traced)
    end
  in
  let plain, traced = go [] [] in
  tally.failed <- tally.failed + r.finish ();
  let plain_ips = Workloads.steady_items_per_s plain
  and traced_ips = Workloads.steady_items_per_s traced in
  let spans = Trace.spans () in
  let probe_spans, own_spans = List.partition (fun (s : Trace.span) -> s.pass < first_own) spans in
  let npasses = float_of_int (List.length traced) in
  Printf.printf "self time per layer, %s traced passes (ms per pass):\n" workload;
  List.iter
    (fun (layer, n, ns) ->
      Printf.printf "  %-22s %10.3f  (%d spans)\n" layer (Clock.ms ns /. npasses) n)
    (Trace.self_times own_spans);
  Printf.printf "tracing: %.1f items/s untraced, %.1f traced\n" plain_ips traced_ips;
  Trace.write (Filename.concat (Filename.dirname scratch) ("spans-" ^ workload ^ ".jsonl")) spans;
  List.map (fun (p : Probes.metric) -> (p.name, p.value, p.unit)) probes
  @ List.map
      (fun (layer, _, ns) -> ("self." ^ layer ^ "_ms", Clock.ms ns, "ms"))
      (Trace.self_times probe_spans)
  @ [ ("trace.traced_over_untraced", traced_ips /. plain_ips, "1");
      ("trace.spans", float_of_int (List.length spans), "count") ]

let () =
  let r = runner () in
  print_endline "ready";
  if setup_only then exit 0;
  let metrics = if traced then traced_run r else untraced r in
  List.iter (fun (name, v, unit) -> Printf.printf "metric %s %.6g %s\n" name v unit) metrics;
  Printf.printf "failed_ratio %d/%d\n" tally.failed tally.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          metrics))
