(* Tests for the stats utilities that every report and bench rides on. *)

let rate_formatting () =
  let s p = Fmt.str "%a" Stats.Rate.pp_pct p in
  Alcotest.(check string) "zero" "0%" (s 0.);
  Alcotest.(check string) "large" "11.35%" (s 11.35);
  Alcotest.(check string) "small" "0.705%" (s 0.705);
  Alcotest.(check string) "tiny" "0.000928%" (s 0.000928);
  Alcotest.(check string) "count+pct" "585 (0.705%)"
    (Fmt.str "%a" Stats.Rate.pp_count_pct (585, 82959))

let rate_pct () =
  Alcotest.(check (float 1e-9)) "simple" 50. (Stats.Rate.pct ~num:1 ~den:2);
  Alcotest.(check (float 1e-9)) "den 0" 0. (Stats.Rate.pct ~num:5 ~den:0)

let perf_cycle_counters () =
  let (), p =
    Stats.Perf.time ~label:"t" ~count:(fun () -> Stats.Perf.items 10) (fun () -> ())
  in
  (* without cycle counters the PERF line stays in its original shape *)
  Alcotest.(check bool) "no cycle keys by default" false
    (String.length (Stats.Perf.machine_line p)
    <> String.length
         (Stats.Perf.machine_line
            { p with Stats.Perf.booted_cycles = 0; replayed_cycles = 0 }));
  Alcotest.(check (float 1e-9)) "replay rate empty" 0. (Stats.Perf.replay_rate p);
  let p = { p with Stats.Perf.booted_cycles = 25; replayed_cycles = 75 } in
  Alcotest.(check (float 1e-9)) "replay rate" 0.75 (Stats.Perf.replay_rate p);
  let line = Stats.Perf.machine_line p in
  let has needle =
    let n = String.length needle and l = String.length line in
    let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "booted in PERF line" true (has "booted_cycles=25");
  Alcotest.(check bool) "replayed in PERF line" true (has "replayed_cycles=75");
  Alcotest.(check bool) "booted in json" true
    (let line = Stats.Json.to_string (Stats.Perf.to_json p) in
     let n = "\"booted_cycles\":25" in
     let rec go i =
       i + String.length n <= String.length line
       && (String.sub line i (String.length n) = n || go (i + 1))
     in
     go 0)

let contains haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec go i = i + n <= l && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let perf_pool_counters () =
  let (), p =
    Stats.Perf.time ~label:"t" ~count:(fun () -> Stats.Perf.items 10) (fun () -> ())
  in
  let p = { p with Stats.Perf.jobs = 4 } in
  (* the default (no pool accounting) keeps the PERF line in its
     original shape *)
  Alcotest.(check bool) "no pool keys by default" false
    (contains (Stats.Perf.machine_line p) "wait_s=");
  let p = { p with Stats.Perf.wait_s = 1.25; utilization = 0.75 } in
  let line = Stats.Perf.machine_line p in
  Alcotest.(check bool) "wait in PERF line" true (contains line "wait_s=1.250");
  Alcotest.(check bool) "utilization in PERF line" true
    (contains line "utilization=0.7500");
  let json = Stats.Json.to_string (Stats.Perf.to_json p) in
  Alcotest.(check bool) "wait in json" true (contains json "\"wait_s\":1.250");
  Alcotest.(check bool) "utilization in json" true
    (contains json "\"utilization\":0.7500")

(* [time ~pool] reads [jobs] from the pool and folds in the accounting of
   exactly the regions its thunk ran: worker 0 sleeps while worker 1
   returns at once, so a region leaves about half the capacity idle. *)
let perf_time_pool () =
  Runtime.Pool.with_pool ~jobs:2 @@ fun pool ->
  let unbalanced () =
    Runtime.Pool.run pool (fun wid -> if wid = 0 then Unix.sleepf 0.05)
  in
  let count () = Stats.Perf.items 1 in
  unbalanced ();
  let (), idle = Stats.Perf.time ~pool ~label:"idle" ~count ignore in
  Alcotest.(check int) "jobs from the pool" 2 idle.jobs;
  Alcotest.(check (float 0.)) "earlier region: no wait" 0. idle.wait_s;
  Alcotest.(check (float 0.)) "earlier region: full utilization" 1.
    idle.utilization;
  let (), busy = Stats.Perf.time ~pool ~label:"busy" ~count unbalanced in
  Alcotest.(check int) "jobs" 2 busy.jobs;
  Alcotest.(check bool) "region wait folded in" true (busy.wait_s > 0.02);
  Alcotest.(check bool) "region utilization folded in" true
    (busy.utilization < 0.9);
  Alcotest.(check bool) "wait in PERF line" true
    (contains (Stats.Perf.machine_line busy) "wait_s=")

let table_layout () =
  let out =
    Stats.Table.render ~header:[ "A"; "Blong"; "C" ]
      [ [ "aaaa"; "b"; "c" ]; [ "x" ] ]
  in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* all rows align: columns padded to widest member *)
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check bool) "rule as wide as header" true
      (String.length rule >= String.length header - 2)
  | _ -> Alcotest.fail "missing lines");
  (* short rows padded, no exception *)
  Alcotest.(check bool) "contains cells" true
    (String.length out > 0)

let () =
  Alcotest.run "stats"
    [ ("rate",
       [ Alcotest.test_case "formatting" `Quick rate_formatting;
         Alcotest.test_case "pct" `Quick rate_pct ]);
      ("perf",
       [ Alcotest.test_case "cycle counters" `Quick perf_cycle_counters;
         Alcotest.test_case "pool counters" `Quick perf_pool_counters;
         Alcotest.test_case "time with a pool" `Quick perf_time_pool ]);
      ("table", [ Alcotest.test_case "layout" `Quick table_layout ]) ]
