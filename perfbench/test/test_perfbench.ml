(* Tests for the benchmark's checker, request stream, percentile and
   steady-time helpers and span accounting. None of them runs a sweep. *)

open Perfbench

(* --- the checker: negative controls ------------------------------------ *)

let pinned_exhaust () : Exhaust.Campaign.result =
  { spec_name = "guard_loop";
    mode = Exhaust.Campaign.Transient;
    trace_steps = 2048;
    baseline_stop = None;
    settle = 2048;
    cycle_lo = 0;
    cycle_hi = 2048;
    points = Check.exhaust_points;
    faulted = Check.exhaust_faulted;
    pruned = Check.exhaust_pruned;
    executed = Check.exhaust_executed;
    static_pruned = 0;
    states = Check.exhaust_states;
    rows =
      List.mapi
        (fun i (fname, c) ->
          { Exhaust.Campaign.fname; faddr = i; counts = Check.verdict_counts c })
        Check.exhaust_rows;
    totals = Check.verdict_counts Check.exhaust_totals;
    verdicts = None }

(* Move one count between two verdicts: every sum stays the same. *)
let moved counts =
  let c = Array.copy counts in
  c.(0) <- c.(0) - 1;
  c.(1) <- c.(1) + 1;
  c

let exhaust_pinned_passes () =
  Alcotest.(check (option string)) "pinned" None (Check.exhaust_mismatch (pinned_exhaust ()))

let exhaust_moved_count_fails () =
  let r = pinned_exhaust () in
  Alcotest.(check (option string))
    "TOTAL row" (Some "totals")
    (Check.exhaust_mismatch { r with totals = moved r.totals });
  let rows =
    List.map (fun (row : Exhaust.Campaign.row) -> { row with counts = moved row.counts }) r.rows
  in
  Alcotest.(check (option string)) "function rows" (Some "rows")
    (Check.exhaust_mismatch { r with rows })

let fig2_result () : Glitch_emu.Campaign.result =
  let case = List.hd Glitch_emu.Testcase.all_conditional_branches in
  let config = Glitch_emu.Campaign.default_config Glitch_emu.Fault_model.And in
  { case;
    config;
    by_weight = Array.init 17 (fun w -> Array.init 6 (fun c -> w + c));
    totals = Array.init 6 (fun c -> 100 + c);
    stats = { executed = Check.fig2_executed; memoized = Check.fig2_memoized } }

let fig2_moved_count_fails () =
  let r = fig2_result () in
  let by_weight = Array.map Array.copy r.by_weight in
  by_weight.(3) <- moved by_weight.(3);
  Alcotest.(check int) "same tables" 0 (Check.fig2_pass ~reference:[| r |] [| r |]);
  Alcotest.(check int) "one count moved" 1
    (Check.fig2_pass ~reference:[| r |] [| { r with by_weight } |]);
  Alcotest.(check int) "counter drift" 1
    (Check.fig2_pass ~reference:[| r |]
       [| { r with stats = { executed = 1; memoized = Check.fig2_memoized } } |])

let response ~cache (r : Glitch_emu.Campaign.result) =
  let module J = Service.Json in
  J.to_string
    (J.Obj
       [ ("ok", J.Bool true);
         ("cache", J.String cache);
         ( "totals",
           J.Obj
             (List.map
                (fun c ->
                  ( Glitch_emu.Campaign.category_name c,
                    J.Int r.totals.(Glitch_emu.Campaign.category_index c) ))
                Glitch_emu.Campaign.categories) );
         ( "by_weight",
           J.List
             (Array.to_list
                (Array.map
                   (fun row -> J.List (Array.to_list (Array.map (fun n -> J.Int n) row)))
                   r.by_weight)) ) ])

let serve_moved_count_fails () =
  let r = fig2_result () in
  let line : Stream.line = { text = Stream.request_text 1 0; key = Some 0 } in
  let bad : Stream.line = { text = "{"; key = None } in
  let sessions hit =
    [ ([| line; bad |], [| response ~cache:"miss" r; {|{"ok":false}|} |]);
      ([| line |], [| response ~cache:"hit" hit |]) ]
  in
  Alcotest.(check int) "consistent" 0
    (Check.serve_pass (Check.serve_create ()) (sessions r));
  Alcotest.(check int) "hit with one count moved" 1
    (Check.serve_pass (Check.serve_create ()) (sessions { r with totals = moved r.totals }));
  Alcotest.(check int) "malformed answered ok:true" 1
    (Check.serve_pass (Check.serve_create ())
       [ ([| bad |], [| response ~cache:"miss" r |]) ])

(* --- the request stream --------------------------------------------------- *)

let texts (s1, s2) =
  Array.to_list (Array.map (fun (l : Stream.line) -> l.text) (Array.append s1 s2))

let stream_deterministic () =
  Alcotest.(check (list string)) "same seed" (texts (Stream.generate ~seed:7))
    (texts (Stream.generate ~seed:7));
  Alcotest.(check bool) "different seed" false
    (texts (Stream.generate ~seed:7) = texts (Stream.generate ~seed:8))

let stream_shares () =
  List.iter
    (fun seed ->
      let s1, s2 = Stream.generate ~seed in
      let all = Array.append s1 s2 in
      let n = float_of_int (Array.length all) in
      let malformed = Array.fold_left (fun k (l : Stream.line) -> if l.key = None then k + 1 else k) 0 all in
      let first = Hashtbl.create 128 in
      Array.iter (fun (l : Stream.line) -> Option.iter (fun k -> Hashtbl.replace first k ()) l.key) s1;
      let share k = float_of_int k /. n in
      let in_range lo hi x = lo <= x && x <= hi in
      Alcotest.(check bool) "malformed share in [2%, 4%]" true
        (in_range 0.02 0.04 (share malformed));
      Alcotest.(check bool) "miss share in [4%, 8%]" true
        (in_range 0.04 0.08 (share (Hashtbl.length first)));
      Alcotest.(check int) "every key misses once" (Array.length Stream.keys)
        (Hashtbl.length first);
      Alcotest.(check bool) "session 2 sends only keys session 1 stored" true
        (Array.for_all (fun (l : Stream.line) -> Option.fold ~none:true ~some:(Hashtbl.mem first) l.key) s2))
    [ 1; 2; 3; 42 ]

let malformed_rejected () =
  let svc = Service.create () in
  let s1, s2 = Stream.generate ~seed:5 in
  Array.iter
    (fun (l : Stream.line) ->
      if l.key = None then
        match Check.reply_of_line (Service.handle_line svc l.text) with
        | Some { ok; _ } -> Alcotest.(check bool) l.text false ok
        | None -> Alcotest.fail ("unreadable response to " ^ l.text))
    (Array.append s1 s2)

(* --- percentiles and spans ------------------------------------------------ *)

let samples n = List.init n (fun i -> float_of_int (i + 1))

let percentile_ten_beyond () =
  let check p n expect =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "p%d of %d" p n) expect
      (Pct.percentile ~p (samples n))
  in
  check 50 19 None;
  check 50 20 (Some 10.);
  check 90 99 None;
  check 90 100 (Some 90.);
  check 99 999 None;
  check 99 1000 (Some 990.);
  Alcotest.(check (float 0.)) "median" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ])

(* Ten passes of two operations, slowed by the host except for the
   first operation of pass 3 and the second of pass 5: each operation
   and the rest of the pass take their own fastest time, so the steady
   pass (6 ms) is faster than any pass measured (8 ms at best). *)
let steady_passes () =
  let pass k : Workloads.outcome =
    let op_ns, pass_ns =
      match k with
      | 3 -> ([| 1_000_000; 6_000_000 |], 9_000_000)
      | 5 -> ([| 2_000_000; 3_000_000 |], 8_000_000)
      | _ -> ([| 2_000_000; 6_000_000 |], 12_000_000)
    in
    { items = 6; failed = 0; pass_ns; op_ns }
  in
  let passes = List.init 10 pass in
  let s = Workloads.steady passes in
  Alcotest.(check (array (float 0.))) "operations" [| 1.; 3. |] s.op_ms;
  Alcotest.(check (float 0.)) "rest of the pass" 2. s.rest_ms;
  Alcotest.(check (float 1e-9)) "items/s" 1000. (Workloads.steady_items_per_s passes);
  Alcotest.check_raises "passes differ"
    (Invalid_argument "Workloads.steady: passes differ in operations") (fun () ->
      ignore (Workloads.steady ({ (pass 0) with op_ns = [| 1 |] } :: passes)))

let self_time () =
  let span id name parent start_ns stop_ns : Trace.span =
    { id; name; pass = 1; parent; start_ns; stop_ns }
  in
  Alcotest.(check (list (triple string int int)))
    "parent minus children"
    [ ("glitch_emu", 2, 7); ("pass", 1, 3) ]
    (Trace.self_times
       [ span 0 "pass.fig2" (-1) 0 10;
         span 1 "glitch_emu.run_case" 0 1 5;
         span 2 "glitch_emu.run_case" 0 6 9 ])

let () =
  Alcotest.run "perfbench"
    [ ( "checker",
        [ Alcotest.test_case "exhaust pinned result passes" `Quick exhaust_pinned_passes;
          Alcotest.test_case "exhaust count moved fails" `Quick exhaust_moved_count_fails;
          Alcotest.test_case "fig2 count moved fails" `Quick fig2_moved_count_fails;
          Alcotest.test_case "serve count moved fails" `Quick serve_moved_count_fails ] );
      ( "stream",
        [ Alcotest.test_case "seeded" `Quick stream_deterministic;
          Alcotest.test_case "malformed and miss shares" `Quick stream_shares;
          Alcotest.test_case "malformed lines answered ok:false" `Quick malformed_rejected ] );
      ( "stats",
        [ Alcotest.test_case "ten samples beyond a percentile" `Quick percentile_ten_beyond;
          Alcotest.test_case "steady pass time" `Quick steady_passes;
          Alcotest.test_case "self time" `Quick self_time ] ) ]
