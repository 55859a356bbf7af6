(* Byte-for-byte goldens for every JSON the toolkit emits: the lint and
   prove audits, the exhaustive campaign, the lint --exhaust agreement
   and the PERF record behind BENCH_*.json. The goldens in golden/ were
   captured before the emitters moved onto the shared JSON writer, so
   any drift in escaping, number formatting or field order fails here.
   On a mismatch the actual output is written next to the test binary
   as NAME.actual for diffing. *)

let golden_dir = "golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Golden files hold the emitted line plus a trailing newline, as
   glitchctl prints it. *)
let check_golden name json =
  let expected = read_file (Filename.concat golden_dir name) in
  let actual = Stats.Json.to_string json ^ "\n" in
  if expected <> actual then write_file (name ^ ".actual") actual;
  Alcotest.(check string) name expected actual

let guard_loop defenses =
  Resistor.Driver.compile defenses Resistor.Firmware.guard_loop

let undefended () = guard_loop Resistor.Config.none

let test_lint () =
  let report =
    Analysis.Lint.run (Analysis.Lint.of_compiled (undefended ()))
  in
  check_golden "lint_guard_loop.json" (Analysis.Lint.to_json report)

let prove (c : Resistor.Driver.compiled) =
  Absint.Prove.run ~config:c.config ~reports:c.reports ~modul:c.modul c.image

let test_prove_undefended () =
  check_golden "prove_guard_loop.json"
    (Absint.Prove.to_json (prove (undefended ())))

let test_prove_defended () =
  check_golden "prove_guard_loop_all_but_delay.json"
    (Absint.Prove.to_json
       (prove
          (guard_loop (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ()))))

let test_exhaust () =
  let spec =
    Exhaust.Campaign.spec_of_image ~name:"guard_loop" (undefended ()).image
  in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 64 }
  in
  check_golden "exhaust_guard_loop_64.json"
    (Exhaust.Campaign.to_json (Exhaust.Campaign.run spec config))

(* What [glitchctl lint --exhaust] joins: the default-config campaign
   over the undefended build, next to its static surface. *)
let test_agreement () =
  let c = undefended () in
  let report = Analysis.Lint.run (Analysis.Lint.of_compiled c) in
  let spec = Exhaust.Campaign.spec_of_image ~name:"guard_loop.c" c.image in
  let config = Exhaust.Campaign.default_config () in
  let result = Exhaust.Campaign.run spec config in
  let baseline, _ = Exhaust.Campaign.baseline spec config in
  check_golden "agreement_guard_loop.json"
    (Exhaust.Agreement.to_json
       (Exhaust.Agreement.of_result ~baseline report.Analysis.Lint.surface
          result))

(* The CLI envelope of [glitchctl lint --exhaust --json]: the two
   goldens above, joined. *)
let glitchctl =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bin")
    "glitchctl.exe"

let run_glitchctl args =
  let out = Filename.temp_file "glitchctl_json" ".out" in
  let code =
    Sys.command
      (Filename.quote_command glitchctl args ~stdout:out ~stderr:Filename.null)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let firmware_file name source =
  let dir = Filename.temp_dir "glitchctl_json" "" in
  let path = Filename.concat dir name in
  write_file path source;
  path

let test_lint_exhaust_cli () =
  let file = firmware_file "guard_loop.c" Resistor.Firmware.guard_loop in
  let code, out =
    run_glitchctl [ "lint"; file; "--exhaust"; "--json"; "--jobs"; "1" ]
  in
  let golden name = String.trim (read_file (Filename.concat golden_dir name)) in
  Alcotest.(check int) "exit code (guard-flippable errors)" 3 code;
  Alcotest.(check string) "envelope"
    (Printf.sprintf {|{"lint":%s,"agreement":%s}|}
       (golden "lint_guard_loop.json")
       (golden "agreement_guard_loop.json")
    ^ "\n")
    out

let test_perf () =
  let p =
    { Stats.Perf.label = "golden";
      jobs = 4;
      items = 1_000_003;
      elapsed_s = 2.5;
      executed = 7_001;
      memoized = 992_002;
      pruned = 31_337;
      static_pruned = 1_024;
      booted_cycles = 123_456;
      replayed_cycles = 654_321;
      wait_s = 0.125;
      utilization = 0.8125 }
  in
  check_golden "perf_record.json" (Stats.Perf.to_json p)

(* --- escaping: every emitter must produce JSON its own parser reads ---- *)

let parse what text =
  match Stats.Json.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s in %s" what e text

(* Follows object fields by name and list elements by index. *)
let rec lookup path (j : Stats.Json.t) =
  match (path, j) with
  | [], _ -> Some j
  | k :: rest, Obj fields -> Option.bind (List.assoc_opt k fields) (lookup rest)
  | k :: rest, List items ->
    Option.bind (List.nth_opt items (int_of_string k)) (lookup rest)
  | _ -> None

let string_at path j = Option.bind (lookup path j) Stats.Json.string_value

(* OCaml escaping ([String.escaped], [%S]) turned this name into
   "gard\195\169.c", which no JSON parser accepts. *)
let test_utf8_file_name () =
  let file = firmware_file "gard\xc3\xa9.c" Resistor.Firmware.guard_loop in
  let code, out =
    run_glitchctl
      [ "exhaust"; file; "--max-trace"; "64"; "--json"; "--jobs"; "1" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check (option string)) "spec" (Some "gard\xc3\xa9.c")
    (string_at [ "spec" ] (parse "exhaust --json" (String.trim out)))

let awkward = "ctl\001\t\"q\"\\\x7f\xc3\xa9"

let test_control_bytes () =
  let round_trip what json path =
    Alcotest.(check (option string)) what (Some awkward)
      (string_at path (parse what (Stats.Json.to_string json)))
  in
  let spec =
    Exhaust.Campaign.spec_of_image ~name:awkward (undefended ()).image
  in
  let r =
    Exhaust.Campaign.run spec
      { (Exhaust.Campaign.default_config ()) with Exhaust.Campaign.max_trace = 8 }
  in
  round_trip "campaign spec" (Exhaust.Campaign.to_json r) [ "spec" ];
  round_trip "campaign row"
    (Exhaust.Campaign.to_json
       { r with
         rows =
           List.map
             (fun (row : Exhaust.Campaign.row) -> { row with fname = awkward })
             r.rows })
    [ "rows"; "0"; "fname" ];
  round_trip "agreement disagreement"
    (Exhaust.Agreement.to_json
       { Exhaust.Agreement.rows = []; weighted = false; concordance = 0.;
         concordance_unweighted = 0.; disagreements = [ awkward ] })
    [ "disagreements"; "0" ];
  round_trip "lint diag"
    (Analysis.Lint.diag_to_json
       { Analysis.Lint.rule = "r"; severity = Analysis.Lint.Error;
         func = awkward; addr = 0; message = "m" })
    [ "func" ];
  let (), perf = Stats.Perf.time ~label:awkward ~jobs:1 ~items:1 ignore in
  round_trip "perf label" (Stats.Perf.to_json perf) [ "label" ]

let () =
  Alcotest.run "json"
    [ ( "golden",
        [ Alcotest.test_case "lint guard_loop" `Quick test_lint;
          Alcotest.test_case "prove guard_loop" `Quick test_prove_undefended;
          Alcotest.test_case "prove guard_loop all-but-delay" `Quick
            test_prove_defended;
          Alcotest.test_case "exhaust guard_loop max-trace 64" `Quick
            test_exhaust;
          Alcotest.test_case "lint --exhaust agreement" `Quick test_agreement;
          Alcotest.test_case "lint --exhaust --json envelope" `Quick
            test_lint_exhaust_cli;
          Alcotest.test_case "perf record" `Quick test_perf ] );
      ( "escaping",
        [ Alcotest.test_case "exhaust --json on a UTF-8 file name" `Quick
            test_utf8_file_name;
          Alcotest.test_case "control bytes in names and labels" `Quick
            test_control_bytes ] ) ]
