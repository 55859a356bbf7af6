(* Regenerates every table and figure of "Glitching Demystified"
   (DSN 2021) on the simulated substrate, plus Bechamel micro-benchmarks
   of the harness itself.

     dune exec bench/main.exe                 -- every experiment "all" runs
     dune exec bench/main.exe -- fig2         -- one experiment
     dune exec bench/main.exe -- table6 --quick
     dune exec bench/main.exe -- fig2 --jobs 4
     dune exec bench/main.exe -- fig2 --cache-dir .glitch-cache
     dune exec bench/main.exe -- scaling      -- jobs ladder, BENCH_6.json

   --jobs N fans the campaign sweeps out over N domains (default: the
   machine's recommended domain count clamped to the work available;
   results are bit-identical at any N). --cache-dir DIR serves fig2's
   sweeps through the persistent result cache (a warm cache executes
   zero sweep cases). Sweep experiments also emit a machine-readable
   "PERF ..." line for the bench trajectory.

   Expected paper values are printed next to measured ones; see
   EXPERIMENTS.md for the discussion of each comparison. *)

let section title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "============================================================@."

let paper_note fmt = Fmt.pr ("  [paper] " ^^ fmt ^^ "@.")

(* Every PERF record emitted during the run, newest last; dumped as a
   machine-readable BENCH_<n>.json at exit for the bench trajectory. *)
let perf_log : Stats.Perf.t list ref = ref []

(* Append a PERF record to [log] and print it, human-readable and as
   the machine line. *)
let emit_to log perf =
  log := !log @ [ perf ];
  Fmt.pr "@.%a@.%s@." Stats.Perf.pp perf (Stats.Perf.machine_line perf)

let emit_perf = emit_to perf_log

(* One record per line: CI counts records with [grep -c]. *)
let write_json path records =
  match records with
  | [] -> ()
  | records ->
    let lines =
      List.map (fun r -> Stats.Json.to_string (Stats.Perf.to_json r)) records
    in
    let oc = open_out path in
    output_string oc ("[\n  " ^ String.concat ",\n  " lines ^ "\n]\n");
    close_out oc;
    Fmt.pr "@.Wrote %s (%d record%s)@." path (List.length records)
      (if List.length records = 1 then "" else "s")

(* Run an experiment that owns a BENCH_<n>.json: [f] gets the emitter
   for its PERF records, which land in [path] once [f] returns. *)
let with_bench_json path f =
  let records = ref [] in
  f (emit_to records);
  write_json path !records

(* The jobs ladder behind tables, scaling, exhaust and absint: run
   [leg] once per job count, each on a fresh pool (1 is the sequential
   path), hand the first leg's result to [first] before the later legs
   run, and report whether every later leg is [same] as the first. *)
let jobs_ladder ?(first = ignore) ~same ladder leg =
  let base = Runtime.Pool.with_jobs (List.hd ladder) leg in
  first base;
  let legs =
    List.map (fun jobs -> Runtime.Pool.with_jobs jobs leg) (List.tl ladder)
  in
  (base, List.for_all (same base) legs)

(* --- Figure 2: glitching effects in emulation ----------------------------- *)

(* The Figure 2 workload, 62 sweeps of 2^16 masks: four fault-model
   configs (title, summary label, config) over the 14 conditional
   branches, then the And/Or skip supplement over the 3 non-branch
   cases. *)
let fig2_configs =
  let open Glitch_emu in
  [ ("(a) AND model (1 -> 0 flips)", "AND",
     Campaign.default_config Fault_model.And);
    ("(b) OR model (0 -> 1 flips)", "OR", Campaign.default_config Fault_model.Or);
    ( "(c) AND model, 0x0000 decoded as invalid", "AND(0 invalid)",
      { (Campaign.default_config Fault_model.And) with zero_is_invalid = true } );
    ( "(supplement) XOR model (bidirectional flips)", "XOR",
      Campaign.default_config Fault_model.Xor ) ]

(* Run the workload through [run_case], in a fixed order so runs
   compare bit for bit: one result list per config, then an [And; Or]
   pair per non-branch case. *)
let fig2_workload run_case =
  let open Glitch_emu in
  ( List.map
      (fun (_, _, config) ->
        List.map (run_case config) Testcase.all_conditional_branches)
      fig2_configs,
    List.map
      (fun case ->
        List.map
          (fun flip -> run_case (Campaign.default_config flip) case)
          Fault_model.[ And; Or ])
      Testcase.non_branch_cases )

let fig2_results (branches, supplement) =
  List.concat branches @ List.concat supplement

let fig2 ?pool ?cache () =
  section "Figure 2 - bit-flip effects on ARM Thumb conditional branches";
  (* With --cache-dir every sweep is served through the audit service:
     intact cache entries come back with zero executed cases. *)
  let svc = Option.map (fun cache -> Service.create ?pool ~cache ()) cache in
  let hits = ref 0 and warms = ref 0 and misses = ref 0 in
  let run_case config case =
    match svc with
    | None -> Glitch_emu.Campaign.run_case ?pool config case
    | Some svc ->
      let r, status = Service.run_case svc config case in
      (match status with
      | Service.Hit -> incr hits
      | Service.Warm -> incr warms
      | Service.Miss -> incr misses);
      r
  in
  let (branches, supplement), perf =
    Stats.Perf.time ?pool ~label:"fig2"
      ~count:(fun w -> Glitch_emu.Campaign.count (fig2_results w))
      (fun () -> fig2_workload run_case)
  in
  let rates =
    List.map2
      (fun (title, label, _) results ->
        Fmt.pr "@.--- %s ---@." title;
        print_string (Glitch_emu.Report.outcome_table results);
        Fmt.pr "@.Success rate by number of flipped bits:@.";
        print_string (Glitch_emu.Report.success_by_weight_table results);
        Fmt.pr "%s@." (Glitch_emu.Report.summary_line results);
        Fmt.str "%s %.1f%%" label (Glitch_emu.Report.mean_success_rate results))
      fig2_configs branches
  in
  Fmt.pr "@.Summary: %s@." (String.concat "  " rates);
  Fmt.pr "@.Supplement: skip rates for non-branch instructions (the \"skip@.";
  Fmt.pr "every defensive instruction\" limit case):@.";
  Stats.Table.print ~header:[ "Instr"; "AND skip %"; "OR skip %" ]
    (List.map2
       (fun (case : Glitch_emu.Testcase.t) results ->
         case.name
         :: List.map
              (fun r ->
                Fmt.str "%.1f"
                  (Glitch_emu.Campaign.category_percent r
                     Glitch_emu.Campaign.Success))
              results)
       Glitch_emu.Testcase.non_branch_cases supplement);
  emit_perf perf;
  if Option.is_some svc then
    Fmt.pr "cache: %d hit, %d warm, %d miss (%d case(s) executed)@." !hits
      !warms !misses perf.executed;
  paper_note "branches skipped >60%% when flipping to 0, <30%% when flipping to 1;";
  paper_note "making 0x0000 invalid left the success rate 'effectively unchanged'."

(* --- Cross-ISA fault tolerance (extension) --------------------------------- *)

let fig2x ?pool () =
  section "Cross-ISA encoding fault tolerance: Thumb-16 vs RV32I (extension)";
  Fmt.pr
    "The paper hypothesises that ISA changes (e.g. an invalid all-zero@.";
  Fmt.pr
    "word) 'could pay large dividends' but cannot test them without@.";
  Fmt.pr "fabricating silicon. In emulation we can: the same campaign, run@.";
  Fmt.pr "over RISC-V's 32-bit encoding (all-zero/all-one words illegal by@.";
  Fmt.pr "construction, weights sampled at 600 masks each unless the@.";
  Fmt.pr "whole population C(32,k) fits the budget, which is enumerated).@.@.";
  let thumb_rates flip =
    let results =
      Glitch_emu.Campaign.run_all ?pool
        (Glitch_emu.Campaign.default_config flip)
        Glitch_emu.Testcase.all_conditional_branches
    in
    (Glitch_emu.Report.mean_success_rate results,
     List.fold_left
       (fun acc r ->
         acc
         +. Glitch_emu.Campaign.category_percent r
              Glitch_emu.Campaign.Invalid_instruction)
       0. results
     /. float_of_int (List.length results))
  in
  let riscv_rates flip =
    let results =
      List.map
        (Riscv.Campaign.run_case (Riscv.Campaign.default_config flip))
        Riscv.Campaign.all_conditional_branches
    in
    let n = float_of_int (List.length results) in
    ( List.fold_left (fun acc r -> acc +. Riscv.Campaign.success_percent r) 0. results
      /. n,
      List.fold_left
        (fun acc r ->
          acc
          +. Riscv.Campaign.category_percent r
               Glitch_emu.Campaign.Invalid_instruction)
        0. results
      /. n )
  in
  Stats.Table.print
    ~header:
      [ "Fault model"; "Thumb skip %"; "Thumb invalid %"; "RV32I skip %";
        "RV32I invalid %" ]
    (List.map
       (fun flip ->
         let ts, ti = thumb_rates flip in
         let rs, ri = riscv_rates flip in
         [ Glitch_emu.Fault_model.name flip; Fmt.str "%.1f" ts;
           Fmt.str "%.1f" ti; Fmt.str "%.1f" rs; Fmt.str "%.1f" ri ])
       Glitch_emu.Fault_model.all);
  Fmt.pr
    "@.The dense 32-bit encoding turns ~3/4 of corruptions into illegal@.";
  Fmt.pr
    "instructions, cutting branch-skip rates by roughly an order of@.";
  Fmt.pr "magnitude - the paper's ISA-hardening hypothesis, confirmed.@."

(* --- Table I: single glitches per clock cycle ------------------------------ *)

let instruction_listing guard =
  match (guard : Hw.Attack.guard) with
  | Hw.Attack.While_not_a | Hw.Attack.While_a ->
    [| "MOV R3, SP"; "ADDS R3, #7"; "LDRB R3, [R3]"; "  (LDRB cont.)";
       "CMP R3, #0"; "B<cc> .loop"; "  (branch cont.)"; "  (branch cont.)" |]
  | Hw.Attack.While_ne_const ->
    [| "LDR R2, [SP, #16]"; "  (LDR cont.)"; "LDR R3, =0xD3B9AEC6";
       "  (LDR cont.)"; "CMP R2, R3"; "B<cc> .loop"; "  (branch cont.)";
       "  (branch cont.)" |]

(* Time one hardware table over every guard: the PERF counters sum the
   per-guard [sweep]s. *)
let time_guards ?pool ~label sweep run =
  Stats.Perf.time ?pool ~label
    ~count:(fun results ->
      Hw.Attack.count
        (List.fold_left
           (fun acc (_, t) -> Hw.Attack.sweep_add acc (sweep t))
           Hw.Attack.sweep_zero results))
    (fun () -> List.map (fun guard -> (guard, run guard)) Hw.Attack.all_guards)

let table1 ?pool () =
  section "Table I - successful single glitches per clock cycle";
  let results, perf =
    time_guards ?pool ~label:"table1"
      (fun t -> t.Hw.Attack.sweep1)
      (Hw.Attack.run_table1 ?pool)
  in
  List.iter
    (fun (guard, (t : Hw.Attack.table1)) ->
      let listing = instruction_listing guard in
      Fmt.pr "@.--- %s (comparator r%d) ---@."
        (Hw.Attack.guard_name guard)
        (Hw.Attack.comparator guard);
      let total = ref 0 in
      let values_seen = Hashtbl.create 32 in
      let rows =
        Array.to_list
          (Array.mapi
             (fun cycle (c : Hw.Attack.cycle_stats) ->
               total := !total + c.successes;
               List.iter (fun (v, _) -> Hashtbl.replace values_seen v ()) c.values;
               let top =
                 c.values
                 |> List.filteri (fun i _ -> i < 4)
                 |> List.map (fun (v, n) -> Fmt.str "0x%X x%d" v n)
                 |> String.concat "  "
               in
               [ string_of_int cycle; listing.(cycle);
                 string_of_int c.successes; top ])
             t.per_cycle)
      in
      Stats.Table.print
        ~header:[ "Cycle"; "Instruction"; "Successes"; "Comparator values" ]
        rows;
      Fmt.pr "Total: %a, %d unique comparator values@."
        Stats.Rate.pp_count_pct
        (!total, 8 * t.attempts_per_cycle)
        (Hashtbl.length values_seen))
    results;
  emit_perf perf;
  paper_note "totals 0.705%% / 0.347%% / 0.449%%; while(!a) ~2x while(a);";
  paper_note "comparator residues included SP (0x20003FE8) and GPIO mixes."

(* --- Table II: multi-glitch ------------------------------------------------- *)

let table2 ?pool () =
  section "Table II - partial vs full multi-glitch (two back-to-back loops)";
  let rows, perf =
    time_guards ?pool ~label:"table2"
      (fun t -> t.Hw.Attack.sweep2)
      (Hw.Attack.run_table2 ?pool)
  in
  Stats.Table.print
    ~header:
      [ "Cycle"; "!a partial"; "!a full"; "a partial"; "a full"; "ne partial";
        "ne full" ]
    (List.init Hw.Attack.loop_cycles (fun cycle ->
         string_of_int cycle
         :: List.concat_map
              (fun (_, (t : Hw.Attack.table2)) ->
                [ string_of_int t.partial.(cycle); string_of_int t.full.(cycle) ])
              rows));
  List.iter
    (fun (guard, (t : Hw.Attack.table2)) ->
      let p = Array.fold_left ( + ) 0 t.partial in
      let f = Array.fold_left ( + ) 0 t.full in
      Fmt.pr "%s: partial %a  full %a  (x%.1f harder)@."
        (Hw.Attack.guard_name guard) Stats.Rate.pp_count_pct (p, t.attempts2)
        Stats.Rate.pp_count_pct (f, t.attempts2)
        (if f = 0 then Float.infinity else float_of_int p /. float_of_int f))
    rows;
  emit_perf perf;
  paper_note "partial 1.330%% / 0.420%% / 0.413%%, full 0.494%% / 0.068%% / 0.258%%;";
  paper_note "multi-glitch 6x / 3x / 1.6x harder than a single glitch."

(* --- Table III: long glitches ------------------------------------------------ *)

let table3 ?pool () =
  section "Table III - long glitches (10-20 contiguous cycles)";
  let results, perf =
    time_guards ?pool ~label:"table3"
      (fun t -> t.Hw.Attack.sweep3)
      (Hw.Attack.run_table3 ?pool)
  in
  Stats.Table.print
    ~header:[ "Cycles"; "while(!a)"; "while(a)"; "while(a!=0xD3B9AEC6)" ]
    (List.map
       (fun last ->
         Fmt.str "0-%d" last
         :: List.map
              (fun (_, (t : Hw.Attack.table3)) ->
                string_of_int (List.assoc last t.windows))
              results)
       [ 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20 ]);
  List.iter
    (fun (guard, (t : Hw.Attack.table3)) ->
      let total = List.fold_left (fun acc (_, s) -> acc + s) 0 t.windows in
      Fmt.pr "%s: total %a@." (Hw.Attack.guard_name guard)
        Stats.Rate.pp_count_pct
        (total, t.sweep3.attempts))
    results;
  emit_perf perf;
  paper_note "totals 0.101%% / 0.730%% / 0.0992%%: long glitches help while(a)";
  paper_note "most (aborted loads read zero) and barely help the others."

(* --- tables: sweep-kernel timings for the bench trajectory ------------------- *)

(* Times the three hardware-table sweeps for one guard, sequentially and
   (when --jobs N > 1) in parallel, and writes the PERF records to
   BENCH_3.json. The booted/replayed cycle counters quantify how much
   emulation the snapshot-replay kernel avoids; the parallel leg is
   checked bit-identical to the sequential one. *)
let tables ~jobs () =
  section "tables - Table I-III sweep kernel (writes BENCH_3.json)";
  let guard = Hw.Attack.While_not_a in
  with_bench_json "BENCH_3.json" @@ fun emit ->
  let leg pool =
    let name =
      match pool with
      | None -> "seq"
      | Some p -> Fmt.str "par%d" (Runtime.Pool.jobs p)
    in
    let time table sweep run =
      let t, perf =
        Stats.Perf.time ?pool
          ~label:(Fmt.str "tables-%s-%s" table name)
          ~count:(fun t -> Hw.Attack.count (sweep t))
          run
      in
      emit perf;
      t
    in
    let t1 =
      time "t1" (fun t -> t.Hw.Attack.sweep1) (fun () ->
          Hw.Attack.run_table1 ?pool guard)
    in
    let t2 =
      time "t2" (fun t -> t.Hw.Attack.sweep2) (fun () ->
          Hw.Attack.run_table2 ?pool guard)
    in
    let t3 =
      time "t3" (fun t -> t.Hw.Attack.sweep3) (fun () ->
          Hw.Attack.run_table3 ?pool guard)
    in
    (t1, t2, t3)
  in
  let _, identical =
    jobs_ladder
      ~same:(fun (s1, s2, s3) (q1, q2, q3) ->
        s1.Hw.Attack.per_cycle = q1.Hw.Attack.per_cycle
        && s2.Hw.Attack.partial = q2.Hw.Attack.partial
        && s2.Hw.Attack.full = q2.Hw.Attack.full
        && s3.Hw.Attack.windows = q3.Hw.Attack.windows)
      (if jobs > 1 then [ 1; jobs ] else [ 1 ])
      leg
  in
  if jobs > 1 then
    if identical then
      Fmt.pr "@.parallel (%d jobs) == sequential: tables bit-identical@." jobs
    else Fmt.pr "@.WARNING: parallel tables diverge from the sequential run@."

(* --- scaling: the fig2 sweep kernel across a jobs ladder ---------------------- *)

(* Runs the fig2 workload at --jobs 1, 2, 4 and 8 (a fresh pool per
   leg), checks every leg's tables bit-identical to the sequential one,
   and writes all four PERF rows to BENCH_6.json. With the shared memo
   store the executed counter must NOT grow with the job count — that
   counter parity, not wall-clock on a core-starved CI container, is
   the evidence that the old duplicated-execution inversion is gone. *)
let scaling () =
  section "scaling - fig2 sweep kernel at --jobs 1,2,4,8 (writes BENCH_6.json)";
  with_bench_json "BENCH_6.json" @@ fun emit ->
  let leg pool =
    let results, perf =
      Stats.Perf.time ?pool ~label:"fig2" ~count:Glitch_emu.Campaign.count
        (fun () ->
          fig2_results (fig2_workload (Glitch_emu.Campaign.run_case ?pool)))
    in
    emit perf;
    results
  in
  let _, identical =
    jobs_ladder
      ~same:
        (List.for_all2
           (fun (a : Glitch_emu.Campaign.result)
                (b : Glitch_emu.Campaign.result) ->
             a.by_weight = b.by_weight && a.totals = b.totals))
      [ 1; 2; 4; 8 ] leg
  in
  if identical then
    Fmt.pr "@.tables bit-identical across --jobs 1, 2, 4, 8@."
  else Fmt.pr "@.WARNING: tables diverge across job counts@."

(* --- exhaust: trace-wide campaign across a jobs ladder ------------------------- *)

(* Time one exhaustive campaign on [pool], emit its PERF record, and
   return the result. *)
let exhaust_leg emit ~label spec config pool =
  let result, perf =
    Stats.Perf.time ?pool ~label ~count:Exhaust.Campaign.count (fun () ->
        Exhaust.Campaign.run ?pool spec config)
  in
  emit perf;
  result

(* The whole-image exhaustive injector on the undefended guard-loop
   firmware at --jobs 1, 2, 4, 8 (a fresh pool per leg). Every leg's
   per-function verdict tables are checked bit-identical to the
   sequential one — the pruning all flows through one shared state map,
   so the only schedule-dependent number is the pruned/executed split
   (two workers racing a cold state both execute it). The PERF rows,
   with the pruned counters, land in BENCH_7.json. *)
let exhaust_bench () =
  section
    "exhaust - trace-wide fault campaign at --jobs 1,2,4,8 (writes BENCH_7.json)";
  let compiled =
    Resistor.Driver.compile Resistor.Config.none Resistor.Firmware.guard_loop
  in
  let spec = Exhaust.Campaign.spec_of_image ~name:"guard_loop" compiled.image in
  with_bench_json "BENCH_7.json" @@ fun emit ->
  let _, identical =
    jobs_ladder
      ~first:(fun (base : Exhaust.Campaign.result) ->
        Fmt.pr
          "@.%d injection points over %d cycles: %d faulted at the injected \
           step,@."
          base.points base.trace_steps base.faulted;
        Fmt.pr
          "%d continuations executed, %d pruned (%.1f%% shared), %d distinct \
           states@."
          base.executed base.pruned
          (100. *. Exhaust.Campaign.prune_rate base)
          base.states)
      ~same:(fun (base : Exhaust.Campaign.result) r ->
        r.rows = base.rows && r.totals = base.totals && r.points = base.points
        && r.faulted = base.faulted && r.states = base.states)
      [ 1; 2; 4; 8 ]
      (exhaust_leg emit ~label:"exhaust" spec
         (Exhaust.Campaign.default_config ()))
  in
  if identical then
    Fmt.pr "@.verdict tables bit-identical across --jobs 1, 2, 4, 8@."
  else Fmt.pr "@.WARNING: verdict tables diverge across job counts@."

(* --- absint: static pre-pruner + fault-flow prover ----------------------------- *)

(* The abstract-interpretation layer end to end: the static pre-pruner
   share of the guard-loop exhaust workload (with a jobs-1/4 parity
   check — the statically proven verdicts are computed before any
   worker runs, so the split is deterministic), the same floor on the
   fig2 conditional-branch workload the issue names, the fault-flow
   prover's wall time on the defended and undefended builds, and the
   reachability-weighted agreement concordance next to the unweighted
   one. PERF rows land in BENCH_9.json. *)
let absint_bench () =
  section
    "absint - static pre-pruner + fault-flow prover (writes BENCH_9.json)";
  with_bench_json "BENCH_9.json" @@ fun emit ->
  (* static pre-pruner on the guard-loop exhaust workload *)
  let compiled =
    Resistor.Driver.compile Resistor.Config.none Resistor.Firmware.guard_loop
  in
  let spec = Exhaust.Campaign.spec_of_image ~name:"guard_loop" compiled.image in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 256;
      settle_steps = Some 64;
      static_prune = true }
  in
  let plain =
    exhaust_leg emit ~label:"absint-off" spec
      { config with Exhaust.Campaign.static_prune = false }
      None
  in
  let seq, identical =
    jobs_ladder
      ~same:(fun (seq : Exhaust.Campaign.result) par ->
        seq.rows = par.rows && seq.totals = par.totals
        && seq.verdicts = par.verdicts
        && seq.static_pruned = par.static_pruned)
      [ 1; 4 ]
      (exhaust_leg emit ~label:"absint-static" spec config)
  in
  Fmt.pr
    "@.static pre-pruner: %d of %d points proven without emulation \
     (%d executed vs %d without it)@."
    seq.Exhaust.Campaign.static_pruned seq.points seq.executed plain.executed;
  if seq.Exhaust.Campaign.static_pruned > 0 then
    Fmt.pr "static pre-pruner floor holds: static_pruned > 0@."
  else Fmt.pr "WARNING: static pre-pruner proved nothing on guard_loop@.";
  if identical then Fmt.pr "verdict tables bit-identical at --jobs 1 and 4@."
  else Fmt.pr "WARNING: static-pruned tables diverge across job counts@.";
  (* the fig2 conditional-branch workload: a terminating baseline *)
  let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let fig2_spec = Exhaust.Campaign.spec_of_case case in
  let fig2_config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 64;
      static_prune = true }
  in
  let fig2 = exhaust_leg emit ~label:"absint-fig2" fig2_spec fig2_config None in
  if fig2.Exhaust.Campaign.static_pruned > 0 then
    Fmt.pr "@.fig2 workload floor holds: static_pruned = %d > 0@."
      fig2.Exhaust.Campaign.static_pruned
  else Fmt.pr "@.WARNING: static pre-pruner proved nothing on fig2 workload@.";
  (* fault-flow prover wall time, both builds *)
  let prove label defenses =
    let compiled = Resistor.Driver.compile defenses Resistor.Firmware.guard_loop in
    let report, perf =
      Stats.Perf.time ~label
        (* items counts the abstract fault scenarios explored; none is
           emulated, so executed stays 0 *)
        ~count:(fun r perf ->
          { perf with Stats.Perf.items = r.Absint.Prove.scenarios })
        (fun () ->
          Absint.Prove.run ~config:compiled.Resistor.Driver.config
            ~reports:compiled.Resistor.Driver.reports
            ~modul:compiled.Resistor.Driver.modul compiled.Resistor.Driver.image)
    in
    emit perf;
    Fmt.pr
      "%s: %d/%d guards reached, %d proven, %d escaping, %d unproven@." label
      report.Absint.Prove.guards_reached report.Absint.Prove.guards_total
      report.proven report.escapes report.unproven;
    report
  in
  let undef = prove "prove-undefended" Resistor.Config.none in
  let def =
    prove "prove-defended" (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ())
  in
  if undef.Absint.Prove.escapes > 0 && Absint.Prove.errors def = [] then
    Fmt.pr "prover floors hold: undefended escapes, defended audit clean@."
  else Fmt.pr "WARNING: prover floors violated@.";
  (* reachability-weighted agreement on the fully defended build *)
  let compiled =
    Resistor.Driver.compile
      (Resistor.Config.all ~sensitive:[ "a" ] ())
      Resistor.Firmware.guard_loop
  in
  let spec = Exhaust.Campaign.spec_of_image ~name:"guard_loop" compiled.image in
  let config = Exhaust.Campaign.default_config () in
  let result = Exhaust.Campaign.run spec config in
  let baseline, _ = Exhaust.Campaign.baseline spec config in
  let surface =
    Analysis.Surface.analyze (Analysis.Cfg.of_image compiled.image)
  in
  let agreement = Exhaust.Agreement.of_result ~baseline surface result in
  Fmt.pr
    "@.agreement on the fully defended build: weighted concordance %.0f%%, \
     unweighted %.0f%%@."
    (100. *. agreement.Exhaust.Agreement.concordance)
    (100. *. agreement.Exhaust.Agreement.concordance_unweighted);
  if agreement.Exhaust.Agreement.concordance > 0.5 then
    Fmt.pr "agreement floor holds: weighted concordance > 50%%@."
  else Fmt.pr "WARNING: weighted concordance did not beat 50%%@."

(* --- Section V-B: locating optimal parameters --------------------------------- *)

let tuner () =
  section "Section V-B - search for 100% reliable glitch parameters";
  List.iter
    (fun guard ->
      let r = Hw.Tuner.search guard in
      (match r.found with
      | Some (w, o, c) ->
        Fmt.pr
          "%s: width=%d offset=%d cycle=%d after %d attempts (%d successes), ~%.0f simulated minutes@."
          (Hw.Attack.guard_name guard) w o c r.attempts r.successes
          (r.seconds /. 60.)
      | None ->
        Fmt.pr "%s: no fully reliable parameters found (%d attempts)@."
          (Hw.Attack.guard_name guard) r.attempts);
      Fmt.pr "  %d cycles emulated, %d served by snapshot replay@."
        r.emulated_cycles r.replayed_cycles)
    Hw.Attack.all_guards;
  paper_note "while(a) converged in <59 min (7,031/36,869 successes);";
  paper_note "while(a!=0xD3B9AEC6) in 16 min (901 successes)."

(* --- Tables IV and V: overhead -------------------------------------------------- *)

let table45 () =
  section "Table IV - boot-time overhead per defense (cycles)";
  let rows = Resistor.Overhead.all_rows () in
  let baseline =
    (List.find (fun (r : Resistor.Overhead.row) -> r.label = "None") rows)
      .boot_cycles
  in
  Stats.Table.print
    ~header:[ "Defense"; "Clock cycles"; "% increase"; "Constant"; "% adjusted" ]
    (List.map
       (fun (r : Resistor.Overhead.row) ->
         let constant =
           if r.label = "Delay" || r.label = "All" then
             Resistor.Overhead.flash_commit_cycles
           else 0
         in
         let adj = r.boot_cycles - constant in
         [ r.label; string_of_int r.boot_cycles;
           Fmt.str "%.2f%%"
             (100.
             *. float_of_int (r.boot_cycles - baseline)
             /. float_of_int baseline);
           string_of_int constant;
           Fmt.str "%.2f%%"
             (100. *. float_of_int (adj - baseline) /. float_of_int baseline) ])
       rows);
  paper_note "None 1,736 cycles; Branches +11.35%%; Delay +10,521%% (constant";
  paper_note "177,849 cycles for the flash seed write, +277%% adjusted); others <1%%.";
  section "Table V - size overhead per defense (bytes)";
  let base =
    List.find (fun (r : Resistor.Overhead.row) -> r.label = "None") rows
  in
  Stats.Table.print
    ~header:[ "Defense"; "text"; "text %"; "data"; "bss"; "total"; "total %" ]
    (List.map
       (fun (r : Resistor.Overhead.row) ->
         [ r.label; string_of_int r.text_bytes;
           Fmt.str "%.2f%%"
             (100.
             *. float_of_int (r.text_bytes - base.text_bytes)
             /. float_of_int base.text_bytes);
           string_of_int r.data_bytes; string_of_int r.bss_bytes;
           string_of_int r.total_bytes;
           Fmt.str "%.2f%%"
             (100.
             *. float_of_int (r.total_bytes - base.total_bytes)
             /. float_of_int base.total_bytes) ])
       rows);
  paper_note "All +33%% total, All\\Delay +15%%, Returns ~0%%: the ordering to match."

(* --- Table VI: defended firmware under attack ------------------------------------ *)

let table6 ?pool ~quick () =
  section "Table VI - glitches and detections against defended firmware";
  let sweep_step = if quick then 4 else 1 in
  if quick then
    Fmt.pr "(quick mode: every 4th parameter point; counts scale by ~1/16)@.";
  let scenarios = Resistor.Evaluate.[ Worst_case; Best_case ] in
  let attacks = Resistor.Evaluate.[ Single; Long; Windowed ] in
  let total_attempts = ref 0 in
  let configs =
    [ ("All", Resistor.Config.all ~sensitive:[ "a" ] ());
      ("All\\Delay", Resistor.Config.all_but_delay ~sensitive:[ "a" ] ());
      ("None (reference)", Resistor.Config.none) ]
  in
  let (), perf =
    Stats.Perf.time ?pool ~label:"table6"
      ~count:(fun () -> Stats.Perf.items !total_attempts)
      (fun () ->
  List.iter
    (fun scenario ->
      Fmt.pr "@.--- %s ---@." (Resistor.Evaluate.scenario_name scenario);
      Stats.Table.print
        ~header:
          [ "Attack"; "Defenses"; "Attempts"; "Successes"; "Success %";
            "Detections"; "Detection %" ]
        (List.concat_map
           (fun attack ->
             List.map
               (fun (label, config) ->
                 let o =
                   Resistor.Evaluate.run ?pool ~sweep_step config scenario attack
                 in
                 total_attempts := !total_attempts + o.attempts;
                 [ Resistor.Evaluate.attack_name attack; label;
                   string_of_int o.attempts; string_of_int o.successes;
                   Fmt.str "%a" Stats.Rate.pp_pct
                     (Resistor.Evaluate.success_rate o);
                   string_of_int o.detections;
                   Fmt.str "%a" Stats.Rate.pp_pct
                     (Resistor.Evaluate.detection_rate o) ])
               configs)
           attacks))
    scenarios)
  in
  emit_perf perf;
  paper_note "while(!a): single 0.00928%%/0.00371%% success, 98-100%% detected;";
  paper_note "long 0.263%%/0.267%% success with 79.2%%/71.2%% detection;";
  paper_note "if(a==SUCCESS): best attack 0.00557%% (All) / 0.0449%% (All\\Delay)."

(* --- Ablation: which defense stops what ------------------------------------------- *)

(* One efficacy row after its label: successes (rate) and detections
   for the single and the windowed-10 attack. *)
let efficacy_cells (single : Resistor.Evaluate.outcome)
    (windowed : Resistor.Evaluate.outcome) =
  [ Fmt.str "%d (%a)" single.successes Stats.Rate.pp_pct
      (Resistor.Evaluate.success_rate single);
    string_of_int single.detections;
    Fmt.str "%d (%a)" windowed.successes Stats.Rate.pp_pct
      (Resistor.Evaluate.success_rate windowed);
    string_of_int windowed.detections ]

let ablation ?pool ~quick () =
  section "Ablation - per-defense efficacy against while(!a) (extension)";
  let sweep_step = if quick then 4 else 2 in
  Fmt.pr "(every %dth parameter point; single + windowed-10 attacks)@." sweep_step;
  let sensitive = [ "a" ] in
  let rows_cfg =
    [ ("None", Resistor.Config.none);
      ("Branches", Resistor.Config.only ~branches:true ());
      ("Loops", Resistor.Config.only ~loops:true ());
      ("Branches+Loops", Resistor.Config.only ~branches:true ~loops:true ());
      ("Integrity", Resistor.Config.only ~integrity:true ~sensitive ());
      ("Delay", Resistor.Config.only ~delay:true ());
      ("All\\Delay", Resistor.Config.all_but_delay ~sensitive ());
      ("All", Resistor.Config.all ~sensitive ()) ]
  in
  let source = Resistor.Evaluate.scenario_source Resistor.Evaluate.Worst_case in
  let images =
    List.map
      (fun (label, config) ->
        (label, (Resistor.Driver.compile config source).image))
      rows_cfg
    @ [ (let image, (_ : Resistor.Cfcss.report) = Resistor.Cfcss.compile source in
         ("CFCSS (baseline)", image)) ]
  in
  Stats.Table.print
    ~header:
      [ "Defenses"; "Single succ"; "Single det"; "Windowed succ"; "Windowed det" ]
    (List.map
       (fun (label, image) ->
         let single =
           Resistor.Evaluate.run_image ?pool ~sweep_step image
             Resistor.Evaluate.Single
         in
         let windowed =
           Resistor.Evaluate.run_image ?pool ~sweep_step image
             Resistor.Evaluate.Windowed
         in
         label :: efficacy_cells single windowed)
       images);
  Fmt.pr "@.Reading the ablation:@.";
  Fmt.pr "- Branches alone barely helps: a loop escape leaves on the FALSE@.";
  Fmt.pr "  edge, which only the Loops pass re-checks (the paper's rationale@.";
  Fmt.pr "  for instrumenting both).@.";
  Fmt.pr "- Integrity kills the register/data-corruption vector: the shadow@.";
  Fmt.pr "  complement no longer matches a corrupted comparator.@.";
  Fmt.pr "- Delay displaces the guard out of the attacker's trigger-relative@.";
  Fmt.pr "  window without detecting anything, exactly its design goal.@.";
  Fmt.pr "- CFCSS (the executable Table VII baseline) detects arrivals along@.";
  Fmt.pr "  illegal edges and dilates the code, but it cannot re-check the@.";
  Fmt.pr "  DIRECTION of a legal branch - the complemented duplication@.";
  Fmt.pr "  checks remain GlitchResistor's differentiator.@."

(* --- defenses: CFI backend overhead + efficacy ------------------------------------- *)

(* The two post-paper CFI backends (Sigcfi = FIPAC-style running
   signature, Domains = SCRAMBLE-CFI-style keyed clusters) measured the
   same way as the paper's rows: Table IV/V overhead on boot_tick, then
   the worst-case guard swept with 1/2-bit corruption next to the CFCSS
   and None baselines. One PERF record per efficacy row lands in
   BENCH_8.json; [items] counts sweep attempts. *)
let defenses ?pool ~quick () =
  section "defenses - CFI backend overhead + efficacy (writes BENCH_8.json)";
  with_bench_json "BENCH_8.json" @@ fun emit ->
  let base = Resistor.Overhead.measure Resistor.Config.none ~label:"None" in
  let pct v b =
    Fmt.str "%.2f%%" (100. *. float_of_int (v - b) /. float_of_int b)
  in
  Stats.Table.print
    ~header:[ "Defense"; "Boot cycles"; "cycles %"; "total bytes"; "bytes %" ]
    (List.map
       (fun (r : Resistor.Overhead.row) ->
         [ r.label; string_of_int r.boot_cycles;
           pct r.boot_cycles base.boot_cycles;
           string_of_int r.total_bytes;
           pct r.total_bytes base.total_bytes ])
       (base
       :: List.map
            (fun (label, config) -> Resistor.Overhead.measure config ~label)
            Resistor.Overhead.cfi_configurations));
  let sweep_step = if quick then 4 else 2 in
  Fmt.pr "@.(every %dth parameter point; single + windowed-10 attacks)@."
    sweep_step;
  let sensitive = [ "a" ] in
  let source = Resistor.Evaluate.scenario_source Resistor.Evaluate.Worst_case in
  let compile config = (Resistor.Driver.compile config source).image in
  let images =
    [ ("None", "none", compile Resistor.Config.none);
      ("Sigcfi", "sigcfi", compile (Resistor.Config.only ~sigcfi:true ()));
      ("Domains", "domains", compile (Resistor.Config.only ~domains:true ()));
      ( "Sigcfi+Domains", "cfi",
        compile (Resistor.Config.only ~sigcfi:true ~domains:true ()) );
      ( "All\\Delay+Sigcfi+Domains", "all-cfi",
        compile
          { (Resistor.Config.all_but_delay ~sensitive ()) with
            sigcfi = true; domains = true } );
      ( "CFCSS (baseline)", "cfcss",
        fst (Resistor.Cfcss.compile source) ) ]
  in
  Stats.Table.print
    ~header:
      [ "Defense"; "Single succ"; "Single det"; "Windowed succ"; "Windowed det" ]
    (List.map
       (fun (label, slug, image) ->
         let (single, windowed), perf =
           Stats.Perf.time ?pool
             ~label:("defenses-" ^ slug)
             ~count:(fun ((s : Resistor.Evaluate.outcome), w) ->
               Stats.Perf.items (s.attempts + w.Resistor.Evaluate.attempts))
             (fun () ->
               ( Resistor.Evaluate.run_image ?pool ~sweep_step image
                   Resistor.Evaluate.Single,
                 Resistor.Evaluate.run_image ?pool ~sweep_step image
                   Resistor.Evaluate.Windowed ))
         in
         emit perf;
         label :: efficacy_cells single windowed)
       images);
  Fmt.pr "@.Reading the CFI rows:@.";
  Fmt.pr "- Both backends detect illegal-edge arrivals (a skipped guard@.";
  Fmt.pr "  lands mid-chain with a stale signature / foreign domain key),@.";
  Fmt.pr "  but neither re-checks the DIRECTION of a legal branch - the@.";
  Fmt.pr "  Table VII residue the complemented duplication checks cover.@.";
  Fmt.pr "- Stacked on All\\Delay they close that gap at roughly the CFCSS@.";
  Fmt.pr "  dilation cost.@."

(* --- Table VII: qualitative comparison -------------------------------------------- *)

let table7 () =
  section "Table VII - software-based defense comparison";
  print_string (Resistor.Compare.render ());
  paper_note "GlitchResistor is the only technique with every property."

(* --- analysis: static glitch-surface analyzer timings -------------------------- *)

(* Times CFG recovery + the 1/2-bit static surface sweep + the defense
   audit over the firmware suite, undefended and fully defended, and
   writes the PERF records to BENCH_4.json. [items] counts the
   perturbations classified (136 per reachable instruction). *)
let analysis () =
  section "analysis - static glitch surface and defense audit (writes BENCH_4.json)";
  with_bench_json "BENCH_4.json" @@ fun emit ->
  let lint name config source =
    let report, perf =
      Stats.Perf.time
        ~label:("analysis-" ^ name)
        ~count:(fun r ->
          Stats.Perf.items
            r.Analysis.Lint.surface.Analysis.Surface.total_flips)
        (fun () ->
          Analysis.Lint.run
            (Analysis.Lint.of_compiled (Resistor.Driver.compile config source)))
    in
    let surface = report.Analysis.Lint.surface in
    emit perf;
    Fmt.pr "  %s: %d error(s), %d warning(s), %d instruction(s), %.1f%% control@."
      name
      (Analysis.Lint.count Analysis.Lint.Error report)
      (Analysis.Lint.count Analysis.Lint.Warning report)
      (List.length surface.Analysis.Surface.profiles)
      (100. *. surface.Analysis.Surface.image_score);
    report
  in
  let undef = lint "guard-loop-none" Resistor.Config.none Resistor.Firmware.guard_loop in
  let def =
    lint "guard-loop-all"
      (Resistor.Config.all ~sensitive:[ "a" ] ())
      Resistor.Firmware.guard_loop
  in
  ignore (lint "boot-tick-none" Resistor.Config.none Resistor.Firmware.boot_tick);
  ignore
    (lint "boot-tick-all"
       (Resistor.Config.all ~sensitive:[ "tick" ] ())
       Resistor.Firmware.boot_tick);
  Fmt.pr "@.undefended guard-loop errors: %d (expected > 0); defended: %d \
          (expected 0)@."
    (List.length (Analysis.Lint.errors undef))
    (List.length (Analysis.Lint.errors def))

(* --- fuzz: randomized differential testing throughput ------------------------- *)

(* One bounded fixed-seed batch per property family; [items] counts the
   generated programs, so the PERF rate reads as programs/second. The
   per-family checked/skipped/pass tallies land in BENCH_5.json next to
   the timings. *)
let fuzz ~quick () =
  section "fuzz - randomized differential defense testing (writes BENCH_5.json)";
  let count = if quick then 10 else 60 in
  let seed = 42 in
  with_bench_json "BENCH_5.json" @@ fun emit ->
  List.iter
    (fun family ->
      let name = Gen.Fuzz.family_name family in
      let summary, perf =
        Stats.Perf.time
          ~label:("fuzz-" ^ name)
          ~count:(fun s perf ->
            { perf with
              Stats.Perf.items = count;
              executed = (List.hd s.Gen.Fuzz.runs).checked })
          (fun () -> Gen.Fuzz.run ~families:[ family ] ~count ~seed ())
      in
      let run = List.hd summary.Gen.Fuzz.runs in
      emit perf;
      Fmt.pr "  %-14s %d generated, %d checked, %d skipped: %s@." name count
        run.Gen.Fuzz.checked run.Gen.Fuzz.skipped
        (match run.Gen.Fuzz.failure with
        | None -> "pass"
        | Some f -> "FAIL: " ^ f.Gen.Fuzz.message))
    Gen.Fuzz.all_families

(* --- Bechamel micro-benchmarks ------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel): cost of each experiment's inner loop";
  let open Bechamel in
  let beq_case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let emu_config = Glitch_emu.Campaign.default_config Glitch_emu.Fault_model.And in
  let board =
    Hw.Board.create
      (Hw.Board.Asm (Hw.Attack.single_loop_program Hw.Attack.While_not_a))
  in
  let image =
    (Resistor.Driver.compile
       (Resistor.Config.all ~sensitive:[ "a" ] ())
       Resistor.Firmware.guard_loop)
      .image
  in
  let defended_board = Hw.Board.create (Hw.Board.Image image) in
  ignore (Hw.Board.run_until_trigger defended_board);
  let snap = Hw.Board.snapshot defended_board in
  let msg = Array.init 16 (fun i -> i * 7 land 0xFF) in
  let code = Reedsolomon.Rs.encode ~ecc_len:8 msg in
  let tests =
    [ Test.make ~name:"fig2: one perturbed execution"
        (Staged.stage (fun () ->
             ignore (Glitch_emu.Campaign.run_one emu_config beq_case ~mask:0x0100)));
      Test.make ~name:"table1: one glitch attempt"
        (Staged.stage (fun () ->
             ignore
               (Hw.Glitcher.run ~max_cycles:300 board
                  [ Hw.Glitcher.single ~width:(-10) ~offset:5 ~ext_offset:4 ])));
      Test.make ~name:"table6: one defended attempt (snapshot restore)"
        (Staged.stage (fun () ->
             ignore
               (Hw.Glitcher.run ~max_cycles:5000 ~from:snap defended_board
                  [ Hw.Glitcher.single ~width:(-10) ~offset:5 ~ext_offset:4 ])));
      Test.make ~name:"table4/5: compile+link defended firmware"
        (Staged.stage (fun () ->
             ignore
               (Resistor.Driver.compile
                  (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ())
                  Resistor.Firmware.guard_loop)));
      Test.make ~name:"substrate: thumb decode (64k words)"
        (Staged.stage (fun () ->
             for w = 0 to 0xFFFF do
               ignore (Thumb.Decode.instr w)
             done));
      Test.make ~name:"substrate: RS encode+decode (16B msg, ecc 8)"
        (Staged.stage (fun () ->
             let received = Array.copy code in
             received.(3) <- received.(3) lxor 0x5A;
             match Reedsolomon.Rs.decode ~ecc_len:8 received with
             | Ok _ -> ()
             | Error _ -> assert false)) ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ ns ] -> Fmt.pr "  %-48s %12.1f ns/run@." name ns
          | Some _ | None -> Fmt.pr "  %-48s (no estimate)@." name)
        ols)
    tests

(* --- driver ---------------------------------------------------------------------------- *)

type ctx = {
  pool : Runtime.Pool.t option;
  jobs : int;
  quick : bool;
  cache : Cache.t option;
}

(* Every experiment, in run order: its name, whether a bare run (or
   "all") includes it, and its runner. table4 and table5 are one
   experiment, so "all" runs it once. *)
let experiments =
  [ ("fig2", true, fun c -> fig2 ?pool:c.pool ?cache:c.cache ());
    ("fig2x", true, fun c -> fig2x ?pool:c.pool ());
    ("table1", true, fun c -> table1 ?pool:c.pool ());
    ("table2", true, fun c -> table2 ?pool:c.pool ());
    ("table3", true, fun c -> table3 ?pool:c.pool ());
    ("tables", false, fun c -> tables ~jobs:c.jobs ());
    ("scaling", false, fun _ -> scaling ());
    ("exhaust", false, fun _ -> exhaust_bench ());
    ("absint", false, fun _ -> absint_bench ());
    ("tuner", true, fun _ -> tuner ());
    ("table4", true, fun _ -> table45 ());
    ("table5", false, fun _ -> table45 ());
    ("table6", true, fun c -> table6 ?pool:c.pool ~quick:c.quick ());
    ("table7", true, fun _ -> table7 ());
    ("ablation", true, fun c -> ablation ?pool:c.pool ~quick:c.quick ());
    ("defenses", true, fun c -> defenses ?pool:c.pool ~quick:c.quick ());
    ("analysis", true, fun _ -> analysis ());
    ("fuzz", true, fun c -> fuzz ~quick:c.quick ());
    ("micro", true, fun _ -> micro ()) ]

(* "all" plus one selector per experiment, for the positional
   arguments; no argument at all means "all". *)
let selectors =
  ( "all",
    List.filter_map
      (fun (_, in_all, run) -> if in_all then Some run else None)
      experiments )
  :: List.map (fun (name, _, run) -> (name, [ run ])) experiments

let run_experiments names quick jobs cache_dir =
  let cache = Option.map Cache.open_dir cache_dir in
  (* jobs = 1 keeps every experiment on the original sequential path *)
  Runtime.Pool.with_jobs jobs @@ fun pool ->
  let ctx = { pool; jobs; quick; cache } in
  List.iter
    (fun name -> List.iter (fun run -> run ctx) (List.assoc name selectors))
    (if names = [] then [ "all" ] else names);
  write_json "BENCH_2.json" !perf_log

(* Usage errors (an unknown experiment, --jobs below 1 or not a number,
   an option missing its value) exit 2 with the usage on stderr. *)
let () =
  let open Cmdliner in
  let names =
    let alts = List.map (fun (name, _) -> (name, name)) selectors in
    Arg.(
      value
      & pos_all (enum alts) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Fmt.str "Experiments to run, in order ($(b,all) when none is \
                      given): %s."
               (Arg.doc_alts_enum alts)))
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Coarser sweeps and fewer fuzz programs for a smoke run.")
  in
  let jobs =
    let positive =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some _ | None -> Error (`Msg "expects a positive integer")
      in
      Arg.conv (parse, Fmt.int)
    in
    Arg.(
      value
      & opt positive (Runtime.Pool.default_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the campaign sweeps, at least 1; results \
             are bit-identical at any N.")
  in
  let cache_dir =
    let path =
      let parse = function
        | "" -> Error (`Msg "expects a directory path")
        | dir -> Ok dir
      in
      Arg.conv (parse, Fmt.string)
    in
    Arg.(
      value
      & opt (some path) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Serve fig2's sweeps through the persistent result cache in DIR.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "main.exe"
         ~doc:"Regenerate the tables and figures of Glitching Demystified"
         ~exits:
           [ Cmd.Exit.info 0 ~doc:"on success.";
             Cmd.Exit.info 2
               ~doc:"on a command-line error, such as an unknown experiment.";
             Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on an internal error." ])
      Term.(const run_experiments $ names $ quick $ jobs $ cache_dir)
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
