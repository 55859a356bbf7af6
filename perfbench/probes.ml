(* Per-layer measurements for the traced run, taken from outside the
   libraries: each probe times calls to a layer's public functions or
   reads the exact counters in their result records. Every traced run
   takes all of them, whatever its workload, so every per-layer metric
   exists on every workload. *)

open Glitch_emu

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let count name n = m name "count" (float_of_int n)
let median_ns samples = Pct.median (List.map float_of_int samples)

(* Median time of [n] calls of [f], in ns. *)
let timed_median n f = median_ns (List.init n (fun _ -> snd (Clock.time f)))

let thumb () =
  let decode_all () =
    Trace.span "thumb.instr" (fun () ->
        for w = 0 to 0xFFFF do
          ignore (Sys.opaque_identity (Thumb.Decode.instr w))
        done)
  in
  [ m "thumb.decode_table_ms" "ms" (timed_median 5 decode_all /. 1e6) ]

let fig2 () =
  let timed = Workloads.fig2_pass () in
  let results = Array.map fst timed in
  let failed = Check.fig2_pass ~reference:results results in
  let sweep_ms pick =
    Pct.median
      (List.filter_map Fun.id
         (Array.to_list
            (Array.mapi
               (fun i (_, ns) ->
                 if pick Workloads.fig2_sweeps.(i).Workloads.xor then Some (Clock.ms ns)
                 else None)
               timed)))
  in
  let executed, memoized =
    Array.fold_left
      (fun (e, mz) (r : Campaign.result) -> (e + r.stats.executed, mz + r.stats.memoized))
      (0, 0) results
  in
  let xor_ms = sweep_ms Fun.id in
  ( [ m "glitch_emu.xor_sweep_ms" "ms" xor_ms;
      m "glitch_emu.and_or_sweep_ms" "ms" (sweep_ms not);
      m "machine.exec_ns" "ns" (xor_ms *. 1e6 /. 65_536.);
      count "glitch_emu.executed" executed;
      m "runtime.store.hit_ratio" "1"
        (float_of_int memoized /. float_of_int (executed + memoized)) ],
    Array.length results,
    failed )

(* A rig sealed from [spec] with the public Memory, Cpu and State
   functions, as [Exhaust.Campaign] builds its own. *)
let seal (spec : Exhaust.Campaign.spec) =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:spec.flash_base ~size:spec.flash_size;
  List.iter (fun (addr, size) -> Machine.Memory.map mem ~addr ~size) spec.rams;
  Machine.Memory.load_bytes mem ~addr:spec.flash_base spec.code;
  List.iter (fun (addr, v) -> Machine.Memory.write_u32_exn mem addr v) spec.data_init;
  let cpu = Machine.Cpu.create ~sp:spec.stack_top ~pc:spec.entry () in
  (Exhaust.State.seal ~mem ~cpu, mem, cpu)

(* Replay the baseline, timing [State.key] after each step. *)
let state_keys spec (config : Exhaust.Campaign.config) =
  let rig, mem, cpu = seal spec in
  let keys = ref [] and times = ref [] and n = ref 0 and running = ref true in
  while !running && !n < config.max_trace do
    incr n;
    (match Machine.Exec.step mem cpu with
    | Machine.Exec.Running -> ()
    | Machine.Exec.Stopped _ -> running := false);
    let k, ns =
      Trace.span "exhaust.state.key" (fun () -> Clock.time (fun () -> Exhaust.State.key rig))
    in
    keys := k :: !keys;
    times := ns :: !times
  done;
  (Array.of_list (List.rev !keys), !times)

let keymap keys =
  let per_op total = total /. float_of_int (Array.length keys) in
  let round () =
    let km = Runtime.Keymap.create () in
    let (), add =
      Clock.time (fun () ->
          Trace.span "runtime.keymap.add" (fun () ->
              Array.iteri (fun i k -> Runtime.Keymap.add km k i) keys))
    in
    let (), find =
      Clock.time (fun () ->
          Trace.span "runtime.keymap.find" (fun () ->
              Array.iter (fun k -> ignore (Sys.opaque_identity (Runtime.Keymap.find km k))) keys))
    in
    (add, find)
  in
  let rounds = List.init 5 (fun _ -> round ()) in
  [ m "runtime.keymap.add_ns" "ns" (per_op (median_ns (List.map fst rounds)));
    m "runtime.keymap.find_ns" "ns" (per_op (median_ns (List.map snd rounds))) ]

let exhaust () =
  let compile_ns = timed_median 5 Workloads.compile in
  let ((spec, config) as input) = Workloads.exhaust_input () in
  let baseline_ns =
    timed_median 5 (fun () ->
        Trace.span "exhaust.baseline" (fun () -> Exhaust.Campaign.baseline spec config))
  in
  let r, whole_ns = Clock.time (fun () -> Workloads.exhaust_pass input) in
  let failed = if Check.exhaust_mismatch r = None then 0 else 1 in
  let (), windowed_ns =
    Clock.time (fun () ->
        Trace.span "pass.exhaust_windowed" (fun () ->
            for w = 0 to 7 do
              let cycles = Some (w * 256, (w + 1) * 256) in
              ignore
                (Trace.span "exhaust.run" (fun () ->
                     Exhaust.Campaign.run spec { config with cycles }))
            done))
  in
  let keys, key_times = state_keys spec config in
  let key_bytes =
    Array.fold_left (fun n k -> n + String.length k) 0 keys
  in
  let nkeys = float_of_int (Array.length keys) in
  ( [ m "resistor.compile_ms" "ms" (compile_ns /. 1e6);
      m "exhaust.baseline_ms" "ms" (baseline_ns /. 1e6);
      count "exhaust.points" r.points;
      count "exhaust.faulted" r.faulted;
      count "exhaust.executed" r.executed;
      count "exhaust.pruned" r.pruned;
      count "exhaust.states" r.states;
      m "exhaust.prune_ratio" "1" (Exhaust.Campaign.prune_rate r);
      m "exhaust.state.key_ns" "ns"
        (float_of_int (List.fold_left ( + ) 0 key_times) /. nkeys);
      m "exhaust.state.key_bytes" "bytes" (float_of_int key_bytes /. nkeys);
      m "exhaust.windowed_s" "s" (Clock.s windowed_ns);
      m "exhaust.whole_over_windowed" "1" (float_of_int whole_ns /. float_of_int windowed_ns) ]
    @ keymap keys,
    1,
    failed )

let serve ~seed ~scratch =
  let ((s1, s2) as stream) = Stream.generate ~seed in
  let dir = Filename.concat scratch "probe-serve" in
  let r1, r2 = Workloads.serve_pass ~dir stream in
  let st = Check.serve_create () in
  let failed =
    Check.serve_pass st [ (s1, Array.map fst r1); (s2, Array.map fst r2) ]
    + Check.serve_reference st
  in
  let responses = Array.append r1 r2 in
  let by label =
    List.filter_map Fun.id
      (Array.to_list
         (Array.map
            (fun (text, ns) ->
              match Check.reply_of_line text with
              | Some { ok = false; _ } when label = "error" -> Some (Clock.ms ns)
              | Some { ok = true; cache = Some c; _ } when c = label -> Some (Clock.ms ns)
              | _ -> None)
            responses))
  in
  (* The layers under a request, called one at a time on the pass's
     keys, payloads and response lines. *)
  let reqs =
    List.filter_map
      (fun (k : Stream.key) ->
        Option.map (fun case -> (Check.config_of_key k, case)) (Service.find_case k.case))
      (Array.to_list Stream.keys)
  in
  let each name f xs =
    median_ns (List.map (fun x -> Trace.span name (fun () -> snd (Clock.time (fun () -> f x)))) xs)
  in
  let cache_keys = List.map (fun (config, case) -> Service.cache_key config case) reqs in
  let cache = Cache.open_dir dir in
  let payloads = List.map (fun key -> Option.get (Cache.load cache ~key)) cache_keys in
  let load_ns = each "cache.load" (fun key -> Cache.load cache ~key) cache_keys in
  let copy = Cache.open_dir (Filename.concat scratch "probe-store") in
  let store_ns =
    each "cache.store" (fun (key, p) -> Cache.store copy ~key p) (List.combine cache_keys payloads)
  in
  let key_ns = each "service.cache_key" (fun (config, case) -> Service.cache_key config case) reqs in
  let decode_ns =
    each "service.decode_result"
      (fun ((config, case), p) -> Service.decode_result config case p)
      (List.combine reqs payloads)
  in
  let json_ns =
    each "service.json.round_trip"
      (fun (text, _) ->
        match Service.Json.of_string text with
        | Ok j -> ignore (Service.Json.to_string j)
        | Error e -> failwith e)
      (Array.to_list responses)
  in
  Workloads.remove dir;
  Workloads.remove (Filename.concat scratch "probe-store");
  ( [ m "service.hit_ms" "ms" (Pct.median (by "hit"));
      m "service.miss_ms" "ms" (Pct.median (by "miss"));
      m "service.error_ms" "ms" (Pct.median (by "error"));
      count "service.hits" st.hits_seen;
      count "service.misses" st.misses_seen;
      count "service.errors" st.errors_seen;
      m "cache.load_us" "us" (load_ns /. 1e3);
      m "cache.store_us" "us" (store_ns /. 1e3);
      m "service.key_us" "us" (key_ns /. 1e3);
      m "service.decode_us" "us" (decode_ns /. 1e3);
      m "service.json_us" "us" (json_ns /. 1e3) ],
    Array.length responses,
    failed )

(* Every probe, each in its own pass. Returns the metrics, the
   operations checked and how many failed. *)
let all ~seed ~scratch =
  let next () = incr Trace.pass in
  next ();
  let decode = thumb () in
  next ();
  let f, f_ops, f_failed = fig2 () in
  next ();
  let e, e_ops, e_failed = exhaust () in
  next ();
  let s, s_ops, s_failed = serve ~seed ~scratch in
  (decode @ f @ e @ s, f_ops + e_ops + s_ops, f_failed + e_failed + s_failed)
