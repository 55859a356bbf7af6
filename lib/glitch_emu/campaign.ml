open Machine

type category =
  | Success
  | Bad_read
  | Bad_fetch
  | Invalid_instruction
  | Failed
  | No_effect

let categories =
  [ Success; Bad_read; Bad_fetch; Invalid_instruction; Failed; No_effect ]

let category_name = function
  | Success -> "Success"
  | Bad_read -> "Bad Read"
  | Bad_fetch -> "Bad Fetch"
  | Invalid_instruction -> "Invalid Instruction"
  | Failed -> "Failed"
  | No_effect -> "No Effect"

let category_index = function
  | Success -> 0
  | Bad_read -> 1
  | Bad_fetch -> 2
  | Invalid_instruction -> 3
  | Failed -> 4
  | No_effect -> 5

let category_of_index = function
  | 0 -> Success
  | 1 -> Bad_read
  | 2 -> Bad_fetch
  | 3 -> Invalid_instruction
  | 4 -> Failed
  | 5 -> No_effect
  | _ -> invalid_arg "Campaign.category_of_index"

type config = {
  flip : Fault_model.flip;
  zero_is_invalid : bool;
  max_steps : int;
}

let default_config flip = { flip; zero_is_invalid = false; max_steps = 200 }

type counts = int array

type sweep_stats = { executed : int; memoized : int }

type result = {
  case : Testcase.t;
  config : config;
  by_weight : counts array;
  totals : counts;
  stats : sweep_stats;
}

(* A small dedicated address space: snippets are a handful of
   instructions and a few words of stack. *)
let flash_base = 0x08000000
let flash_size = 0x400
let sram_base = 0x20000000
let sram_size = 0x400
let stack_top = sram_base + sram_size - 16

let load_machine image =
  let mem = Memory.create () in
  Memory.map mem ~addr:flash_base ~size:flash_size;
  Memory.map mem ~addr:sram_base ~size:sram_size;
  Memory.load_bytes mem ~addr:flash_base image;
  (mem, Cpu.create ~sp:stack_top ~pc:flash_base ())

let target_addr (case : Testcase.t) = flash_base + (2 * case.target_index)

let classify cpu (stop : Exec.stop) : category =
  match stop with
  | Exec.Breakpoint _ ->
    if Cpu.get cpu Testcase.skip_reg = Testcase.skip_marker then Success
    else No_effect
  | Exec.Bad_read _ | Exec.Bad_write _ -> Bad_read
  | Exec.Bad_fetch _ -> Bad_fetch
  | Exec.Invalid_instruction _ -> Invalid_instruction
  | Exec.Swi_trap _ | Exec.Step_limit -> Failed

(* --- the reference kernel --------------------------------------------- *)

(* The original protocol, kept deliberately independent of the sweep
   fast path so differential tests can pin one against the other:
   clear everything, reload the image, perturb, reset the CPU, and step
   one instruction at a time from the reset vector. *)
type reference = {
  rcase : Testcase.t;
  rimage : bytes;
  rmem : Memory.t;
  rcpu : Cpu.t;
}

let reference (case : Testcase.t) =
  let rimage = Thumb.Encode.to_bytes case.instrs in
  let rmem, rcpu = load_machine rimage in
  { rcase = case; rimage; rmem; rcpu }

(* Execute until stop, optionally treating a fetched 0x0000 as an
   invalid instruction (Figure 2(c)'s modified ISA). *)
let run_stepwise ~zero_is_invalid ~max_steps mem cpu =
  let rec go remaining =
    if remaining = 0 then Exec.Step_limit
    else
      match Memory.read_u16_exn mem (Cpu.pc cpu) with
      | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
        Exec.Bad_fetch a
      | 0 when zero_is_invalid -> Exec.Invalid_instruction 0
      | w -> (
        match Exec.execute mem cpu Thumb.Decode.table.(w) with
        | Exec.Running -> go (remaining - 1)
        | Exec.Stopped s -> s)
  in
  go max_steps

let run_mask config r ~mask =
  Memory.clear r.rmem;
  Memory.load_bytes r.rmem ~addr:flash_base r.rimage;
  let word = Fault_model.apply config.flip ~mask (Testcase.target_word r.rcase) in
  Memory.write_u16_exn r.rmem (target_addr r.rcase) word;
  Cpu.reset ~sp:stack_top ~pc:flash_base r.rcpu;
  let stop =
    run_stepwise ~zero_is_invalid:config.zero_is_invalid
      ~max_steps:config.max_steps r.rmem r.rcpu
  in
  classify r.rcpu stop

let run_one config case ~mask = run_mask config (reference case) ~mask

(* --- the sweep kernel ------------------------------------------------- *)

(* A rig is the machine state at the first fetch of the target, saved
   once per (config, case) so each word starts there instead of at the
   reset vector:

   - [saved] holds the registers and flags after the [prefix] steps
     that precede that fetch, and [budget] is [max_steps - prefix];
   - memory is rewound to journal mark [mark] before each word, which
     undoes the previous word's target write and every store its run
     made, flash included (the rig has no devices, so the journal sees
     every store).

   The prefix is the same for every word only if it cannot observe the
   target halfword. [make_rig] falls back to the reset state (a prefix
   of 0 steps) when a prefix instruction reads memory, a prefix store
   touches the target halfword, or the prefix stops or runs out of
   steps before reaching the target. *)
type rig = {
  config : config;
  mem : Memory.t;
  cpu : Cpu.t;
  journal : Memory.journal;
  mark : int;
  saved : Cpu.t;
  budget : int;
  target : int;  (* unperturbed target halfword *)
  target_addr : int;  (* its flash address *)
}

(* Steps from the reset state to the first fetch of [target_addr], or
   [None] when the prefix might depend on the target halfword. *)
let run_prefix config mem cpu ~target_addr =
  let rec go steps =
    if Cpu.pc cpu = target_addr then Some steps
    else if steps >= config.max_steps then None
    else
      match Memory.read_u16_exn mem (Cpu.pc cpu) with
      | exception Memory.Fault _ -> None
      | 0 when config.zero_is_invalid -> None
      | w ->
        let i = Thumb.Decode.table.(w) in
        if Thumb.Instr.is_load i then None
        else (
          match Exec.execute mem cpu i with
          | Exec.Running -> go (steps + 1)
          | Exec.Stopped _ -> None)
  in
  go 0

let make_rig config (case : Testcase.t) =
  let mem, cpu = load_machine (Thumb.Encode.to_bytes case.instrs) in
  let journal = Memory.journal_create () in
  Memory.attach_journal mem journal;
  let target_addr = target_addr case in
  let rec touches_target i =
    i < Memory.journal_length journal
    && (let addr, _ = Memory.journal_entry journal i in
        addr = target_addr || addr = target_addr + 1 || touches_target (i + 1))
  in
  let prefix =
    match run_prefix config mem cpu ~target_addr with
    | Some steps when not (touches_target 0) -> steps
    | Some _ | None ->
      Memory.undo_to mem journal 0;
      Cpu.reset ~sp:stack_top ~pc:flash_base cpu;
      0
  in
  { config; mem; cpu; journal;
    mark = Memory.journal_length journal;
    saved = Cpu.copy cpu;
    budget = config.max_steps - prefix;
    target = Testcase.target_word case;
    target_addr }

(* Zero halfwords from [pc] on, counting at most [limit]. Reads live
   memory, so a glitched store into the padding ends the run where it
   landed. *)
let zero_run mem pc limit =
  let rec go k =
    if k = limit then k
    else
      match Memory.read_u16_exn mem (pc + (2 * k)) with
      | 0 -> go (k + 1)
      | _ -> k
      | exception Memory.Fault _ -> k
  in
  go 1

(* [run_stepwise] with zero padding collapsed. The 1 KB flash is
   mostly 0x0000, which decodes to [movs r0, r0]; a run that lands in
   it would step through every halfword until the budget or the end of
   flash. [movs r0, r0] touches only r0 (unchanged), N and Z, so
   executing it once leaves the state that k repeats leave, and the
   run skips ahead by k halfwords and k steps. Fetches go through the
   unboxed memory path and the shared pre-decoded instruction table,
   so a well-behaved run allocates nothing. *)
let run_to_stop ~zero_is_invalid ~max_steps mem cpu =
  let rec go remaining =
    if remaining <= 0 then Exec.Step_limit
    else
      let pc = Cpu.pc cpu in
      match Memory.read_u16_exn mem pc with
      | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
        Exec.Bad_fetch a
      | 0 when zero_is_invalid -> Exec.Invalid_instruction 0
      | 0 -> (
        let k = zero_run mem pc remaining in
        match Exec.execute mem cpu Thumb.Instr.nop with
        | Exec.Running ->
          Cpu.set_pc cpu (pc + (2 * k));
          go (remaining - k)
        | Exec.Stopped s -> s)
      | w -> (
        match Exec.execute mem cpu Thumb.Decode.table.(w) with
        | Exec.Running -> go (remaining - 1)
        | Exec.Stopped s -> s)
  in
  go max_steps

(* The fast kernel: one perturbed word against a reused rig. The
   outcome is a pure function of (config, case, word) — every word
   starts from the same saved state — which is what makes the per-word
   memo below sound. *)
let run_word rig ~word =
  Memory.undo_to rig.mem rig.journal rig.mark;
  Memory.write_u16_exn rig.mem rig.target_addr word;
  Cpu.blit ~src:rig.saved ~dst:rig.cpu;
  let stop =
    run_to_stop ~zero_is_invalid:rig.config.zero_is_invalid
      ~max_steps:rig.budget rig.mem rig.cpu
  in
  classify rig.cpu stop

let width = 16
let ncat = List.length categories

type tally = { by_weight : counts array; totals : counts }

let make_tally () =
  { by_weight = Array.init (width + 1) (fun _ -> Array.make ncat 0);
    totals = Array.make ncat 0 }

(* The word-outcome memo. [store] slot [word] is the category index
   already established for a perturbed word, or empty. The And/Or
   fault models are many-to-one (e.g. AND can only produce subsets of
   the target's set bits), so a 65,536-mask sweep visits only a few
   hundred to a few thousand distinct words — every revisit is a table
   lookup instead of an emulation.

   The store is SHARED between worker domains (it used to be
   worker-private, which made N workers re-execute every word up to N
   times and inverted the parallel speedup). Sharing is sound because
   the outcome is a pure function of (config, case, word): racing
   workers can only publish identical values, and a stale read of
   "empty" merely re-executes — see [Runtime.Store]. The counters stay
   per-worker (merged after the region), so hit rates remain
   observable without contended atomics on the hot path.

   A store is only valid for the (config, case) pair it was filled
   under — the outcome depends on the whole snippet, not just the
   perturbed word — so callers passing [?store] must key it by both. *)
type memo = {
  store : Runtime.Store.t;
  mutable executed : int;
  mutable memoized : int;
}

let make_store () = Runtime.Store.create ~slots:0x10000

let make_memo ?store () =
  let store = match store with Some s -> s | None -> make_store () in
  { store; executed = 0; memoized = 0 }

let classify_word rig memo ~word =
  let c = Runtime.Store.get memo.store word in
  if c >= 0 then begin
    memo.memoized <- memo.memoized + 1;
    c
  end
  else begin
    let c = category_index (run_word rig ~word) in
    Runtime.Store.set memo.store word c;
    memo.executed <- memo.executed + 1;
    c
  end

(* [flipped] is the mask's Figure 2 weight ([Fault_model.flipped_bits]),
   passed in because the sequential sweep already knows it. *)
let record rig memo t ~flipped ~mask =
  let word = Fault_model.apply rig.config.flip ~mask rig.target in
  let idx = classify_word rig memo ~word in
  t.by_weight.(flipped).(idx) <- t.by_weight.(flipped).(idx) + 1;
  if flipped > 0 then t.totals.(idx) <- t.totals.(idx) + 1

(* Counts are merged with integer addition — commutative and
   associative — so the merged result is bit-identical whatever the
   domain count or chunk schedule. *)
let merge_into dst (src : tally) =
  Array.iteri
    (fun w row -> Array.iteri (fun i n -> row.(i) <- row.(i) + n) src.by_weight.(w))
    dst.by_weight;
  Array.iteri (fun i n -> dst.totals.(i) <- dst.totals.(i) + n) src.totals

(* The single-domain path: one rig, one memo, masks in weight order. *)
let run_case_seq ?store config (case : Testcase.t) =
  let rig = make_rig config case in
  let memo = make_memo ?store () in
  let t = make_tally () in
  Bitmask.iter_all ~width (fun ~weight ~mask ->
      let flipped = Fault_model.flipped_of_weight config.flip ~width ~weight in
      record rig memo t ~flipped ~mask);
  { case; config; by_weight = t.by_weight; totals = t.totals;
    stats = { executed = memo.executed; memoized = memo.memoized } }

(* The parallel path: the 2^16 mask space is cut into contiguous
   slices; each worker domain drains slices into a private rig and
   tally but a SHARED word-outcome store, and per-worker tallies are
   summed. Classification depends only on (config, case, mask), so the
   merged counts equal the sequential ones exactly whatever the races
   on the store resolve to; the executed/memoized split, by contrast,
   is schedule-dependent (a word raced by two workers on a cold slot
   counts as two executions), so only executed + memoized and the
   tables themselves are deterministic. *)
let run_case_in ?store pool config (case : Testcase.t) =
  let q =
    Runtime.Chunk.queue ~lo:0 ~hi:(1 lsl width) ~jobs:(Runtime.Pool.jobs pool) ()
  in
  let store = match store with Some s -> s | None -> make_store () in
  let parts =
    Runtime.Pool.map_workers pool (fun _wid ->
        let rig = make_rig config case in
        let memo = make_memo ~store () in
        let t = make_tally () in
        let rec drain () =
          match Runtime.Chunk.take q with
          | None -> ()
          | Some (lo, hi) ->
            for mask = lo to hi - 1 do
              let flipped = Fault_model.flipped_bits config.flip ~width ~mask in
              record rig memo t ~flipped ~mask
            done;
            drain ()
        in
        drain ();
        (t, memo.executed, memo.memoized))
  in
  let t = make_tally () in
  let executed = ref 0 and memoized = ref 0 in
  List.iter
    (fun (part, e, m) ->
      merge_into t part;
      executed := !executed + e;
      memoized := !memoized + m)
    parts;
  { case; config; by_weight = t.by_weight; totals = t.totals;
    stats = { executed = !executed; memoized = !memoized } }

let run_case ?pool ?store config case =
  match pool with
  | Some pool when Runtime.Pool.jobs pool > 1 -> run_case_in ?store pool config case
  | Some _ | None -> run_case_seq ?store config case

let run_all ?pool config cases = List.map (run_case ?pool config) cases

let count results perf =
  let executed, memoized =
    List.fold_left
      (fun (e, m) r -> (e + r.stats.executed, m + r.stats.memoized))
      (0, 0) results
  in
  { perf with Stats.Perf.items = executed + memoized; executed; memoized }

type sweep = {
  categories : category array;
  by_word : category option array;
  sweep_stats : sweep_stats;
}

let sweep config (case : Testcase.t) =
  let rig = make_rig config case in
  let memo = make_memo () in
  let categories =
    Array.init (1 lsl width) (fun mask ->
        let word = Fault_model.apply config.flip ~mask rig.target in
        category_of_index (classify_word rig memo ~word))
  in
  { categories;
    by_word =
      Array.init (1 lsl width) (fun word ->
          match Runtime.Store.get memo.store word with
          | -1 -> None
          | c -> Some (category_of_index c));
    sweep_stats = { executed = memo.executed; memoized = memo.memoized } }

let categories_by_mask config case = (sweep config case).categories

let success_rate_by_weight (result : result) =
  List.init (width + 1) (fun flipped ->
      let row = result.by_weight.(flipped) in
      let den = Array.fold_left ( + ) 0 row in
      let num = row.(category_index Success) in
      (flipped, Stats.Rate.pct ~num ~den))
  |> List.filter (fun (flipped, _) ->
         Array.fold_left ( + ) 0 result.by_weight.(flipped) > 0)

let category_percent (result : result) cat =
  let num = result.totals.(category_index cat) in
  let den = Array.fold_left ( + ) 0 result.totals in
  Stats.Rate.pct ~num ~den
