(* The three workloads' passes, single-domain (no [Runtime.Pool]).
   Every call into a library goes through [Trace.span], which costs
   nothing unless the run is traced. *)

open Glitch_emu

(* --- fig2: the Figure 2 sweep kernel ---------------------------------- *)

type sweep = { config : Campaign.config; case : Testcase.t; xor : bool }

(* 14 branches x {And, Or, And with zero_is_invalid, Xor}, then the 3
   non-branch cases x {And, Or}: 62 sweeps of 65,536 masks. *)
let fig2_sweeps =
  let cfg flip = Campaign.default_config flip in
  let branch_configs =
    [ cfg Fault_model.And;
      cfg Fault_model.Or;
      { (cfg Fault_model.And) with zero_is_invalid = true };
      cfg Fault_model.Xor ]
  in
  let sweeps configs cases =
    List.concat_map
      (fun (config : Campaign.config) ->
        List.map
          (fun case -> { config; case; xor = config.flip = Fault_model.Xor })
          cases)
      configs
  in
  Array.of_list
    (sweeps branch_configs Testcase.all_conditional_branches
    @ sweeps [ cfg Fault_model.And; cfg Fault_model.Or ] Testcase.non_branch_cases)

let fig2_masks = Array.length fig2_sweeps * 65_536

(* One pass: every sweep with a fresh memo store. Returns the results
   and each sweep's time in ns. *)
let fig2_pass () =
  Trace.span "pass.fig2" (fun () ->
      Array.map
        (fun s ->
          Clock.time (fun () ->
              Trace.span "glitch_emu.run_case" (fun () ->
                  Campaign.run_case s.config s.case)))
        fig2_sweeps)

(* --- exhaust: the whole-firmware injector on guard_loop ---------------- *)

(* examples/firmware/guard_loop.c: the most glitchable guard from
   Section V, built without defenses. *)
let guard_loop =
  {|volatile unsigned a = 0;
volatile unsigned attack_success = 0;

int main(void) {
  __trigger_high();
  while (!a) { }
  attack_success = 170;
  __trigger_low();
  __halt();
  return 0;
}
|}

let compile () =
  Trace.span "resistor.compile" (fun () ->
      Resistor.Driver.compile Resistor.Config.none guard_loop)

let exhaust_input () =
  let compiled = compile () in
  ( Exhaust.Campaign.spec_of_image ~name:"guard_loop"
      compiled.Resistor.Driver.image,
    Exhaust.Campaign.default_config () )

let exhaust_pass (spec, config) =
  Trace.span "pass.exhaust" (fun () ->
      Trace.span "exhaust.run" (fun () -> Exhaust.Campaign.run spec config))

(* --- serve: the audit service over a seeded request stream ------------- *)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* One pass: two sessions over a fresh cache directory [dir]. Returns
   each session's responses and each request's time in ns. *)
let serve_pass ~dir ((s1 : Stream.line array), (s2 : Stream.line array)) =
  Trace.span "pass.serve" (fun () ->
      let cache = Trace.span "cache.open_dir" (fun () -> Cache.open_dir dir) in
      let session lines =
        let svc = Trace.span "service.create" (fun () -> Service.create ~cache ()) in
        Array.map
          (fun (l : Stream.line) ->
            Clock.time (fun () ->
                Trace.span "service.handle_line" (fun () ->
                    Service.handle_line svc l.text)))
          lines
      in
      let r1 = session s1 in
      let r2 = session s2 in
      (r1, r2))

(* --- closed-loop runners ------------------------------------------------- *)

(* What one pass did: [items] units of work (masks, injection points or
   requests) over [ops] operations (sweeps, campaigns or requests),
   [failed] of which failed their checks, with each operation's time. *)
type outcome = { items : int; failed : int; pass_ns : int; op_ns : int array }

(* The steady times of a run's passes. Every pass repeats the same
   operations, so operation [i]'s steady time is the minimum of its
   times over the passes ([op_ms.(i)]), and likewise for the rest of a
   pass, its time outside the operations ([rest_ms]). The shared host's
   noise only ever adds time (other tenants' load, slow stretches
   lasting seconds), so the fastest sample is the steadiest estimate
   of what the work itself costs. *)
type steady = { op_ms : float array; rest_ms : float }

let steady (passes : outcome list) =
  let ops = match passes with o :: _ -> Array.length o.op_ns | [] -> invalid_arg "Workloads.steady: no passes" in
  if List.exists (fun o -> Array.length o.op_ns <> ops) passes then
    invalid_arg "Workloads.steady: passes differ in operations";
  let fastest f = List.fold_left (fun m o -> Float.min m (f o)) infinity passes in
  { op_ms = Array.init ops (fun i -> fastest (fun o -> Clock.ms o.op_ns.(i)));
    rest_ms = fastest (fun o -> Clock.ms (o.pass_ns - Array.fold_left ( + ) 0 o.op_ns)) }

(* Items per second of a pass that takes its steady time. *)
let steady_items_per_s passes =
  let s = steady passes in
  float_of_int (List.hd passes).items /. ((Array.fold_left ( +. ) s.rest_ms s.op_ms) /. 1e3)

type runner = {
  pass : unit -> outcome;
  finish : unit -> int;  (** failures found by the end-of-run checks *)
}

let fig2 ~seed =
  let reference = ref None in
  let rng = Random.State.make [| 0xf192; seed |] in
  let pass () =
    let timed, pass_ns = Clock.time fig2_pass in
    let results = Array.map fst timed in
    let failed =
      match !reference with
      | Some reference -> Check.fig2_pass ~reference results
      | None ->
        reference := Some results;
        Check.fig2_pass ~reference:results results
        + Array.fold_left
            (fun n r -> if Check.fig2_oracle ~rng ~sample:4 r then n else n + 1)
            0 results
    in
    { items = fig2_masks; failed; pass_ns; op_ns = Array.map snd timed }
  in
  { pass; finish = (fun () -> 0) }

let exhaust input =
  let pass () =
    let r, pass_ns = Clock.time (fun () -> exhaust_pass input) in
    { items = r.Exhaust.Campaign.points;
      failed = (if Check.exhaust_mismatch r = None then 0 else 1);
      pass_ns;
      op_ns = [| pass_ns |] }
  in
  { pass; finish = (fun () -> 0) }

(* [scratch] must exist; each pass uses and then removes a fresh cache
   directory under it. *)
let serve ~scratch stream =
  let st = Check.serve_create () in
  let n = ref 0 in
  let pass () =
    incr n;
    let dir = Filename.concat scratch (Printf.sprintf "pass-%d" !n) in
    let (r1, r2), pass_ns = Clock.time (fun () -> serve_pass ~dir stream) in
    let s1, s2 = stream in
    let failed = Check.serve_pass st [ (s1, Array.map fst r1); (s2, Array.map fst r2) ] in
    remove dir;
    { items = Array.length s1 + Array.length s2;
      failed;
      pass_ns;
      op_ns = Array.map snd (Array.append r1 r2) }
  in
  { pass; finish = (fun () -> Check.serve_reference st) }
