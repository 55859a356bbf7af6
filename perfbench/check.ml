(* Output checks behind [failed]. They run outside the timed region;
   each returns the number of failed operations (a sweep, a campaign
   or a request). *)

open Glitch_emu

(* --- fig2 ---------------------------------------------------------------- *)

(* Exact per-pass counters. Xor sweeps get no memo hits (14 x 65,536
   executions); the And/Or sweeps execute only their distinct words. *)
let fig2_executed = 960_016
let fig2_memoized = 3_103_216

let same_tables (a : Campaign.result) (b : Campaign.result) =
  a.by_weight = b.by_weight && a.totals = b.totals

(* Failed sweeps of a pass against the first pass's [reference]
   results; a pass whose counters drift from the pinned ones fails
   every sweep. *)
let fig2_pass ~(reference : Campaign.result array) (results : Campaign.result array) =
  let executed, memoized =
    Array.fold_left
      (fun (e, m) (r : Campaign.result) -> (e + r.stats.executed, m + r.stats.memoized))
      (0, 0) results
  in
  if executed <> fig2_executed || memoized <> fig2_memoized then Array.length results
  else
    Array.fold_left ( + ) 0
      (Array.mapi (fun i r -> if same_tables reference.(i) r then 0 else 1) results)

(* A sweep against the unmemoized [Campaign.run_one] oracle. Weights 0,
   1, 15 and 16 hold 34 masks, few enough to rebuild those rows
   exactly; [sample] further seeded masks must each land in a non-empty
   cell of their weight's row. *)
let fig2_oracle ~rng ~sample (r : Campaign.result) =
  let width = 16 in
  let ncat = List.length Campaign.categories in
  let weight mask = Fault_model.flipped_bits r.config.flip ~width ~mask in
  let exact w = w <= 1 || w >= width - 1 in
  let rows = Array.init (width + 1) (fun _ -> Array.make ncat 0) in
  for mask = 0 to 0xFFFF do
    let w = weight mask in
    if exact w then begin
      let c = Campaign.category_index (Campaign.run_one r.config r.case ~mask) in
      rows.(w).(c) <- rows.(w).(c) + 1
    end
  done;
  let rows_ok =
    List.for_all (fun w -> rows.(w) = r.by_weight.(w)) [ 0; 1; width - 1; width ]
  in
  let sample_ok =
    List.for_all
      (fun mask ->
        let c = Campaign.category_index (Campaign.run_one r.config r.case ~mask) in
        r.by_weight.(weight mask).(c) > 0)
      (List.init sample (fun _ -> Random.State.int rng 0x10000))
  in
  rows_ok && sample_ok

(* --- exhaust --------------------------------------------------------------- *)

let exhaust_points = 835_584
let exhaust_faulted = 190_702
let exhaust_executed = 1_550
let exhaust_pruned = 643_332
let exhaust_states = 1_550

(* Per-function verdict counts, then the TOTAL row, as
   [(No effect, Silent, Bad read, Bad write, Bad fetch, Invalid)];
   every other verdict is 0. *)
let exhaust_rows =
  [ ("__start", (364, 80, 34, 31, 256, 51));
    ("main", (412_579, 169_162, 108_222, 92_437, 22_050, 30_318)) ]

let exhaust_totals = (412_943, 169_242, 108_256, 92_468, 22_306, 30_369)

let verdict_counts (ne, si, br, bw, bf, inv) =
  let open Exhaust.Campaign in
  let a = Array.make nverdicts 0 in
  List.iter
    (fun (v, n) -> a.(verdict_index v) <- n)
    [ (No_effect, ne); (Silent, si); (Bad_read, br); (Bad_write, bw);
      (Bad_fetch, bf); (Invalid, inv) ];
  a

(* The first mismatch against the pinned campaign, if any. *)
let exhaust_mismatch (r : Exhaust.Campaign.result) =
  let sum = Array.fold_left ( + ) 0 in
  let rows_sum =
    List.fold_left (fun acc (row : Exhaust.Campaign.row) -> acc + sum row.counts) 0 r.rows
  in
  let pinned_rows =
    List.map (fun (f, c) -> (f, verdict_counts c)) exhaust_rows
  in
  let rows = List.map (fun (row : Exhaust.Campaign.row) -> (row.fname, row.counts)) r.rows in
  List.find_opt
    (fun (ok, _) -> not ok)
    [ (r.points = exhaust_points, "points");
      (r.faulted = exhaust_faulted, "faulted");
      (r.executed = exhaust_executed, "executed");
      (r.pruned = exhaust_pruned, "pruned");
      (r.states = exhaust_states, "states");
      (rows = pinned_rows, "rows");
      (r.totals = verdict_counts exhaust_totals, "totals");
      (rows_sum = r.points, "rows do not sum to points") ]
  |> Option.map snd

(* --- serve ------------------------------------------------------------------ *)

type tables = int array array * int array

type reply = { ok : bool; cache : string option; tables : tables option }

let tables_of_result (r : Campaign.result) = (r.by_weight, r.totals)

(* A response line as the checks need it; [None] when it is not one
   JSON object with a boolean "ok". *)
let reply_of_line text =
  let module J = Service.Json in
  let ints l = List.map (fun j -> Option.value ~default:(-1) (J.int_value j)) l in
  match J.of_string text with
  | Error _ -> None
  | Ok json -> (
    match Option.bind (J.member "ok" json) J.bool_value with
    | None -> None
    | Some ok ->
      let cache = Option.bind (J.member "cache" json) J.string_value in
      let tables =
        match (J.member "by_weight" json, J.member "totals" json) with
        | Some (J.List rows), Some (J.Obj totals) ->
          let row = function J.List l -> Array.of_list (ints l) | _ -> [||] in
          let total c =
            Option.value ~default:(-1)
              (Option.bind (List.assoc_opt (Campaign.category_name c) totals) J.int_value)
          in
          Some
            ( Array.of_list (List.map row rows),
              Array.of_list (List.map total Campaign.categories) )
        | _ -> None
      in
      Some { ok; cache; tables })

let config_of_key (k : Stream.key) =
  let flip =
    match k.model with
    | "and" -> Fault_model.And
    | "or" -> Fault_model.Or
    | _ -> Fault_model.Xor
  in
  { (Campaign.default_config flip) with zero_is_invalid = k.zero_is_invalid }

(* Checks shared by every pass of a run: the first miss of each key
   fixes its tables, later misses and hits must repeat them, and
   [serve_reference] finally compares each key's tables with a direct
   [Campaign.run_case]. *)
type serve = {
  miss_tables : (int, tables) Hashtbl.t;
  misses : (int, int) Hashtbl.t;
  mutable hits_seen : int;
  mutable misses_seen : int;
  mutable errors_seen : int;
}

let serve_create () =
  { miss_tables = Hashtbl.create 128;
    misses = Hashtbl.create 128;
    hits_seen = 0;
    misses_seen = 0;
    errors_seen = 0 }

(* Failed requests of one pass: [sessions] pairs each session's lines
   with its response lines. *)
let serve_pass st sessions =
  let seen = Hashtbl.create 128 in
  let failed = ref 0 in
  List.iteri
    (fun session (lines, responses) ->
      if Array.length lines <> Array.length responses then
        failed := !failed + Array.length lines
      else
        Array.iteri
          (fun i (line : Stream.line) ->
            let reply =
              if String.contains responses.(i) '\n' then None
              else reply_of_line responses.(i)
            in
            let ok =
              match (line.key, reply) with
              | _, None -> false
              | None, Some r ->
                if not r.ok then st.errors_seen <- st.errors_seen + 1;
                not r.ok
              | Some k, Some { ok = true; cache = Some c; tables = Some t } ->
                let expect_miss = session = 0 && not (Hashtbl.mem seen k) in
                Hashtbl.replace seen k ();
                if c = "miss" then begin
                  st.misses_seen <- st.misses_seen + 1;
                  Hashtbl.replace st.misses k
                    (1 + Option.value ~default:0 (Hashtbl.find_opt st.misses k));
                  if not (Hashtbl.mem st.miss_tables k) then
                    Hashtbl.replace st.miss_tables k t
                end
                else if c = "hit" then st.hits_seen <- st.hits_seen + 1;
                expect_miss = (c = "miss")
                && (c = "miss" || c = "hit")
                && Hashtbl.find_opt st.miss_tables k = Some t
              | Some _, Some _ -> false
            in
            if not ok then incr failed)
          lines)
    sessions;
  !failed

(* Misses whose key's tables differ from a direct [run_case]. *)
let serve_reference st =
  Hashtbl.fold
    (fun k t failed ->
      let key = Stream.keys.(k) in
      match Service.find_case key.case with
      | None -> failed + Hashtbl.find st.misses k
      | Some case ->
        let r = Campaign.run_case (config_of_key key) case in
        if tables_of_result r = t then failed else failed + Hashtbl.find st.misses k)
    st.miss_tables 0
