type t = {
  label : string;
  jobs : int;
  items : int;
  elapsed_s : float;
  executed : int;
  memoized : int;
  pruned : int;
  static_pruned : int;
  booted_cycles : int;
  replayed_cycles : int;
  wait_s : float;
  utilization : float;
}

let time ~label ~jobs ~items f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  ( v,
    { label;
      jobs;
      items;
      elapsed_s;
      executed = items;
      memoized = 0;
      pruned = 0;
      static_pruned = 0;
      booted_cycles = 0;
      replayed_cycles = 0;
      wait_s = 0.;
      utilization = 1. } )

let with_memo ~executed ~memoized t = { t with executed; memoized }

let with_pruned ?(static_pruned = 0) ~executed ~pruned t =
  { t with executed; pruned; static_pruned }

let with_cycles ~booted ~replayed t =
  { t with booted_cycles = booted; replayed_cycles = replayed }

let with_pool_stats ~wait_s ~utilization t = { t with wait_s; utilization }

let throughput t =
  if t.elapsed_s <= 0. then 0. else float_of_int t.items /. t.elapsed_s

let hit_rate t =
  let total = t.executed + t.memoized in
  if total = 0 then 0. else float_of_int t.memoized /. float_of_int total

let replay_rate t =
  let total = t.booted_cycles + t.replayed_cycles in
  if total = 0 then 0. else float_of_int t.replayed_cycles /. float_of_int total

let prune_rate t =
  let total = t.executed + t.pruned in
  if total = 0 then 0. else float_of_int t.pruned /. float_of_int total

let machine_line t =
  let base =
    Printf.sprintf
      "PERF experiment=%s jobs=%d items=%d seconds=%.3f rate=%.1f executed=%d \
       memoized=%d hit_rate=%.4f"
      t.label t.jobs t.items t.elapsed_s (throughput t) t.executed t.memoized
      (hit_rate t)
  in
  let base =
    if t.pruned = 0 then base
    else
      Printf.sprintf "%s pruned=%d prune_rate=%.4f" base t.pruned (prune_rate t)
  in
  let base =
    if t.static_pruned = 0 then base
    else Printf.sprintf "%s static_pruned=%d" base t.static_pruned
  in
  let base =
    if t.booted_cycles = 0 && t.replayed_cycles = 0 then base
    else
      Printf.sprintf "%s booted_cycles=%d replayed_cycles=%d replay_rate=%.4f"
        base t.booted_cycles t.replayed_cycles (replay_rate t)
  in
  if t.wait_s = 0. && t.utilization = 1. then base
  else
    Printf.sprintf "%s wait_s=%.3f utilization=%.4f" base t.wait_s
      t.utilization

let to_json t =
  Json.Obj
    [ ("label", String t.label);
      ("jobs", Int t.jobs);
      ("items", Int t.items);
      ("seconds", Fixed (6, t.elapsed_s));
      ("rate", Fixed (1, throughput t));
      ("executed", Int t.executed);
      ("memoized", Int t.memoized);
      ("hit_rate", Fixed (6, hit_rate t));
      ("pruned", Int t.pruned);
      ("prune_rate", Fixed (6, prune_rate t));
      ("static_pruned", Int t.static_pruned);
      ("booted_cycles", Int t.booted_cycles);
      ("replayed_cycles", Int t.replayed_cycles);
      ("replay_rate", Fixed (6, replay_rate t));
      ("wait_s", Fixed (6, t.wait_s));
      ("utilization", Fixed (6, t.utilization)) ]

let pp ppf t =
  Fmt.pf ppf "%s: %d items in %.2fs (%.0f items/s, %d job%s" t.label t.items
    t.elapsed_s (throughput t) t.jobs
    (if t.jobs = 1 then "" else "s");
  if t.memoized > 0 then
    Fmt.pf ppf ", %d executed / %d memoized = %.1f%% memo hits" t.executed
      t.memoized
      (100. *. hit_rate t);
  if t.pruned > 0 then
    Fmt.pf ppf ", %d executed / %d pruned = %.1f%% pruned" t.executed t.pruned
      (100. *. prune_rate t);
  if t.static_pruned > 0 then
    Fmt.pf ppf ", %d statically proven" t.static_pruned;
  if t.booted_cycles > 0 || t.replayed_cycles > 0 then
    Fmt.pf ppf ", %d cycles emulated / %d replayed = %.1f%% replay"
      t.booted_cycles t.replayed_cycles
      (100. *. replay_rate t);
  if t.wait_s > 0. || t.utilization < 1. then
    Fmt.pf ppf ", %.2fs wait, %.0f%% utilization" t.wait_s
      (100. *. t.utilization);
  Fmt.pf ppf ")"
