(** Wall-clock timing and throughput counters for campaign sweeps.

    Each parallel campaign wraps its hot loop in {!time} and emits the
    result both human-readably ({!pp}) and as a single machine-readable
    [PERF] line ({!machine_line}) that the bench trajectory greps for,
    e.g.:

    {v PERF experiment=fig2 jobs=4 items=4456448 seconds=3.271 rate=1362411.5 executed=51240 memoized=4405208 hit_rate=0.9885 v}

    The counters of a record come from the result it timed, through the
    [count] function of the library that owns the result type
    ([Glitch_emu.Campaign.count], [Hw.Attack.count],
    [Exhaust.Campaign.count]) or {!items}; {!to_json} serialises a
    record for the [BENCH_*.json] artifacts. *)

type t = {
  label : string;  (** experiment name; keep it shell-token safe *)
  jobs : int;  (** worker domains used *)
  items : int;  (** work units processed (masks, attempts, ...) *)
  elapsed_s : float;  (** wall-clock seconds *)
  executed : int;  (** items that did real work *)
  memoized : int;  (** items served from a memo (default: 0) *)
  pruned : int;
      (** items whose outcome was proven equal to an already-executed
          one — state-hash equivalence or dead-schedule cutoffs in the
          exhaustive campaigns (default: 0) *)
  static_pruned : int;
      (** items proven outright by the abstract fault-flow interpreter —
          never emulated, never shared (default: 0) *)
  booted_cycles : int;  (** board cycles emulated step by step (default: 0) *)
  replayed_cycles : int;
      (** board cycles served by snapshot replay — pre-trigger boots and
          dead-schedule tails the hardware sweeps no longer emulate
          (default: 0) *)
  wait_s : float;
      (** worker-seconds of pool capacity spent waiting on the work
          queue or region barriers rather than in job functions
          (default: 0) *)
  utilization : float;
      (** fraction of [jobs * wall] spent inside job functions, in
          [0, 1] (default: 1) *)
}

val time :
  ?pool:Runtime.Pool.t ->
  label:string ->
  count:('a -> t -> t) ->
  (unit -> 'a) ->
  'a * t
(** [time ?pool ~label ~count f] runs [f] and measures its wall-clock
    time (monotonic across domains, unlike [Sys.time] which sums CPU
    time), then fills the work counters with [count] applied to [f]'s
    result. With [pool], [jobs] is the pool's worker count, the pool's
    region accounting is reset on entry, and the regions [f] ran are
    folded into [wait_s] and [utilization]; without one, [jobs] is 1 and
    both keep their defaults. *)

val items : int -> t -> t
(** [items n] counts [n] work units, every one executed — the [count]
    for results whose owner keeps no finer split. *)

val replay_rate : t -> float
(** [replayed / (booted + replayed)] in [0, 1]; 0 when no cycles were
    recorded. *)

val throughput : t -> float
(** Items per second; 0 for a degenerate zero-length interval. *)

val hit_rate : t -> float
(** [memoized / (executed + memoized)] in [0, 1]; 0 when no items. *)

val prune_rate : t -> float
(** [pruned / (executed + pruned)] in [0, 1]; 0 when no items. *)

val machine_line : t -> string
(** One [PERF key=value ...] line, no trailing newline. *)

val to_json : t -> Json.t
(** One JSON object, one line of a [BENCH_*.json] array. *)

val pp : t Fmt.t
(** Human-readable summary, e.g.
    ["fig2: 4456448 items in 3.27s (1362411 items/s, 4 jobs)"]. *)
