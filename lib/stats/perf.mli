(** Wall-clock timing and throughput counters for campaign sweeps.

    Each parallel campaign wraps its hot loop in {!time} and emits the
    result both human-readably ({!pp}) and as a single machine-readable
    [PERF] line ({!machine_line}) that the bench trajectory greps for,
    e.g.:

    {v PERF experiment=fig2 jobs=4 items=4456448 seconds=3.271 rate=1362411.5 executed=51240 memoized=4405208 hit_rate=0.9885 v}

    Sweeps backed by the per-word outcome memo additionally record how
    many items were actually emulated versus replayed from the memo
    ({!with_memo}); {!to_json} serialises a record for the
    [BENCH_*.json] artifacts. *)

type t = {
  label : string;  (** experiment name; keep it shell-token safe *)
  jobs : int;  (** worker domains used *)
  items : int;  (** work units processed (masks, attempts, ...) *)
  elapsed_s : float;  (** wall-clock seconds *)
  executed : int;  (** items that did real work (default: [items]) *)
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

val time : label:string -> jobs:int -> items:int -> (unit -> 'a) -> 'a * t
(** Run the thunk and measure its wall-clock time (monotonic across
    domains, unlike [Sys.time] which sums CPU time). The returned record
    assumes every item was executed; adjust with {!with_memo}. *)

val with_memo : executed:int -> memoized:int -> t -> t
(** Attach memoization counters after the fact. *)

val with_pruned : ?static_pruned:int -> executed:int -> pruned:int -> t -> t
(** Attach exhaustive-campaign pruning counters after the fact;
    [static_pruned] counts points the abstract interpreter proved
    without any emulation. *)

val with_cycles : booted:int -> replayed:int -> t -> t
(** Attach booted-vs-replayed board-cycle counters after the fact (the
    hardware-leg analogue of {!with_memo}). *)

val with_pool_stats : wait_s:float -> utilization:float -> t -> t
(** Attach pool-overhead counters after the fact; compute them from
    {!Runtime.Pool.stats} with [Pool.stats_wait] /
    [Pool.stats_utilization]. *)

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
