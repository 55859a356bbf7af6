(** Static-vs-dynamic agreement report: {!Analysis.Surface} scores next
    to exhaustive-campaign ground truth, per function. *)

type row = {
  fname : string;
  static_control : float;
  static_fault : float;
  static_control_reached : float;
      (** static score restricted to baseline-fetched instructions;
          equals [static_control] when no trace was supplied *)
  reached_insns : int;
  dyn_effect : float;
  dyn_fault : float;
  points : int;
}

type t = {
  rows : row list;
  weighted : bool;
  concordance : float;
      (** rank concordance over [static_control_reached] — the
          headline number *)
  concordance_unweighted : float;
  disagreements : string list;
}

val of_result :
  ?baseline:(int * int) array -> Analysis.Surface.t -> Campaign.result -> t
(** Join the two per-function views (functions present in both; the
    campaign must have run with the built-in classifier). [baseline] is
    the pristine [(pc, word)] trace from {!Campaign.baseline}: when
    supplied, the static column is additionally restricted to fetched
    instructions, which removes the cold-code handicap the unrestricted
    score carries against dynamic ground truth. *)

val pp : t Fmt.t
val to_json : t -> Stats.Json.t
