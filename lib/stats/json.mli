(** A minimal JSON codec, shared by every JSON emitter and the audit
    service's line protocol — the dependency set has no JSON library.
    Covers all of JSON except that numbers are split into [Int] (exact
    63-bit integers) and [Float], and [\u]-escapes outside the BMP are
    not recombined into surrogate pairs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
      (** [Fixed (d, f)] prints [f] with exactly [d] decimals ([%.*f]),
          for report fields with a fixed precision. Output only:
          {!of_string} reads every non-integer number as [Float]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; anything but trailing whitespace
    after it is an error. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val string_value : t -> string option
val int_value : t -> int option
val bool_value : t -> bool option
