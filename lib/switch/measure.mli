(** Wall-clock measurement and summary statistics for experiment runs.

    {!summarize} and {!Series} sort every sample for exact nearest-rank
    percentiles, for bounded offline runs ({!Firmware}, {!Queue_sim}, the
    paper experiments); services meter into a fixed-size {!Hist}. *)

val now_ms : unit -> float
(** Monotonic-enough wall clock in milliseconds (gettimeofday-based; the
    measured spans are pure computation, so NTP skew is a non-issue at the
    durations involved). *)

val time_ms : (unit -> 'a) -> 'a * float
(** Run the thunk, returning its result and the elapsed milliseconds. *)

type summary = {
  count : int;
  total : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Percentiles by nearest-rank on a sorted copy.  All fields are 0 for an
    empty array. *)

val pp_summary : Format.formatter -> summary -> unit

module Series : sig
  (** A growable series of float samples, kept whole. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val to_array : t -> float array
  val summary : t -> summary
end
