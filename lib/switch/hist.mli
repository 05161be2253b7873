(** Log-bucketed histogram of non-negative int samples: the one quantile
    engine for everything that runs as a service.

    Buckets grow by [2^(1/8)], so {!record} is O(1) and allocation-free,
    memory is fixed whatever the sample count, and a quantile is within
    one bucket (~9%) of the exact nearest-rank value.  Count, sum, min and
    max are exact, and quantiles are clamped to [\[min, max\]] (a constant
    series reports its value, an all-zero one 0).  Times are recorded as
    integer ns, counts as counts.  Per-domain histograms {!merge} after a
    join, so recording needs no synchronisation. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Negative samples clamp to 0 (a clock that steps backwards). *)

val record_ms : t -> float -> unit
(** Milliseconds, recorded as integer ns. *)

val count : t -> int
val max_ns : t -> int
val mean_ns : t -> float

val p50 : t -> float
(** The geometric midpoint of the bucket holding the nearest-rank sample,
    clamped to [\[min, max\]]; [0.0] when empty.  O(buckets). *)

val p99 : t -> float
val p999 : t -> float

val summary : ?scale:float -> t -> Measure.summary
(** Every field divided by [scale] (default 1; [1e6] turns ns into ms).
    count, total, mean, min and max are exact; p50/p95/p99 bucketed. *)

val buckets : t -> (float * int) list
(** Non-empty buckets, ascending: (exclusive upper edge, count). *)

val merge : into:t -> t -> unit
