(** Exact order statistics over raw samples. *)

val sorted : float array -> float array
(** An ascending copy. *)

val of_sorted : float array -> float -> float
(** [of_sorted s q] is the nearest-rank [q]-quantile of the ascending
    array [s]: the smallest sample with at least a fraction [q] of all
    samples at or below it.  Always one of the samples.  Raises
    [Invalid_argument] on an empty array or [q] outside [[0, 1]]. *)

val median : float array -> float
(** The middle sample, or the mean of the two middle samples (Python's
    [statistics.median]). *)

val geomean : float array -> float
(** The geometric mean.  Raises [Invalid_argument] on an empty array or a
    sample that is not positive. *)

val quartiles : float array -> float * float
(** First and third quartile as Python's
    [statistics.quantiles(xs, n=4)] computes them (the default
    "exclusive" method); one sample gives that sample twice. *)

val relative_spread : float array -> float
(** Interquartile distance as a share of the median. *)

val union_length : (int * int) array -> int
(** Total length covered by a set of [(start, stop)] intervals, each
    point counted once however many intervals overlap it. *)
