(** Small statistics helpers used by the workload driver and benches. *)

val mean : float list -> float
(** Arithmetic mean.  [nan] on the empty list. *)

val variance : float list -> float
(** Population variance.  [nan] on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [[0, 1]]; linear interpolation between
    order statistics.  @raise Invalid_argument on an empty list or [p]
    outside [[0, 1]]. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values. *)

val relative_error : expected:float -> actual:float -> float
(** [(actual - expected) / expected]; 0 when both are 0. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on the empty list. *)
