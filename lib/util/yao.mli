(** Page-touch estimation: the Yao function and its approximations.

    Given a file of [n] records stored on [m] blocks, the Yao function
    [y n m k] gives the expected number of distinct blocks touched when [k]
    records are accessed at random without replacement [Yao77].  The paper
    (Appendix A) uses a piecewise approximation built on Cardenas'
    formula [Car75]; that approximation is what all the cost formulas call,
    so it is reproduced here exactly. *)

val exact : n:int -> m:int -> k:int -> float
(** [exact ~n ~m ~k] is the exact Yao function
    [m * (1 - C(n - n/m, k) / C(n, k))].  Requires [m > 0], [n >= m] and
    [0 <= k <= n].  Computed with log-space binomials, so it is stable for
    the paper's parameter ranges (n up to 10^6).

    @raise Invalid_argument if the preconditions do not hold. *)

val cardenas : m:float -> k:float -> float
(** [cardenas ~m ~k] is Cardenas' approximation [m * (1 - (1 - 1/m)^k)].
    Close to {!exact} when the blocking factor [n/m] exceeds ~10 and [m] is
    not near 1. *)

val paper : n:float -> m:float -> k:float -> float
(** [paper ~n ~m ~k] is the approximation defined in Appendix A of the
    paper, used by every cost formula:
    - if [k <= 1] the result is [k] (a stored object occupies at least the
      fraction of a page its records need);
    - else if [m < 1] the result is [1];
    - else if [m < 2] the result is [min k m];
    - otherwise Cardenas' approximation.

    Arguments are real-valued because the paper passes expected (fractional)
    record and block counts. *)
