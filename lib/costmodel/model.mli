(** The paper's closed-form cost model: expected cost (ms) per procedure
    access for each strategy, in both procedure models.

    Model 1: P1 procedures are single-relation selections on R1, P2
    procedures are 2-way joins (R1 ⋈ R2).  Model 2: P2 procedures are
    3-way joins (R1 ⋈ R2 ⋈ R3).  Formulas follow Sections 4 and 6 of the
    paper verbatim (including the printed per-term I/O factors; see
    EXPERIMENTS.md for the two places the paper's text and tables
    disagree and which reading we use). *)

type which = Model1 | Model2

val which_name : which -> string

val cost : which -> Params.t -> Strategy.t -> float
(** Expected total cost per procedure access, the quantity plotted on the
    y-axis of every figure. *)

val per_procedure :
  which -> Params.t -> p_hat:float -> f_hat:float -> p2:bool -> Strategy.t -> float
(** {!cost} specialized to a single procedure with online-estimated
    statistics — what the adaptive selector in
    [Dbproc_proc.Manager] evaluates at each decision window.  [p_hat] is
    the observed update probability (clamped to [\[0, 0.99\]]), [f_hat]
    the observed result selectivity (result cardinality / N; for a P2
    procedure this is f·f2 and the model divides f2 back out), [p2]
    whether the procedure joins a second relation.  The rest of [Params.t]
    (page geometry, unit costs, locality) is taken as given. *)

val breakdown : which -> Params.t -> Strategy.t -> (string * float) list
(** Named cost components summing to {!cost} (query-time terms are listed
    as-is; per-update terms are already scaled by k/q). *)

(** {2 Intermediate quantities} (exposed for tests against hand-computed
    values) *)

val flush_pages : m:float -> k:float -> float
(** Expected store pages touched by one coalesced HOIVM flush:
    m·(1 − e^(−k/m)) with [m] floored at one page — the Poissonized form
    of the Yao draw, because the per-window delta count [k] is an
    expectation over independent interval hits, not a deterministic draw
    size.  Agrees with Yao for k ≪ 1 and saturates at the store's page
    count for k ≫ m. *)

val c_query_p1 : Params.t -> float
val c_query_p2 : which -> Params.t -> float
val c_process_query : which -> Params.t -> float
val invalidation_probability : Params.t -> float
(** IP: the probability a cached value is invalid when accessed, under the
    hot/cold locality model. *)

val false_invalidation_probability : Params.t -> float
(** 1 − f2: probability that an invalidation of a P2 procedure was
    unnecessary (Section 5). *)
