(** Compiled batch pipelines: a {!Plan.t} turned, once, into a chain of
    [Batch.t -> Batch.t] closures.

    [of_plan] resolves attribute positions, residual-term arrays and
    index accessors up front (all uncharged compile-time work), so
    execution runs batch-at-a-time with no per-tuple dispatch:

    - the base access path produces columnar batches of up to 1024 rows
      (scan chunks, hash-point fetch, or B-tree range in key order);
    - each join probe is one stage — an index probe per outer row, or a
      scan join against an inner relation read once per execution;
    - residual predicates are swept column-wise with selection vectors.

    {b Charge parity.}  The simulated cost model charges per page/screen
    touch, not per dispatch, and every bulk charge here counts exactly
    what the tuple-at-a-time interpreter charges for the same plan over
    the same data — same pages (through the same storage calls, under the
    caller's per-operation dedup), same [C1] screens, same
    [Tuples_scanned], and the same result-tuple order.  The tests keep
    that interpreter as a reference and check the parity as a property
    over random plans and the paper's workload.

    These entry points do not wrap {!Dbproc_storage.Io.with_touch_dedup}
    or bump [Plans_executed] — {!Executor} owns that. *)

open Dbproc_relation

type t

val of_plan : Plan.t -> t
(** Compile.  Uncharged (plans are compiled at definition time in the
    paper's strategies; the statement cache reuses the result). *)

val plan : t -> Plan.t
val pipeline : t -> string list
(** One printable line per pipeline stage (access path first) — what
    [Explain] prints as the compiled form. *)

val execute : t -> Tuple.t list
(** Run the full pipeline; tuples in the interpreter's order. *)

val execute_base : t -> Tuple.t list
(** Run only the base access path. *)

val probe_pipeline : Plan.join_probe list -> Tuple.t list -> Tuple.t list
(** Push already-materialized outer tuples through compiled probe
    stages (the AVM delta-join building block).  Charged like the probe
    stages of a full execution. *)
