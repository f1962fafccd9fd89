(** Plan execution with the paper's cost accounting.

    Charges while running a plan:
    - page touches go through the relations' {!Dbproc_storage.Io.t} and are
      deduplicated per execution (a page touched twice in one query charges
      once — the Yao-function assumption);
    - one [C1] CPU screen per tuple materialized by the base access path;
    - one [C1] per outer tuple per join-probe stage (the paper's
      "additional [C1 fN] predicate tests" per join).

    Tuples flowing between stages are concatenations of the source tuples,
    matching {!View_def.schema}.

    Plans run through the compiled batch pipeline ({!Compiled}).  It
    charges exactly what a tuple-at-a-time interpreter charges for the
    same plan — the cost model prices page and screen touches, not
    dispatch.  The tests keep such an interpreter as a reference and
    compare it with every entry point below on tuples, pages, screens and
    simulated milliseconds. *)

open Dbproc_relation

val run : Plan.t -> Tuple.t list
(** Execute a full plan. *)

val run_base : Plan.t -> Tuple.t list
(** Execute only the base access path (no probes). *)

val probe_chain : probes:Plan.join_probe list -> outer:Tuple.t list -> Tuple.t list
(** Push already-materialized outer tuples through a chain of join probes
    — the building block AVM uses to join delta tuples to the other base
    relations.  Charged like the probe stages of {!run} (page dedup scoped
    to this call). *)

(** {2 Prepared plans}

    A {!prepared} bundles a plan with its lazily compiled batch pipeline,
    so a statement executed many times (the statement cache, procedure
    managers) pays compilation once.  Preparation charges nothing, so
    caching it cannot change simulated cost. *)

type prepared

val prepare : Plan.t -> prepared

val run_prepared : prepared -> Tuple.t list
(** Like {!run}; the pipeline is compiled on first use and reused. *)
