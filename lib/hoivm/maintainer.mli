(** Higher-order incremental view maintenance (HOIVM) — the post-paper
    fifth strategy: recursive delta processing after DBToaster
    [Koch et al.] with heavy-light partitioning of the input relations
    after Abo-Khamis et al. (PAPERS.md).

    Where the paper's AVM re-evaluates a join {e prefix} from base pages
    every time an inner source changes, this maintainer derives, at
    registration, one materialized {e delta view} per source (the
    restricted source contents, an α-memory) and one {e delta-of-delta
    view} per join prefix (sources [0..k]), each stored through
    {!Dbproc_storage.Heap_file} so every page is accounted and the whole
    footprint competes in the shared cache budget.  A source delta is then
    propagated purely by probing the in-memory hashes over those views —
    [C1] per probe instead of [C2] per index page — and the resulting
    store-level deltas are folded into per-store {e pending net-delta}
    maps (insert and delete of the same tuple cancel, which is also what
    rolls a transaction abort's compensating delta back for free).
    Pending maps are applied only when the procedure is read, through
    {!Dbproc_storage.Heap_file.apply_batch}: the [k/q] updates between two
    reads coalesce into one batch that touches each distinct page once,
    instead of AVM's per-update [Y3]/[Y4] refresh.

    {b Heavy-light split.}  Each source's join-key frequency is observed
    online; once a key has been hit [heavy_threshold] times it is promoted
    ({e heavy}) and its deltas take the eager in-memory fast path above.
    Deltas whose keys are all still cold are appended to a lazy buffer
    ([C3] per tuple, no probe work) and drained in arrival order when the
    buffer exceeds [flush_threshold], when a heavy delta needs a
    consistent prefix state, or when the view is read — so a long cold
    tail pays its join work in rare batches while the hot keys of a
    Zipf-skewed stream stay O(matches) per update.

    Charges per {!apply_source_delta}: [C3] per delta tuple, one [C1] per
    hash probe and per joined tuple emitted during (eager or drained)
    propagation.  Store pages are charged only at {!read} /
    {!recompute_refresh} time. *)

open Dbproc_relation
open Dbproc_query

type t

val create :
  ?name:string ->
  ?heavy_threshold:int ->
  ?flush_threshold:int ->
  record_bytes:int ->
  View_def.t ->
  t
(** Derive and compile the delta and delta-of-delta views, allocate their
    stores and populate everything from the current base contents without
    cost accounting (setup, like every fixed population).
    [heavy_threshold] (default 4) is the observed delta count that
    promotes a key; [flush_threshold] (default 32) the cold-buffer tuple
    count that forces a drain.

    @raise Planner.Unsupported_plan if a derived view cannot be
    compiled. *)

val name : t -> string
val def : t -> View_def.t

val plan : t -> Plan.t
(** The top-level view's recompute plan (the fallback when the budget
    refuses residency). *)

val cardinality : t -> int
(** Current logical cardinality of the view (cold buffer drained
    uncharged; stored pages untouched). *)

val page_count : t -> int
(** Pages across {e all} materialized views — the footprint the cache
    budget accounts for. *)

val read : t -> Tuple.t list
(** Serve the procedure: drain the cold buffer, apply every store's
    pending net delta ({!Dbproc_storage.Heap_file.apply_batch} — each
    distinct touched page one read + one write), then read the top store
    at one page read per page (the paper's [C_read]). *)

val apply_source_delta :
  t -> source_index:int -> inserted:Tuple.t list -> deleted:Tuple.t list -> unit
(** Maintain after a transaction on the given source
    ({!View_def.sources} order).  The tuple lists must already be
    survivors of that source's restriction (broken i-locks); screening is
    charged by the caller, which owns the rule index.  Insert/delete are
    handled symmetrically, so a transaction abort's compensating delta
    rolls the derived state back exactly. *)

val recompute_refresh : t -> unit
(** Rebuild every derived view from the base relations (running each
    view's plan, charged, and rewriting its store) and discard pending
    and buffered work — crash recovery and budget readmission. *)

val matches_recompute : t -> bool
(** Whether the maintained view equals a from-scratch recompute (multiset
    equality, uncharged; the buffer is drained and pending deltas applied
    first).  The key correctness invariant, used by tests. *)
