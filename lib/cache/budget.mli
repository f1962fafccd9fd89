(** The budgeted shared result-cache manager.

    Hanson's analysis lets every cached procedure result stay materialized
    forever; this module adds the missing resource constraint: one global
    page budget shared by every stored result (Cache and Invalidate stores
    and AVM materialized views alike).  Owners register an entry per
    stored result and ask for {e admission} before writing pages; the
    manager evicts other entries (per the configured {!Policy}) until the
    request fits, or refuses when it can never fit — in which case the
    owner must fall back to a plain recompute (Always-Recompute pricing,
    no write-back).

    Accounting: an eviction charges one page write through the manager's
    cost bundle (the cache-directory update that persists the decision —
    the stores themselves are write-through, so their pages need no
    flush).  Readmission I/O is charged by the owner when it rewrites the
    evicted store ([C_ProcessQuery + 2 C2 ProcSize], the paper's miss
    cost), which is exactly why a zero budget degrades CI/AVM to
    Always-Recompute costs: nothing is ever admitted, so nothing is ever
    written back or invalidated.

    The structural invariant — resident pages never exceed the budget —
    holds after every operation; {!max_used_pages} exposes the high-water
    mark so tests can assert it.  All state advances on a logical clock
    (no wall time, no randomness), keeping runs deterministic and
    byte-identical under domain-parallel execution.

    Observability ([cache.*] counters and gauges in
    {!Dbproc_obs.Metrics}): admissions, evictions, evicted pages,
    readmissions and fallback recomputes, plus budget/resident-page
    gauges. *)

type t

type entry_id

val create :
  ?policy:Policy.t -> ?budget_pages:int -> io:Dbproc_storage.Io.t -> unit -> t
(** A manager charging through [io]'s cost bundle.  [policy] defaults to
    {!Policy.Lru}; [budget_pages] is the global page budget — omitting it
    means unlimited (every admission succeeds and nothing is ever
    evicted).  [budget_pages] must be [>= 0]; [0] means nothing is ever
    resident. *)

val register :
  t -> name:string -> on_evict:(unit -> unit) -> unit -> entry_id
(** Register an entry (initially non-resident, zero pages).  [on_evict]
    runs whenever the entry loses residency — the owner drops its stored
    copy there (e.g. {!Dbproc_proc.Result_cache.drop}); it must not call
    back into the manager. *)

val resident : t -> entry_id -> bool

val note_access : t -> entry_id -> unit
(** Record one logical access: advances the clock, refreshes the entry's
    recency and access count.  Call on every access, hit or miss, so both
    policies see the true access rate. *)

val note_recompute_cost : t -> entry_id -> float -> unit
(** Update the entry's observed recompute cost (any consistent unit; the
    manager only compares scores).  Owners report the charged cost of
    each actual recompute; until the first report the registration
    estimate is the entry's page count. *)

val try_admit : t -> entry_id -> pages:int -> bool
(** Request residency for [pages] pages.  Returns [false] — and evicts a
    resident entry, if any — when [pages] alone exceeds the budget; the
    owner must answer the access with a plain recompute and no
    write-back.  Otherwise evicts victims (never the entry itself) per
    the policy until the request fits, marks the entry resident at
    [pages], and returns [true].  Admitting an already-resident entry
    just resizes it. *)

val resize : t -> entry_id -> pages:int -> unit
(** The owner's stored copy changed size (maintenance or refresh).  A
    no-op for non-resident entries.  Growth may evict victims; if the
    entry alone no longer fits the budget it is itself evicted. *)

val release : t -> entry_id -> unit
(** Voluntarily give up residency (strategy migration, recovery).
    Charged and counted like an eviction; no-op if not resident. *)

val policy : t -> Policy.t
val budget_pages : t -> int option
val used_pages : t -> int
val max_used_pages : t -> int
(** High-water mark of {!used_pages} — tests assert it never exceeds the
    budget. *)

val evictions : t -> int
