(** Engine counters and gauges, one registry instance per engine context.

    A registry is a first-class {!t}: counters live in a flat [int array]
    keyed by a constant-constructor variant, so charging one costs a bounds
    check and an integer add — cheap enough to leave on during the sim-*
    measurements (the bench's obs-overhead ablation verifies this).  Each
    registry deliberately mirrors {!Dbproc_storage.Cost}: every cost charge
    on an active accounting bundle also bumps the matching counter in the
    bundle's registry, so priced work and observed work can be cross-checked
    per context ([pages_read + pages_written = io_charge / C2]).

    There is no process-global registry; the compatibility default lives in
    {!Ctx.default}.  Two registries in one process accumulate independently,
    which is what lets engine instances run in parallel domains.

    Counters that mirror priced charges ([Pages_read] … [Invalidations])
    and the per-layer counters gated on {!Dbproc_storage.Io.counting} are
    only incremented while cost accounting is active, so bulk loads and
    consistency checks do not pollute a measured run. *)

type counter =
  | Pages_read  (** disk pages read (C2 each) *)
  | Pages_written  (** disk pages written (C2 each) *)
  | Predicate_screens  (** records screened against a predicate (C1 each) *)
  | Delta_set_ops  (** A_net/D_net delta-set tuple operations (C3 each) *)
  | Invalidations  (** cache invalidations recorded (C_inval each) *)
  | Tuples_scanned  (** tuples pulled from storage by executor scans *)
  | Plans_executed  (** full plan executions (recompute or refresh) *)
  | Buffer_hits  (** LRU buffer-pool hits (buffered Io only) *)
  | Buffer_misses  (** LRU buffer-pool misses *)
  | Heap_appends  (** records appended to heap files *)
  | Wal_records_appended  (** log records appended to a WAL *)
  | Wal_pages_forced  (** WAL tail pages forced to disk *)
  | Btree_searches  (** B+-tree point lookups *)
  | Btree_inserts  (** B+-tree insertions *)
  | Btree_range_scans  (** B+-tree range scans started *)
  | Hash_probes  (** hash-index point probes *)
  | Hash_inserts  (** hash-index insertions *)
  | Ilock_probes  (** i-lock candidate subscriptions screened *)
  | Ilock_subscriptions  (** i-lock subscriptions installed *)
  | Cache_hits  (** result-cache reads served from the stored value *)
  | Cache_misses  (** result-cache reads that had to recompute *)
  | Rete_tokens  (** tokens delivered to Rete memory nodes *)
  | Rete_join_activations  (** Rete join-node activations *)
  | View_refreshes  (** materialized views rebuilt by full recompute *)
  | Proc_accesses  (** procedure accesses through a manager *)
  | Proc_registrations  (** procedures registered with a manager *)
  | Faults_injected  (** injected transient I/O failures (fault layer) *)
  | Fault_retries  (** I/Os re-issued after an injected failure *)
  | Fault_crashes  (** scheduled crash points fired *)
  | Recovery_replay_pages  (** log pages re-read while replaying a WAL tail *)
  | Recovery_rebuilt_views  (** views rebuilt from scratch during recovery *)
  | Recovery_conservative_invals
      (** caches invalidated on restart because validity could not be proven *)
  | Net_accepted  (** connections accepted by the serving event loop *)
  | Net_rejected  (** connections or requests refused by admission control *)
  | Net_bytes_in  (** bytes read off client sockets *)
  | Net_bytes_out  (** bytes written to client sockets *)
  | Net_frames_bad  (** malformed / truncated / oversized wire frames *)
  | Net_requests  (** well-formed requests decoded (including admin) *)
  | Net_requests_served
      (** shard-executed requests answered (ping / exec line / exec script) *)
  | Cache_admissions
      (** entries admitted (made resident) by a budgeted result-cache manager *)
  | Cache_evictions  (** entries evicted to make room under the page budget *)
  | Cache_evicted_pages  (** pages released by those evictions *)
  | Cache_readmissions
      (** previously evicted entries recomputed and readmitted on access *)
  | Cache_fallback_recomputes
      (** accesses to evicted entries answered by a plain recompute because
          the entry could not be (re)admitted under the budget *)
  | Adaptive_decisions  (** adaptive-selector window evaluations *)
  | Adaptive_migrations
      (** procedures migrated to a different strategy by the selector *)
  | Txn_begins  (** transactions started (explicit or autocommit) *)
  | Txn_commits  (** transactions committed *)
  | Txn_aborts  (** transactions aborted (explicit, victim or disconnect) *)
  | Txn_lock_waits  (** lock requests that blocked at least once *)
  | Txn_undo_applied  (** undo records replayed backwards by aborts *)
  | Txn_ilocks_broken  (** i-locks reported broken at transaction commit *)
  | Deadlock_cycles  (** waits-for cycles detected *)
  | Deadlock_victims  (** transactions aborted as deadlock victims *)
  | Net_parked  (** blocked requests parked (re-queued) by the server *)
  | Tuples_batched  (** tuples carried through columnar executor batches *)
  | Batches_emitted  (** batches emitted by compiled-pipeline stages *)
  | Plan_cache_hits  (** statements served from a session statement cache *)
  | Plan_cache_misses
      (** cacheable statements that had to be parsed, bound and planned *)
  | Plan_cache_invalidations
      (** cached statements dropped on DDL / index / strategy changes *)
  | Plan_cache_evictions
      (** cached statements evicted (oldest-first) to admit a new one at
          [max_entries] capacity *)
  | Repl_records_shipped
      (** replication-log records pulled off a primary for shipping *)
  | Repl_records_received
      (** replication-log records appended to a replica's received log *)
  | Repl_statements_replayed
      (** shipped statements replayed by a replica at promotion *)
  | Cluster_stmts_routed
      (** statements a coordinator routed to a single owning node *)
  | Cluster_stmts_broadcast
      (** statements a coordinator broadcast to every node *)
  | Cluster_tuples_shipped
      (** tuples shipped from nodes to a coordinator for merging *)
  | Cluster_joins_shipped
      (** cross-shard joins executed ship-smaller-side (semijoin) *)
  | Cluster_joins_broadcast
      (** cross-shard joins that fell back to broadcast fetches *)
  | Cluster_failovers  (** replica promotions after a node loss *)
  | Cluster_retries
      (** statements retried on a promoted replica after a node died
          mid-call *)
  | Fault_node_kills  (** whole-node kills fired by the fault injector *)
  | Hoivm_delta_applies
      (** higher-order delta propagations applied by the HOIVM maintainer *)
  | Hoivm_ho_views
      (** delta (alpha) and delta-of-delta (prefix) views derived at
          registration *)
  | Hoivm_heavy_keys  (** keys promoted to the heavy (eager) path *)
  | Hoivm_lazy_flushes
      (** drains of the cold-tail delta buffer (threshold, read or
          consistency-forced) *)
  | Txn2pc_begins  (** distributed transactions opened by the coordinator *)
  | Txn2pc_participants
      (** participant enlistments (one per node joining a distributed txn) *)
  | Txn2pc_prepares  (** prepare requests sent to participants *)
  | Txn2pc_commits  (** commit decisions logged by the coordinator *)
  | Txn2pc_aborts  (** distributed transactions aborted globally *)
  | Txn2pc_in_doubt_resolved
      (** committed txn/participant pairs re-applied to a promoted replica
          from the coordinator's decision log *)
  | Repl_dropped
      (** replicas dropped after a refused [Wal_push] or a dead link *)
  | Repl_replicas_attached
      (** fresh replicas attached to a promoted primary after failover *)

val all_counters : counter list
val counter_name : counter -> string

type gauge =
  | Procedures_registered  (** procedures currently registered *)
  | Rete_memories  (** Rete memory nodes created *)
  | Buffer_pool_pages  (** capacity of the last buffer pool created *)
  | Cache_budget_pages
      (** page budget of the last budgeted result-cache manager created
          (0 = unlimited) *)
  | Cache_resident_pages  (** pages currently resident under that budget *)

val all_gauges : gauge list
val gauge_name : gauge -> string

type t
(** One registry instance.  Not domain-safe: a registry must be charged
    from the domain that owns its engine context. *)

val create : unit -> t
(** A fresh registry, all cells zero, enabled. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Turn one registry on or off.  When off, {!incr}, {!set_gauge} and
    {!add_gauge} are no-ops — the disabled arm of the bench's overhead
    ablation. *)

val incr : ?n:int -> t -> counter -> unit
val get : t -> counter -> int
val set_gauge : t -> gauge -> int -> unit
val add_gauge : ?n:int -> t -> gauge -> unit
val get_gauge : t -> gauge -> int

val counters : t -> (string * int) list
(** All counters, in declaration order. *)

val gauges : t -> (string * int) list

val reset : t -> unit
(** Zero every counter (gauges keep their values).  {!Dbproc_workload}'s
    driver calls this at the start of every measured run, alongside
    [Cost.reset], so the two stay in lock-step. *)

val reset_all : t -> unit
(** Zero counters and gauges. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds [src]'s counters and gauges cell-wise into
    [into].  Used to combine per-run contexts into one experiment snapshot
    deterministically (addition is order-independent). *)
