type counter =
  | Pages_read
  | Pages_written
  | Predicate_screens
  | Delta_set_ops
  | Invalidations
  | Tuples_scanned
  | Plans_executed
  | Buffer_hits
  | Buffer_misses
  | Heap_appends
  | Wal_records_appended
  | Wal_pages_forced
  | Btree_searches
  | Btree_inserts
  | Btree_range_scans
  | Hash_probes
  | Hash_inserts
  | Ilock_probes
  | Ilock_subscriptions
  | Cache_hits
  | Cache_misses
  | Rete_tokens
  | Rete_join_activations
  | View_refreshes
  | Proc_accesses
  | Proc_registrations
  | Faults_injected
  | Fault_retries
  | Fault_crashes
  | Recovery_replay_pages
  | Recovery_rebuilt_views
  | Recovery_conservative_invals
  | Net_accepted
  | Net_rejected
  | Net_bytes_in
  | Net_bytes_out
  | Net_frames_bad
  | Net_requests
  | Net_requests_served
  | Cache_admissions
  | Cache_evictions
  | Cache_evicted_pages
  | Cache_readmissions
  | Cache_fallback_recomputes
  | Adaptive_decisions
  | Adaptive_migrations
  | Txn_begins
  | Txn_commits
  | Txn_aborts
  | Txn_lock_waits
  | Txn_undo_applied
  | Txn_ilocks_broken
  | Deadlock_cycles
  | Deadlock_victims
  | Net_parked
  | Tuples_batched
  | Batches_emitted
  | Plan_cache_hits
  | Plan_cache_misses
  | Plan_cache_invalidations
  | Plan_cache_evictions
  | Repl_records_shipped
  | Repl_records_received
  | Repl_statements_replayed
  | Cluster_stmts_routed
  | Cluster_stmts_broadcast
  | Cluster_tuples_shipped
  | Cluster_joins_shipped
  | Cluster_joins_broadcast
  | Cluster_failovers
  | Cluster_retries
  | Fault_node_kills
  | Hoivm_delta_applies
  | Hoivm_ho_views
  | Hoivm_heavy_keys
  | Hoivm_lazy_flushes
  | Txn2pc_begins
  | Txn2pc_participants
  | Txn2pc_prepares
  | Txn2pc_commits
  | Txn2pc_aborts
  | Txn2pc_in_doubt_resolved
  | Repl_dropped
  | Repl_replicas_attached

let n_counters = 84

(* The variant is the key into one flat int array: no hashing, no
   allocation, no closures on the charging path. *)
let index = function
  | Pages_read -> 0
  | Pages_written -> 1
  | Predicate_screens -> 2
  | Delta_set_ops -> 3
  | Invalidations -> 4
  | Tuples_scanned -> 5
  | Plans_executed -> 6
  | Buffer_hits -> 7
  | Buffer_misses -> 8
  | Heap_appends -> 9
  | Wal_records_appended -> 10
  | Wal_pages_forced -> 11
  | Btree_searches -> 12
  | Btree_inserts -> 13
  | Btree_range_scans -> 14
  | Hash_probes -> 15
  | Hash_inserts -> 16
  | Ilock_probes -> 17
  | Ilock_subscriptions -> 18
  | Cache_hits -> 19
  | Cache_misses -> 20
  | Rete_tokens -> 21
  | Rete_join_activations -> 22
  | View_refreshes -> 23
  | Proc_accesses -> 24
  | Proc_registrations -> 25
  | Faults_injected -> 26
  | Fault_retries -> 27
  | Fault_crashes -> 28
  | Recovery_replay_pages -> 29
  | Recovery_rebuilt_views -> 30
  | Recovery_conservative_invals -> 31
  | Net_accepted -> 32
  | Net_rejected -> 33
  | Net_bytes_in -> 34
  | Net_bytes_out -> 35
  | Net_frames_bad -> 36
  | Net_requests -> 37
  | Net_requests_served -> 38
  | Cache_admissions -> 39
  | Cache_evictions -> 40
  | Cache_evicted_pages -> 41
  | Cache_readmissions -> 42
  | Cache_fallback_recomputes -> 43
  | Adaptive_decisions -> 44
  | Adaptive_migrations -> 45
  | Txn_begins -> 46
  | Txn_commits -> 47
  | Txn_aborts -> 48
  | Txn_lock_waits -> 49
  | Txn_undo_applied -> 50
  | Txn_ilocks_broken -> 51
  | Deadlock_cycles -> 52
  | Deadlock_victims -> 53
  | Net_parked -> 54
  | Tuples_batched -> 55
  | Batches_emitted -> 56
  | Plan_cache_hits -> 57
  | Plan_cache_misses -> 58
  | Plan_cache_invalidations -> 59
  | Plan_cache_evictions -> 60
  | Repl_records_shipped -> 61
  | Repl_records_received -> 62
  | Repl_statements_replayed -> 63
  | Cluster_stmts_routed -> 64
  | Cluster_stmts_broadcast -> 65
  | Cluster_tuples_shipped -> 66
  | Cluster_joins_shipped -> 67
  | Cluster_joins_broadcast -> 68
  | Cluster_failovers -> 69
  | Cluster_retries -> 70
  | Fault_node_kills -> 71
  | Hoivm_delta_applies -> 72
  | Hoivm_ho_views -> 73
  | Hoivm_heavy_keys -> 74
  | Hoivm_lazy_flushes -> 75
  | Txn2pc_begins -> 76
  | Txn2pc_participants -> 77
  | Txn2pc_prepares -> 78
  | Txn2pc_commits -> 79
  | Txn2pc_aborts -> 80
  | Txn2pc_in_doubt_resolved -> 81
  | Repl_dropped -> 82
  | Repl_replicas_attached -> 83

let counter_name = function
  | Pages_read -> "pages_read"
  | Pages_written -> "pages_written"
  | Predicate_screens -> "predicate_screens"
  | Delta_set_ops -> "delta_set_ops"
  | Invalidations -> "invalidations"
  | Tuples_scanned -> "tuples_scanned"
  | Plans_executed -> "plans_executed"
  | Buffer_hits -> "buffer_hits"
  | Buffer_misses -> "buffer_misses"
  | Heap_appends -> "heap_appends"
  | Wal_records_appended -> "wal_records_appended"
  | Wal_pages_forced -> "wal_pages_forced"
  | Btree_searches -> "btree_searches"
  | Btree_inserts -> "btree_inserts"
  | Btree_range_scans -> "btree_range_scans"
  | Hash_probes -> "hash_probes"
  | Hash_inserts -> "hash_inserts"
  | Ilock_probes -> "ilock_probes"
  | Ilock_subscriptions -> "ilock_subscriptions"
  | Cache_hits -> "cache_hits"
  | Cache_misses -> "cache_misses"
  | Rete_tokens -> "rete_tokens"
  | Rete_join_activations -> "rete_join_activations"
  | View_refreshes -> "view_refreshes"
  | Proc_accesses -> "proc_accesses"
  | Proc_registrations -> "proc_registrations"
  | Faults_injected -> "fault.injected"
  | Fault_retries -> "fault.retries"
  | Fault_crashes -> "fault.crashes"
  | Recovery_replay_pages -> "recovery.replay_pages"
  | Recovery_rebuilt_views -> "recovery.rebuilt_views"
  | Recovery_conservative_invals -> "recovery.conservative_invalidations"
  | Net_accepted -> "net.accepted"
  | Net_rejected -> "net.rejected"
  | Net_bytes_in -> "net.bytes_in"
  | Net_bytes_out -> "net.bytes_out"
  | Net_frames_bad -> "net.frames_bad"
  | Net_requests -> "net.requests"
  | Net_requests_served -> "net.requests_served"
  | Cache_admissions -> "cache.admissions"
  | Cache_evictions -> "cache.evictions"
  | Cache_evicted_pages -> "cache.evicted_pages"
  | Cache_readmissions -> "cache.readmissions"
  | Cache_fallback_recomputes -> "cache.fallback_recomputes"
  | Adaptive_decisions -> "adaptive.decisions"
  | Adaptive_migrations -> "adaptive.migrations"
  | Txn_begins -> "txn.begins"
  | Txn_commits -> "txn.commits"
  | Txn_aborts -> "txn.aborts"
  | Txn_lock_waits -> "txn.lock_waits"
  | Txn_undo_applied -> "txn.undo_applied"
  | Txn_ilocks_broken -> "txn.ilocks_broken"
  | Deadlock_cycles -> "deadlock.cycles"
  | Deadlock_victims -> "deadlock.victims"
  | Net_parked -> "net.parked"
  | Tuples_batched -> "tuples_batched"
  | Batches_emitted -> "batches_emitted"
  | Plan_cache_hits -> "plan_cache.hits"
  | Plan_cache_misses -> "plan_cache.misses"
  | Plan_cache_invalidations -> "plan_cache.invalidations"
  | Plan_cache_evictions -> "plan_cache.evictions"
  | Repl_records_shipped -> "repl.records_shipped"
  | Repl_records_received -> "repl.records_received"
  | Repl_statements_replayed -> "repl.statements_replayed"
  | Cluster_stmts_routed -> "cluster.stmts_routed"
  | Cluster_stmts_broadcast -> "cluster.stmts_broadcast"
  | Cluster_tuples_shipped -> "cluster.tuples_shipped"
  | Cluster_joins_shipped -> "cluster.joins_shipped"
  | Cluster_joins_broadcast -> "cluster.joins_broadcast"
  | Cluster_failovers -> "cluster.failovers"
  | Cluster_retries -> "cluster.retries"
  | Fault_node_kills -> "fault.node_kills"
  | Hoivm_delta_applies -> "hoivm.delta_applies"
  | Hoivm_ho_views -> "hoivm.ho_views"
  | Hoivm_heavy_keys -> "hoivm.heavy_keys"
  | Hoivm_lazy_flushes -> "hoivm.lazy_flushes"
  | Txn2pc_begins -> "txn2pc.begins"
  | Txn2pc_participants -> "txn2pc.participants"
  | Txn2pc_prepares -> "txn2pc.prepares"
  | Txn2pc_commits -> "txn2pc.commits"
  | Txn2pc_aborts -> "txn2pc.aborts"
  | Txn2pc_in_doubt_resolved -> "txn2pc.in_doubt_resolved"
  | Repl_dropped -> "repl.dropped"
  | Repl_replicas_attached -> "repl.replicas_attached"

let all_counters =
  [
    Pages_read; Pages_written; Predicate_screens; Delta_set_ops; Invalidations;
    Tuples_scanned; Plans_executed; Buffer_hits; Buffer_misses; Heap_appends;
    Wal_records_appended; Wal_pages_forced; Btree_searches; Btree_inserts;
    Btree_range_scans; Hash_probes; Hash_inserts; Ilock_probes;
    Ilock_subscriptions; Cache_hits; Cache_misses; Rete_tokens;
    Rete_join_activations; View_refreshes; Proc_accesses; Proc_registrations;
    Faults_injected; Fault_retries; Fault_crashes;
    Recovery_replay_pages; Recovery_rebuilt_views;
    Recovery_conservative_invals; Net_accepted; Net_rejected; Net_bytes_in;
    Net_bytes_out; Net_frames_bad; Net_requests; Net_requests_served;
    Cache_admissions; Cache_evictions; Cache_evicted_pages; Cache_readmissions;
    Cache_fallback_recomputes; Adaptive_decisions; Adaptive_migrations;
    Txn_begins; Txn_commits; Txn_aborts; Txn_lock_waits; Txn_undo_applied;
    Txn_ilocks_broken; Deadlock_cycles; Deadlock_victims; Net_parked;
    Tuples_batched; Batches_emitted; Plan_cache_hits; Plan_cache_misses;
    Plan_cache_invalidations; Plan_cache_evictions; Repl_records_shipped;
    Repl_records_received; Repl_statements_replayed; Cluster_stmts_routed;
    Cluster_stmts_broadcast; Cluster_tuples_shipped; Cluster_joins_shipped;
    Cluster_joins_broadcast; Cluster_failovers; Cluster_retries;
    Fault_node_kills; Hoivm_delta_applies; Hoivm_ho_views; Hoivm_heavy_keys;
    Hoivm_lazy_flushes; Txn2pc_begins; Txn2pc_participants; Txn2pc_prepares;
    Txn2pc_commits; Txn2pc_aborts; Txn2pc_in_doubt_resolved; Repl_dropped;
    Repl_replicas_attached;
  ]

type gauge =
  | Procedures_registered
  | Rete_memories
  | Buffer_pool_pages
  | Cache_budget_pages
  | Cache_resident_pages

let n_gauges = 5

let gauge_index = function
  | Procedures_registered -> 0
  | Rete_memories -> 1
  | Buffer_pool_pages -> 2
  | Cache_budget_pages -> 3
  | Cache_resident_pages -> 4

let gauge_name = function
  | Procedures_registered -> "procedures_registered"
  | Rete_memories -> "rete_memories"
  | Buffer_pool_pages -> "buffer_pool_pages"
  | Cache_budget_pages -> "cache.budget_pages"
  | Cache_resident_pages -> "cache.resident_pages"

let all_gauges =
  [
    Procedures_registered; Rete_memories; Buffer_pool_pages; Cache_budget_pages;
    Cache_resident_pages;
  ]

(* A registry instance: one flat int array per kind plus the enable flag.
   Instances are cheap (two small arrays) and independent, so every engine
   context carries its own and two contexts never share a cell. *)
type t = {
  counter_cells : int array;
  gauge_cells : int array;
  mutable enabled_flag : bool;
}

let create () =
  {
    counter_cells = Array.make n_counters 0;
    gauge_cells = Array.make n_gauges 0;
    enabled_flag = true;
  }

let enabled t = t.enabled_flag
let set_enabled t b = t.enabled_flag <- b

let incr ?(n = 1) t c =
  if t.enabled_flag then begin
    let i = index c in
    Array.unsafe_set t.counter_cells i (Array.unsafe_get t.counter_cells i + n)
  end

let get t c = t.counter_cells.(index c)

let set_gauge t g v = if t.enabled_flag then t.gauge_cells.(gauge_index g) <- v

let add_gauge ?(n = 1) t g =
  if t.enabled_flag then begin
    let i = gauge_index g in
    t.gauge_cells.(i) <- t.gauge_cells.(i) + n
  end

let get_gauge t g = t.gauge_cells.(gauge_index g)

let counters t = List.map (fun c -> (counter_name c, get t c)) all_counters
let gauges t = List.map (fun g -> (gauge_name g, get_gauge t g)) all_gauges

let reset t = Array.fill t.counter_cells 0 n_counters 0

let reset_all t =
  reset t;
  Array.fill t.gauge_cells 0 n_gauges 0

let merge_into ~into src =
  for i = 0 to n_counters - 1 do
    into.counter_cells.(i) <- into.counter_cells.(i) + src.counter_cells.(i)
  done;
  for i = 0 to n_gauges - 1 do
    into.gauge_cells.(i) <- into.gauge_cells.(i) + src.gauge_cells.(i)
  done
