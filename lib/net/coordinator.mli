(** The cluster coordinator: key-range sharding, statement routing,
    cross-shard joins, WAL-shipping replication and node-kill failover.

    A coordinator owns an array of {e slots}, one per partition.  Each
    slot holds a primary {!link} and optionally a replica link — a link
    is just [request -> (response, string) result], so the same
    coordinator drives in-process nodes (tests, {!create_local}) and
    remote node servers over sockets ({!Cluster}) unchanged.

    {b Partitioning.}  A relation's first declared attribute is its
    partition attribute; node [i] of [n] owns keys in
    [[i*key_domain/n, (i+1)*key_domain/n)].  Out-of-range integer keys
    clamp to the edge nodes and string keys hash, so routing is total.
    Appends route to the owning node; deletes/replaces/retrieves route to
    one node when the qualification pins the partition attribute with
    [=], and broadcast otherwise.  DDL replays on a data-less scratch
    binder first (single-node error parity) and then broadcasts.

    {b Cross-shard joins.}  A retrieve (or procedure) joining two
    relations ships the smaller side: its partitions are fetched whole,
    and its join-key set probes the bigger side's nodes, which return
    only matching tuples ({!Protocol.Join_probe} — a semijoin).  Longer
    chains and non-equality joins broadcast-fetch every source.  The
    coordinator evaluates the bound join chain over the shipped
    partitions with the executor's left-deep semantics and reports the
    result with a digest of the sorted serialized multiset — the value
    the cluster-vs-single-node differential compares.

    {b Replication and failover.}  Every acknowledged mutation is
    shipped synchronously: the coordinator pulls the primary's new
    replication-log tail ({!Protocol.Wal_pull}) and pushes it to the
    replica ({!Protocol.Wal_push}) {e before} acknowledging, so an ack
    means the statement is durable on two nodes.  When a primary dies
    the replica is promoted (it replays the shipped log) and the
    in-flight statement retries exactly once — exactly-once, because a
    mutation is acknowledged only after its ship completed, so an
    unshipped statement is provably absent from the replica.  After a
    successful promotion the coordinator asks [spawn_replica] for a
    fresh replica, attaches it to the promoted primary and ships the
    re-logged history, so the slot survives a second kill; without one
    the slot runs unreplicated ([repl.dropped] counts replicas lost
    mid-ship as well).  A slot that loses its last link goes {e down}
    and answers errors.

    {b Distributed transactions.}  The coordinator doubles as the 2PC
    transaction manager: [begin] on a client allocates a global
    transaction id, statements route to participant branches
    ({!Protocol.Txn_exec}), and [commit] runs presumed-abort two-phase
    commit — prepare votes, a decision record appended to the
    coordinator's own decision log (the commit point), then commit
    fan-out with synchronous shipping.  A participant is durable once its
    branch is committed and shipped to its replica; one lost before that
    is repaired at promotion by replaying the decided transaction's
    statements off the decision log (in-doubt resolution).  One router
    serves both modes: the transaction only picks the transport, and
    what a transaction cannot do (DDL, node-0 introspection, [reset
    cost], broadcast or re-homing writes, cross-shard joins) is refused
    before any node is contacted, leaving the transaction open.
    Blocked statements surface as [`Park] exactly like the single-node
    server's parking contract; a coordinator-side waits-for graph over
    the holder gtids aborts the youngest transaction on a cycle.
    Counted under [txn2pc.*].

    [show script] dumps the whole cluster: the schema, indexes, strategy
    and procedures once, then every node's appends, so the dump replays
    into one session; it fails while a slot is down.  Other
    introspection ([explain], [show], [help]) answers from node 0.
    [save] is refused with {!Node.save_refused}.  Everything else is
    counted under [cluster.*] / [repl.*] / [fault.node_kills] in the
    coordinator's context. *)

type link = Protocol.request -> (Protocol.response, string) result

type t

val create :
  ?ctx:Dbproc_obs.Ctx.t ->
  ?key_domain:int ->
  ?injector:Dbproc_fault.Injector.t ->
  ?on_kill:(int -> unit) ->
  ?spawn_replica:(int -> link option) ->
  links:(link * link option) array ->
  unit ->
  t
(** One slot per [(primary, replica)] pair.  [key_domain] (default
    1_000_000, matching {!Loadgen}) bounds the integer key space the
    range partitioning divides.  [injector] is consulted before every
    statement; a scheduled node kill fires [on_kill i] (e.g. a process
    kill or an in-process kill switch) and promotes [i]'s replica.
    [spawn_replica i] (default [fun _ -> None]) supplies a fresh, empty
    replica link attached to slot [i] after each successful promotion. *)

type result = {
  output : string;
  ok : bool;
  digest : string option;
  aborted : bool;
}
(** [digest] is set for tuple-returning statements: MD5 over the sorted
    serialized result multiset ({!Wire.digest_tuples}).  [aborted] marks
    a failure that rolled back the client's transaction (deadlock victim,
    participant vote, lost node) rather than an ordinary error. *)

val exec : t -> string -> result
(** Route and execute one statement line as client 0 (a blocked statement
    fails rather than parking — only this driver could unblock it). *)

val exec_client :
  t -> client:int -> string -> [ `Done of result | `Park of int list ]
(** Route and execute one statement line on behalf of [client].  Each
    client has at most one open distributed transaction; [`Park holders]
    means the statement blocked on the given transactions (gtids, [-1]
    for non-transactional holders) before doing anything and should be
    retried verbatim. *)

val disconnect_client : t -> client:int -> unit
(** Abort the client's open distributed transaction, if any. *)

val owner : t -> Dbproc_relation.Value.t -> int
(** The node owning a partition-attribute value — total for every value,
    including non-finite floats (exposed for routing tests). *)

val snapshot : t -> Dbproc_obs.Ctx.t
(** The merged cluster view: the coordinator's own context plus every
    live node's exported counters and gauges folded in by name.  Node
    [net.*] counters are excluded (coordinator-internal traffic) and
    node histograms are not merged (quantiles cannot be recombined from
    exports). *)

val ctx : t -> Dbproc_obs.Ctx.t
val alive_count : t -> int
val node_down : t -> int -> bool
val sim_ms : t -> float
(** The coordinator's simulated clock: scratch-binder charges plus, for
    each tuple-returning statement, the max simulated milliseconds
    across the nodes that served it (partitions run in parallel). *)

val shipped_lsn : t -> int -> int
(** Next primary replication-log LSN the coordinator would pull for this
    slot — how far the replica has been shipped. *)

val kill_node : t -> int -> unit
(** Manually kill node [i]'s primary: fires [on_kill] and promotes the
    replica (or downs the slot). *)

(** {2 In-process clusters}

    For tests and differential checks: nodes are {!Node.t} values driven
    directly, each behind a kill switch so {!kill_node} (or a scheduled
    injector kill) makes the "process" unreachable. *)

type local

val create_local :
  ?ctx:Dbproc_obs.Ctx.t ->
  ?key_domain:int ->
  ?injector:Dbproc_fault.Injector.t ->
  ?replicas:bool ->
  nodes:int ->
  unit ->
  local
(** [nodes] primaries, each with its own replica when [replicas]
    (default [true]).  After a failover the promoted node gets a fresh
    in-process replica and the kill switches rotate, so killing the same
    slot again takes down the {e promoted} primary — the double-kill
    durability path. *)

val coordinator : local -> t
val local_node : local -> int -> Node.t
(** Primary node [i] — for asserting on replication-log LSNs and node
    state in tests. *)

val node_link : Node.t -> link * (unit -> unit)
(** Wrap a node as an in-process link plus its kill switch.  The link
    answers through {!Node.handle} as client 0, the same handler a
    forked node server uses; a statement that would park answers
    {!Protocol.Blocked} instead. *)
