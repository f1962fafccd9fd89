(** Process clusters: forked node servers behind socket links, and the
    coordinator-as-a-{!Server.backend} glue.

    A cluster here is K forked {!Server} processes (one shard each — a
    node is one partition with one client, the coordinator), optionally
    doubled with a replica process per node, plus a front-end server
    whose single shard hosts a {!Coordinator} instead of a node.  The
    [procsim cluster] subcommand and the failover bench both build on
    this; tests use {!Coordinator.create_local} instead (no processes,
    deterministic kill switches). *)

type proc
(** One forked node-server process. *)

val kill : proc -> unit
(** SIGKILL and reap — the process version of a node crash. *)

val stop : proc -> unit
(** Graceful drain (a {!Protocol.Shutdown} frame), falling back to
    {!kill} if the child does not exit within 5 s. *)

(** {2 Whole clusters} *)

type t

val launch :
  ?base_port:int -> ?replicas:bool -> ?spares:int -> nodes:int -> unit -> t
(** Fork [nodes] primaries on [base_port + 2i], (when [replicas], the
    default) a replica each on [base_port + 2i + 1], and [spares] warm
    standby processes on [base_port + 2*nodes + k] for re-replication
    after failover (default: [nodes] when [replicas], else [0] — forked
    here because {!Unix.fork} is illegal once the caller runs domains).
    Default base port 7500.  Waits for every process to answer pings.
    @raise Failure (after killing the children) if one never does. *)

val links : t -> (Coordinator.link * Coordinator.link option) array
(** Socket links in {!Coordinator.create} shape. *)

val kill_primary : t -> int -> unit
(** Crash the process currently serving as node [i]'s primary — wire this
    as the coordinator's [on_kill].  After a failover (plus
    {!spawn_replica} rotation) this is the promoted ex-replica, so a
    second kill of the same slot loses a second machine. *)

val spawn_replica : t -> int -> Coordinator.link option
(** Re-replication: rotate slot [i]'s just-promoted replica into the
    primary seat and return a link to a warm standby from the spare pool
    — wire this as the coordinator's [spawn_replica].  [None] for
    replica-less slots or when the pool ran dry (the slot runs
    unreplicated from then on). *)

val shutdown : t -> unit
(** Gracefully stop every remaining process (including respawned
    replicas). *)

val pids : t -> int list

(** {2 Coordinator front-end} *)

val coordinator_backend :
  ?key_domain:int ->
  ?injector:Dbproc_fault.Injector.t ->
  ?on_kill:(int -> unit) ->
  ?spawn_replica:(int -> Coordinator.link option) ->
  links:(unit -> (Coordinator.link * Coordinator.link option) array) ->
  unit ->
  Dbproc_obs.Ctx.t ->
  Server.backend
(** A {!Server.create} backend factory hosting a {!Coordinator}.  The
    links thunk runs in the shard domain (so the sockets are owned by
    the domain that uses them), and the coordinator adopts the shard
    context — a {!Protocol.Stats} request returns the merged cluster
    view, so a load generator's [--strict] reconciliation works
    unchanged against a cluster.  Transaction control rides the line
    path: [begin] on a connection opens a distributed transaction, and
    blocked statements park exactly as on a node server.  Pair with
    {!serve_config}. *)

val serve_config : ?config:Server.config -> unit -> Server.config
(** The given config forced to one shard: one coordinator, one scratch
    binder, one route table. *)
