(** A cluster node: one interpreter session plus the WAL-shipping
    replication machinery, speaking the coordinator-facing protocol tags.

    A node is what a {!Server} shard hosts (the default backend wraps
    one), and what an in-process cluster drives directly.  It plays both
    replication roles:

    - {b primary}: every replicable statement that executes successfully
      outside an explicit transaction is appended, as statement text, to
      the node's replication log (a {!Dbproc_storage.Wal.t} of 100-byte
      records charged to the node's own context).  A coordinator pulls
      the tail with {!Protocol.Wal_pull} after each mutation it routes.
    - {b replica}: {!Protocol.Wal_push} appends shipped records to a
      received log in primary-LSN order (idempotent on re-shipped
      prefixes, refusing gaps).  Nothing is applied until
      {!Protocol.Promote}, which replays the received statements through
      the session at full simulated price — so a promoted replica has
      done the work its state claims, and its [heap_appends] counter
      matches the writes the cluster acknowledged.

    Replication covers committed work only: an autocommit statement is
    logged as it completes, while a statement executed under a
    distributed transaction is buffered on its local branch and re-logged
    at {!Protocol.Txn_commit} (its effects could otherwise be rolled back
    after logging).

    As a 2PC {b participant}, the node keeps one local branch per global
    transaction id: a dedicated interpreter client opened lazily by the
    first {!Protocol.Txn_exec}, voting in phase one with
    {!Protocol.Txn_prepare} (yes iff the branch is still live — a
    deadlock victim votes no), and committing or rolling back on the
    coordinator's decision.  Prepares and commits are appended to a
    decision log; aborts are presumed and not logged. *)

type t

val create : ?ctx:Dbproc_obs.Ctx.t -> ?plan_cache:bool -> unit -> t
(** A fresh node: its own session bound to [ctx] (default: a fresh
    context), plus empty primary and received replication logs charged
    to the same context. *)

val session : t -> Dbproc_lang.Interp.t
val ctx : t -> Dbproc_obs.Ctx.t

val exec_line : t -> client:int -> string -> Dbproc_lang.Interp.outcome
(** {!Dbproc_lang.Interp.exec_client}, plus primary-side replication
    logging on success. *)

val exec_script : t -> string -> (string, string) result
(** {!Dbproc_lang.Interp.run_script} over {!exec_line}, so exactly the
    executed prefix is replicated. *)

val handle : t -> Protocol.request -> Protocol.response option
(** Serve a coordinator-facing request ([Fetch] / [Join_probe] /
    [Wal_pull] / [Wal_push] / [Promote] / [Txn_exec] / [Txn_prepare] /
    [Txn_commit] / [Txn_abort]); [None] for the core tags, which belong
    to the server loop / {!exec_line} paths. *)

val blocker_gtids : t -> int list -> string list
(** Translate {!Dbproc_lang.Interp.O_blocked} holder ids into global
    transaction ids, ["-1"] for holders with no distributed branch on
    this node (a parked local autocommit statement). *)

val disconnect : t -> client:int -> unit
(** Abort the client's open transaction, if any. *)

val sim_ms : t -> float
(** The session's simulated clock ({!Dbproc_lang.Interp.simulated_ms}). *)

val rlog_next_lsn : t -> int
(** Next primary replication-log LSN (= records logged so far). *)

val recv_next_lsn : t -> int
(** Next received-log LSN — how far this replica has been shipped. *)

val promoted : t -> bool

val replicable : string -> bool
(** Whether a statement line would be replicated ([create] / [index] /
    [append] / [delete] / [replace] / [define proc] / [strategy]).
    Unparseable lines are not. *)
