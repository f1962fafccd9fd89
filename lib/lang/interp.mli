(** Interpreter: executes parsed commands against a session holding a
    simulated database, a procedure manager and cost counters.

    Every data operation is charged through the session's
    {!Dbproc_storage.Cost.t} with the paper's default unit costs, so
    [show cost] reports the same simulated milliseconds the bench and the
    cost model use.  [strategy <ar|ci|avm|rvm>] rebuilds the manager and
    re-registers every defined procedure under the new strategy. *)

exception Runtime_error of string
(** Semantic errors: unknown relations or attributes, type mismatches,
    join conditions that do not connect the targets, and so on. *)

type t

val create :
  ?ctx:Dbproc_obs.Ctx.t ->
  ?page_bytes:int ->
  ?tuple_bytes:int ->
  ?plan_cache:bool ->
  unit ->
  t
(** A fresh session.  [page_bytes] defaults to the paper's B = 4000,
    [tuple_bytes] to S = 100.  [ctx] binds the session's cost accounting
    to its own engine observability context (default: the shared
    {!Dbproc_obs.Ctx.default}) — server shards pass one context per shard
    so sessions in different domains never share a counter cell.  The
    session's tracer is clocked off its own simulated milliseconds.

    [plan_cache] (default [true]) enables the per-session statement
    cache: repeated statement text skips the parser, and repeated
    [retrieve] text additionally reuses the bound, planned and compiled
    plan ({!Stmt_cache}).  The cache is invalidated on [create], [index]
    and [strategy].  Parsing and planning are uncharged, so the cache
    never changes simulated cost — only wall-clock.  Hits, misses and
    invalidations are counted in the session's metrics registry as
    [plan_cache.*]. *)

val strategy_name : t -> string

val obs : t -> Dbproc_obs.Ctx.t
(** The observability context the session charges. *)

val simulated_ms : t -> float
(** Total priced simulated milliseconds charged so far, under the
    default unit costs — the session's clock. *)

(** {2 Transactions}

    A session lazily grows a transaction layer ({!Dbproc_txn.Manager})
    the first time any client issues [begin].  From then on {e every}
    data statement — from any client — runs under strict two-phase
    locking: an explicit transaction if the client opened one, an
    implicit single-statement (autocommit) transaction otherwise.
    Statements acquire all their locks {e before} executing anything, so
    a blocked statement has no effects and is simply retried verbatim
    when a lock holder finishes — that is what lets the server park
    blocked requests instead of stalling a shard. *)

type 'a answer =
  | O_ok of 'a  (** executed; the body's value *)
  | O_error of string  (** parse or semantic error; no transaction change *)
  | O_blocked of int list
      (** the statement blocked on these transactions before executing
          anything — park it and retry after any transaction finishes *)
  | O_aborted of string
      (** the client's transaction was aborted as a deadlock victim and
          has been rolled back; the statement did not run *)

type outcome = string answer
(** A statement's answer as human-readable output. *)

(** {2 Statements}

    A line is parsed once, into a statement value: its statement-cache
    entry, which carries the parsed command and, for a [retrieve], the
    prepared plan.  Every layer above — a cluster node, a coordinator's
    scratch binder — classifies and executes that value; none parses the
    line again. *)

val parse : t -> string -> (Stmt_cache.entry, string) result
(** Lex and parse through the statement cache ({!Stmt_cache}): a cached
    line is not parsed again.  Lexer and parser errors are [Error]. *)

val exec_stmt : t -> client:int -> Stmt_cache.entry -> outcome
(** Execute a parsed statement on behalf of [client] (the server passes
    its connection id).  Transaction control opens, commits or aborts the
    client's transaction.  Until the first [begin] anywhere in the
    session every other statement runs on the pre-transaction path — no
    locks, no extra cost; after it, under strict 2PL. *)

val fetch_stmt :
  t -> client:int -> Stmt_cache.entry -> (Dbproc_relation.Tuple.t list * float) answer
(** {!exec_stmt} for a read, answering the raw result tuples plus the
    simulated milliseconds the execution charged instead of formatted
    output, so a coordinator can merge partitions.  The same lock path as
    {!exec_stmt}: a distributed transaction's reads are covered by strict
    2PL like its writes.  Anything but a read is refused before any lock
    is taken. *)

val exec_client : t -> client:int -> string -> outcome
(** {!parse}, then {!exec_stmt}; {!exec_line} is [exec_client ~client:0]. *)

val in_transaction : t -> client:int -> bool
(** Whether the client currently has a transaction open (explicit, or an
    implicit one parked mid-acquisition). *)

val abort_client : t -> client:int -> bool
(** Disconnect cleanup: abort and roll back the client's open
    transaction, if any, and forget the client.  Returns [true] when a
    transaction was actually aborted. *)

val result_of_answer : 'a answer -> ('a, string) result
(** [O_ok v] is [Ok v]; an error or an abort is its message; a block is
    ["blocked on a concurrent transaction"]. *)

val exec_line : t -> string -> (string, string) result
(** Parse and execute one input line; lexer/parser/runtime errors come
    back as [Error message]. *)

val exec_script : t -> string -> (string, string) result
(** Run a whole script (one command per line) as client 0 through
    {!run_script}. *)

val run_script : (string -> outcome) -> string -> (string, string) result
(** The one script loop: run each line through the given executor,
    skipping blank and [--] lines.  Output is [> line], newline, the
    line's output and a newline, per executed line.  Stops at the first
    failure with [line N: message], N counting every physical line. *)

val save_script : file:string -> string -> string
(** Write a session dump to [file] and answer what [save] prints:
    [saved session to FILE (N lines)].  [procsim shell --connect] saves
    a server's [show script] reply with it, on the client.
    @raise Runtime_error if the file cannot be written. *)

(** {2 Cluster support} *)

val bind_retrieve_projected :
  t -> Ast.retrieve -> Dbproc_query.View_def.t * int list option
(** The binder: resolve relation and attribute names, split the
    qualification into per-relation restrictions and join terms, and
    assemble a view definition whose join chain follows the target
    order, plus the output projection (positions into the view schema;
    [None] means all attributes) — what a cluster coordinator needs to
    evaluate a cross-shard join over shipped partitions. *)

val fetch :
  t -> string -> (Dbproc_relation.Tuple.t list * float, string) result
(** Parse and execute a [retrieve] or [exec] line and return the raw
    result tuples plus the simulated milliseconds the execution charged,
    instead of formatted output.  Same charging and statement-cache
    behavior as {!exec_line}, but it runs outside the lock layer even
    once a transaction has opened on the session; readers that must
    respect 2PL go through {!fetch_stmt}. *)

val client_of_txn : t -> int -> int option
(** Which client owns the given transaction-manager id, if any — lets a
    cluster node translate {!O_blocked} holder ids into the global
    transaction ids the coordinator knows. *)
