(** Per-session statement cache: normalized statement text to parsed AST
    plus bound, planned and compiled retrieve.

    The classic parser/optimizer-output memoization: a server session
    replaying the same statement text skips the lexer, parser, binder,
    planner and plan compiler and goes straight to execution.  Parsing,
    binding and planning are uncharged (compile-time work in the paper's
    model), so caching them cannot change simulated cost — only
    wall-clock.

    Only [retrieve] statements are cached end-to-end; everything else
    re-parses (mutations are dominated by execution, and DDL must not be
    replayed from a cache).  The whole cache is invalidated on DDL
    ([create], [index]) and on [strategy] changes — the session analogue
    of an adaptive strategy migration — since those can change plan
    choice.  Hits, misses and dropped entries are counted as
    [plan_cache.hits]/[.misses]/[.invalidations] in the session's
    metrics registry, which the server's Stats reply exports per shard. *)

open Dbproc_query

type prepared = {
  def : View_def.t;
  projection : int list option;
  exec : Executor.prepared;
}

type entry = { cmd : Ast.command; mutable prepared : prepared option }

type t

val create : ?max_entries:int -> metrics:Dbproc_obs.Metrics.t -> unit -> t
(** [max_entries] (default 512) bounds the table; at capacity a new
    statement evicts the oldest insertion (FIFO), counted as
    [plan_cache.evictions].  A hit after eviction is a plain miss: the
    statement recompiles and is re-stored as the newest entry. *)

val normalize : string -> string
(** The line as the lexer reads it: outside string literals, whitespace
    runs and [--] comments collapse to one space and the ends are
    trimmed; string literals, escapes included, are kept byte for byte.
    Case-preserving. *)

val find : t -> string -> entry option
(** Lookup by normalized key (the caller normalizes once). *)

val store : t -> string -> entry -> unit
(** Insert or refresh.  Inserting a new key at capacity evicts the
    oldest live insertion first, so [size] never exceeds [max_entries]. *)

val note_hit : t -> unit
val note_miss : t -> unit

val invalidate : t -> unit
(** Drop everything; counts one [plan_cache.invalidations] per entry
    that held a prepared plan. *)

val size : t -> int
