(** Umbrella module: the public face of the library.

    {!Dbproc} re-exports every sub-library under one namespace.  A typical
    application:

    {[
      open Dbproc

      (* Build the paper's synthetic database at 1/10 scale. *)
      let params = Workload.Driver.scale_params Costmodel.Params.default ~factor:10.0
      let db = Workload.Database.build ~model:Costmodel.Model.Model1 params

      (* Install all procedures under Cache and Invalidate and access one. *)
      let m =
        Proc.Manager.create Proc.Manager.Cache_invalidate ~io:db.io ~record_bytes:100 ()
      let ids = List.map (Proc.Manager.register m) (Workload.Database.all_defs db)
      let result = Proc.Manager.access m (List.hd ids)
    ]}

    The sub-namespaces:
    - {!Util} — Yao function, PRNG, locality model, statistics, rendering.
    - {!Storage} — cost accounting, simulated disk I/O, heap files.
    - {!Index} — page-based B+-tree and static hash index.
    - {!Relation_} — values, schemas, tuples, predicates, relations,
      catalog (also included at the top level).
    - {!Query} — view definitions, plans, executor, planner.
    - {!Avm} — algebraic (non-shared) differential view maintenance.
    - {!Rete} — the Rete network (shared view maintenance).
    - {!Proc} — database procedures: i-locks, result caches, the strategy
      manager.
    - {!Txn} — transactions: strict two-phase locking, deadlock
      detection, WAL-backed rollback, and the deterministic contention
      simulator.
    - {!Lang} — the tiny definition/query language and its interpreter.
    - {!Costmodel} — the paper's closed-form model, every figure.
    - {!Workload} — synthetic database, update/access workloads, the
      measurement driver.
    - {!Obs} — engine-wide observability: counters, latency histograms,
      span tracing, JSON/CSV export.
    - {!Net} — framed wire protocol, [select]-based server with session
      shards, blocking client, pipelined load generator. *)

module Util : sig
  module Yao = Dbproc_util.Yao
  module Prng = Dbproc_util.Prng
  module Interval_index = Dbproc_util.Interval_index
  module Locality = Dbproc_util.Locality
  module Stats = Dbproc_util.Stats
  module Ascii_table = Dbproc_util.Ascii_table
  module Ascii_chart = Dbproc_util.Ascii_chart
end

module Storage : sig
  module Cost = Dbproc_storage.Cost
  module Io = Dbproc_storage.Io
  module Heap_file = Dbproc_storage.Heap_file
  module Wal = Dbproc_storage.Wal
end

module Index : sig
  module Btree = Dbproc_index.Btree
  module Hash_index = Dbproc_index.Hash_index
end

module Relation_ : sig
  module Value = Dbproc_relation.Value
  module Schema = Dbproc_relation.Schema
  module Tuple = Dbproc_relation.Tuple
  module Predicate = Dbproc_relation.Predicate
  module Relation = Dbproc_relation.Relation
  module Catalog = Dbproc_relation.Catalog
end

module Value = Dbproc_relation.Value
module Schema = Dbproc_relation.Schema
module Tuple = Dbproc_relation.Tuple
module Predicate = Dbproc_relation.Predicate
module Relation = Dbproc_relation.Relation
module Catalog = Dbproc_relation.Catalog

module Query : sig
  module View_def = Dbproc_query.View_def
  module Plan = Dbproc_query.Plan
  module Batch = Dbproc_query.Batch
  module Compiled = Dbproc_query.Compiled
  module Executor = Dbproc_query.Executor
  module Planner = Dbproc_query.Planner
  module Explain = Dbproc_query.Explain
end

module Avm : sig
  module Materialized_view = Dbproc_avm.Materialized_view
end

module Rete : sig
  module Memory = Dbproc_rete.Memory
  module Network = Dbproc_rete.Network
  module Builder = Dbproc_rete.Builder
  module Optimizer = Dbproc_rete.Optimizer
end

module Fault : sig
  module Injector = Dbproc_fault.Injector
end

module Cache : sig
  module Policy = Dbproc_cache.Policy
  module Budget = Dbproc_cache.Budget
end

module Proc : sig
  module Ilock = Dbproc_proc.Ilock
  module Result_cache = Dbproc_proc.Result_cache
  module Inval_table = Dbproc_proc.Inval_table
  module Lock_manager = Dbproc_proc.Lock_manager
  module Manager = Dbproc_proc.Manager
end

module Txn : sig
  module Manager = Dbproc_txn.Manager
  module Sim = Dbproc_txn.Sim
end

module Lang : sig
  module Ast = Dbproc_lang.Ast
  module Lexer = Dbproc_lang.Lexer
  module Parser = Dbproc_lang.Parser
  module Stmt_cache = Dbproc_lang.Stmt_cache
  module Interp = Dbproc_lang.Interp
end

module Costmodel : sig
  module Params = Dbproc_costmodel.Params
  module Strategy = Dbproc_costmodel.Strategy
  module Model = Dbproc_costmodel.Model
  module Regions = Dbproc_costmodel.Regions
  module Figures = Dbproc_costmodel.Figures
  module Sensitivity = Dbproc_costmodel.Sensitivity
  module Nway_model = Dbproc_costmodel.Nway_model
end

module Workload : sig
  module Database = Dbproc_workload.Database
  module Driver = Dbproc_workload.Driver
  module Nway = Dbproc_workload.Nway
  module Parallel = Dbproc_workload.Parallel
end

module Obs : sig
  module Metrics = Dbproc_obs.Metrics
  module Histogram = Dbproc_obs.Histogram
  module Trace = Dbproc_obs.Trace
  module Ctx = Dbproc_obs.Ctx
  module Export = Dbproc_obs.Export
end

module Net : sig
  module Protocol = Dbproc_net.Protocol
  module Server = Dbproc_net.Server
  module Client = Dbproc_net.Client
  module Loadgen = Dbproc_net.Loadgen
  module Wire = Dbproc_net.Wire
  module Node = Dbproc_net.Node
  module Coordinator = Dbproc_net.Coordinator
  module Cluster = Dbproc_net.Cluster
end
