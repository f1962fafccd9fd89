(* Differential crash-point harness.

   The oracle is a fault-free [Driver.run_with_crashes] run.  Every other
   run here injects faults — transient failures, scheduled crash points
   swept across the whole workload, or both — and must reproduce the
   oracle's procedure-access results byte for byte ([result_digest]), with
   the engine's stored state still matching recomputation at the end.
   Costs are allowed (expected) to differ; observable behavior is not. *)

open Dbproc
open Dbproc.Costmodel
open Dbproc.Workload
module Injector = Fault.Injector

(* Small enough that a ~20-point sweep over four strategies stays fast,
   big enough that every strategy does real maintenance work. *)
let small =
  {
    Params.default with
    Params.n = 1_000.0;
    n1 = 4.0;
    n2 = 4.0;
    q = 12.0;
    k = 12.0;
    l = 6.0;
    f = 0.005;
  }

let run ?buffer_pages ?fault_config ?crash_points ?checkpoint_every strategy =
  Driver.run_with_crashes ~seed:7 ?buffer_pages ?fault_config ?crash_points
    ?checkpoint_every ~model:Model.Model1 ~params:small strategy

let check_matches_oracle ~what oracle r =
  Alcotest.(check string)
    (what ^ ": digest matches oracle")
    (Driver.result_digest oracle) (Driver.result_digest r);
  Alcotest.(check bool) (what ^ ": consistent") true r.Driver.cr_consistent;
  Alcotest.(check int)
    (what ^ ": same query count")
    oracle.Driver.cr_queries r.Driver.cr_queries

(* ------------------------------------------------- injector units *)

let test_injector_crash_at_exact_touch () =
  let cost = Storage.Cost.create () in
  let io = Storage.Io.direct cost ~page_bytes:4000 in
  let inj = Injector.create ~config:Injector.no_faults ~seed:1 () in
  Injector.schedule_crashes inj [ 10 ];
  Injector.install inj io;
  let fired = ref None in
  (try
     for page = 0 to 99 do
       Storage.Io.read io ~file:0 ~page
     done
   with Injector.Crash { touch } -> fired := Some touch);
  Alcotest.(check (option int)) "crash at touch 10" (Some 10) !fired;
  (* the interrupted touch was never charged *)
  Alcotest.(check int) "9 reads charged" 9 (Storage.Cost.page_reads cost);
  (* each point fires once: the next touches sail through *)
  for page = 0 to 4 do
    Storage.Io.read io ~file:0 ~page
  done;
  Alcotest.(check int) "crash consumed" 1 (Injector.crashes inj);
  Injector.uninstall io

let test_injector_invisible_under_disabled () =
  let cost = Storage.Cost.create () in
  let io = Storage.Io.direct cost ~page_bytes:4000 in
  let inj =
    Injector.create ~config:{ Injector.default_config with read_fail_prob = 0.9 } ~seed:1 ()
  in
  Injector.schedule_crashes inj [ 3 ];
  Injector.install inj io;
  Storage.Cost.with_disabled cost (fun () ->
      for page = 0 to 99 do
        Storage.Io.read io ~file:0 ~page
      done);
  Alcotest.(check int) "unpriced touches invisible" 0 (Injector.touches inj);
  Alcotest.(check int) "no faults injected" 0 (Injector.injected inj);
  Injector.uninstall io

let test_injector_retries_charge_and_count () =
  let cost = Storage.Cost.create ~ctx:(Obs.Ctx.create ()) () in
  let io = Storage.Io.direct cost ~page_bytes:4000 in
  let inj =
    Injector.create ~config:{ Injector.no_faults with read_fail_prob = 0.5 } ~seed:99 ()
  in
  Injector.install inj io;
  for page = 0 to 499 do
    Storage.Io.read io ~file:0 ~page
  done;
  Injector.uninstall io;
  Alcotest.(check bool) "some faults injected" true (Injector.injected inj > 0);
  (* every charged read is either one of the 500 issued or a retry, and
     the obs mirror agrees exactly (the PR 1 invariant under faults) *)
  Alcotest.(check int) "retries = extra charges"
    (500 + Injector.retries inj)
    (Storage.Cost.page_reads cost);
  Alcotest.(check int) "obs mirror intact"
    (Storage.Cost.page_reads cost)
    (Obs.Metrics.get (Storage.Cost.metrics cost) Obs.Metrics.Pages_read)

let test_injector_deterministic () =
  let once () =
    let cost = Storage.Cost.create () in
    let io = Storage.Io.direct cost ~page_bytes:4000 in
    let inj = Injector.create ~seed:5 () in
    Injector.install inj io;
    for page = 0 to 299 do
      Storage.Io.read io ~file:0 ~page;
      Storage.Io.write io ~file:1 ~page
    done;
    Injector.uninstall io;
    (Injector.touches inj, Injector.injected inj, Injector.retries inj,
     Storage.Cost.page_reads cost, Storage.Cost.page_writes cost)
  in
  let a = once () and b = once () in
  Alcotest.(check bool) "same seed, same faults" true (a = b)

(* ------------------------------------------------- wal crash units *)

let test_wal_crash_drops_volatile_tail () =
  let cost = Storage.Cost.create () in
  let io = Storage.Io.direct cost ~page_bytes:80 in
  (* 10 records per page *)
  let wal = Storage.Wal.create ~io ~record_bytes:8 () in
  for i = 0 to 24 do
    ignore (Storage.Wal.append wal i)
  done;
  Alcotest.(check int) "durable below tail" 20 (Storage.Wal.durable_lsn wal);
  let lost = Storage.Wal.crash wal in
  Alcotest.(check int) "5 records torn off" 5 lost;
  Alcotest.(check int) "lsns not reused" 25 (Storage.Wal.next_lsn wal);
  Alcotest.(check int) "two durable pages" 2 (Storage.Wal.page_count wal);
  let survivors = List.map fst (Storage.Wal.records_from wal 0) in
  Alcotest.(check (list int)) "replay sees only durable records"
    (List.init 20 Fun.id) survivors;
  (* appends continue past the gap *)
  Alcotest.(check int) "append after crash" 25 (Storage.Wal.append wal 25);
  Alcotest.(check int) "nothing lost when tail empty+1"
    0
    (let w2 = Storage.Wal.create ~io ~record_bytes:8 () in
     Storage.Wal.crash w2)

(* ------------------------------------------------- driver-level *)

let oracle_of strategy = run strategy

let test_oracle_sane () =
  List.iter
    (fun strategy ->
      let r = oracle_of strategy in
      Alcotest.(check bool)
        (Strategy.name strategy ^ " oracle consistent")
        true r.Driver.cr_consistent;
      Alcotest.(check int)
        (Strategy.name strategy ^ " all queries ran")
        12 r.Driver.cr_queries;
      Alcotest.(check int)
        (Strategy.name strategy ^ " no crashes in oracle")
        0 r.Driver.cr_stats.Driver.cs_crashes)
    Strategy.all

let test_zero_drift_when_disabled () =
  List.iter
    (fun strategy ->
      let off = run strategy in
      let disabled = run ~fault_config:Injector.no_faults strategy in
      let name = Strategy.name strategy in
      Alcotest.(check (float 0.0))
        (name ^ ": total ms identical")
        off.Driver.cr_total_ms disabled.Driver.cr_total_ms;
      Alcotest.(check int)
        (name ^ ": reads identical")
        off.Driver.cr_page_reads disabled.Driver.cr_page_reads;
      Alcotest.(check int)
        (name ^ ": writes identical")
        off.Driver.cr_page_writes disabled.Driver.cr_page_writes;
      check_matches_oracle ~what:name off disabled)
    Strategy.all

(* The access-result digest is a property of the workload, not of the
   maintenance strategy: every strategy's oracle run must produce the
   same digest as AR's.  This is what lets any strategy (HOIVM included)
   be checked against the AR oracle rather than only against itself. *)
let test_digest_strategy_independent () =
  let reference = Driver.result_digest (oracle_of Strategy.Always_recompute) in
  List.iter
    (fun strategy ->
      Alcotest.(check string)
        (Strategy.name strategy ^ " digest = AR digest")
        reference
        (Driver.result_digest (oracle_of strategy)))
    Strategy.all

let test_faulted_run_deterministic () =
  let once () = run ~fault_config:Injector.default_config Strategy.Cache_invalidate in
  let a = once () and b = once () in
  Alcotest.(check string) "same digest" (Driver.result_digest a) (Driver.result_digest b);
  Alcotest.(check (float 0.0)) "same cost" a.Driver.cr_total_ms b.Driver.cr_total_ms;
  Alcotest.(check bool) "same fault counts" true (a.Driver.cr_stats = b.Driver.cr_stats)

(* The headline sweep: for every strategy, crash the engine at ~20 points
   spread over the whole measured phase; each recovered run must be
   indistinguishable from the oracle. *)
let test_crash_point_sweep () =
  List.iter
    (fun strategy ->
      let oracle = oracle_of strategy in
      let probe = run ~fault_config:Injector.no_faults strategy in
      let touches = probe.Driver.cr_stats.Driver.cs_touches in
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": workload touches pages")
        true (touches > 0);
      let stride = max 1 (touches / 20) in
      let point = ref 1 in
      while !point <= touches do
        let r = run ~crash_points:[ !point ] strategy in
        Alcotest.(check int)
          (Printf.sprintf "%s: crash point %d fired" (Strategy.name strategy) !point)
          1 r.Driver.cr_stats.Driver.cs_crashes;
        check_matches_oracle
          ~what:(Printf.sprintf "%s @%d" (Strategy.name strategy) !point)
          oracle r;
        point := !point + stride
      done)
    Strategy.all

(* The interpreter's sweep.  The tuple-at-a-time interpreter ([Oracle]) is
   the reference the plan executor is held to, not an engine the driver
   runs, so its sweep crashes single plan executions.  For every
   procedure of a small model-2 database, crash points stride over the
   charged touches of a fault-free interpreter run; at each point the
   interpreter and a prepared [Query.Executor] plan both crash at that
   touch, and both are replayed.  Each replay must return the fault-free
   run's tuples, in order, and charge its pages and C1 screens: a crash
   unwinding out of an execution and its page-dedup scope leaves nothing
   behind, in the I/O layer or in the prepared pipeline a procedure
   manager keeps. *)
let test_interp_crash_point_sweep () =
  let db = Database.build ~seed:7 ~model:Model.Model2 small in
  let io = db.Database.io and cost = db.Database.cost in
  let under_injector ~crash_points f =
    let inj = Injector.create ~config:Injector.no_faults ~seed:1 () in
    Injector.schedule_crashes inj crash_points;
    Injector.install inj io;
    Fun.protect ~finally:(fun () -> Injector.uninstall io) (fun () -> f inj)
  in
  let measured f =
    let before = Storage.Cost.snapshot cost in
    let tuples = f () in
    let after = Storage.Cost.snapshot cost in
    ( tuples,
      [
        ("pages read", after.Storage.Cost.s_page_reads - before.Storage.Cost.s_page_reads);
        ("pages written", after.s_page_writes - before.s_page_writes);
        ("C1 screens", after.s_cpu_screens - before.s_cpu_screens);
      ] )
  in
  let swept = ref 0 in
  List.iter
    (fun def ->
      let plan = Query.Planner.compile def in
      let prepared = Query.Executor.prepare plan in
      let (tuples, charges), touches =
        under_injector ~crash_points:[] (fun inj ->
            let m = measured (fun () -> Oracle.run plan) in
            (m, Injector.touches inj))
      in
      let stride = max 1 (touches / 20) in
      let point = ref 1 in
      while !point <= touches do
        List.iter
          (fun (engine, run) ->
            let what = Printf.sprintf "%s/%s @%d" engine def.Query.View_def.name !point in
            let crashed_at =
              under_injector ~crash_points:[ !point ] (fun _ ->
                  match run () with
                  | _ -> None
                  | exception Injector.Crash { touch } -> Some touch)
            in
            Alcotest.(check (option int)) (what ^ ": crash point fired") (Some !point) crashed_at;
            let replayed, replay_charges = measured run in
            Alcotest.(check bool)
              (what ^ ": replay returns the fault-free tuples")
              true
              (List.equal Dbproc_relation.Tuple.equal tuples replayed);
            List.iter2
              (fun (name, expected) (_, got) ->
                Alcotest.(check int) (Printf.sprintf "%s: replay %s" what name) expected got)
              charges replay_charges)
          [
            ("interp", fun () -> Oracle.run plan);
            ("compiled", fun () -> Query.Executor.run_prepared prepared);
          ];
        incr swept;
        point := !point + stride
      done)
    (Database.all_defs db);
  Alcotest.(check bool) "some crash points swept" true (!swept > 0)

let test_multi_crash () =
  List.iter
    (fun strategy ->
      let oracle = oracle_of strategy in
      let touches =
        (run ~fault_config:Injector.no_faults strategy).Driver.cr_stats.Driver.cs_touches
      in
      let points = [ touches / 4; touches / 2; 3 * touches / 4 ] in
      let r = run ~crash_points:(List.filter (fun p -> p > 0) points) strategy in
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": all points fired")
        true
        (r.Driver.cr_stats.Driver.cs_crashes >= 1);
      check_matches_oracle ~what:(Strategy.name strategy ^ " multi-crash") oracle r)
    Strategy.all

let test_faults_and_crashes_combined () =
  List.iter
    (fun strategy ->
      let oracle = oracle_of strategy in
      let touches =
        (run ~fault_config:Injector.no_faults strategy).Driver.cr_stats.Driver.cs_touches
      in
      let r =
        run
          ~fault_config:
            { Injector.default_config with read_fail_prob = 0.2; write_fail_prob = 0.2 }
          ~crash_points:[ touches / 3; 2 * touches / 3 ]
          strategy
      in
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": faults actually injected")
        true
        (r.Driver.cr_stats.Driver.cs_faults_injected > 0);
      check_matches_oracle ~what:(Strategy.name strategy ^ " faults+crashes") oracle r)
    Strategy.all

(* Satellite: the obs mirror of priced I/O stays exact under injection —
   fault bookkeeping must never leak into (or out of) the paper-model
   counters. *)
let test_cost_invariant_under_faults () =
  List.iter
    (fun strategy ->
      let r =
        run ~fault_config:Injector.default_config ~crash_points:[ 100 ] strategy
      in
      let m = Obs.Ctx.metrics r.Driver.cr_obs in
      let name = Strategy.name strategy in
      Alcotest.(check int)
        (name ^ ": pages_read = charge/C2")
        r.Driver.cr_page_reads
        (Obs.Metrics.get m Obs.Metrics.Pages_read);
      Alcotest.(check int)
        (name ^ ": pages_written = charge/C2")
        r.Driver.cr_page_writes
        (Obs.Metrics.get m Obs.Metrics.Pages_written);
      Alcotest.(check int)
        (name ^ ": fault.crashes counter")
        r.Driver.cr_stats.Driver.cs_crashes
        (Obs.Metrics.get m Obs.Metrics.Fault_crashes);
      Alcotest.(check int)
        (name ^ ": fault.injected counter")
        r.Driver.cr_stats.Driver.cs_faults_injected
        (Obs.Metrics.get m Obs.Metrics.Faults_injected))
    Strategy.all

let test_recovery_counters_surface () =
  let mid strategy =
    max 1
      ((run ~fault_config:Injector.no_faults strategy).Driver.cr_stats.Driver.cs_touches
      / 2)
  in
  let ci = run ~crash_points:[ mid Strategy.Cache_invalidate ] Strategy.Cache_invalidate in
  let m = Obs.Ctx.metrics ci.Driver.cr_obs in
  Alcotest.(check int) "recovery.replay_pages mirrors stats"
    ci.Driver.cr_stats.Driver.cs_replay_pages
    (Obs.Metrics.get m Obs.Metrics.Recovery_replay_pages);
  List.iter
    (fun strategy ->
      let r = run ~crash_points:[ mid strategy ] strategy in
      let m = Obs.Ctx.metrics r.Driver.cr_obs in
      Alcotest.(check int)
        (Strategy.name strategy ^ ": recovery.rebuilt_views mirrors stats")
        r.Driver.cr_stats.Driver.cs_rebuilt_views
        (Obs.Metrics.get m Obs.Metrics.Recovery_rebuilt_views);
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": views rebuilt")
        true
        (r.Driver.cr_stats.Driver.cs_rebuilt_views > 0))
    [ Strategy.Update_cache_avm; Strategy.Update_cache_rvm ]

(* Satellite: direct vs buffered I/O must agree on results everywhere;
   only the charged costs may differ. *)
let test_direct_vs_buffered_results () =
  List.iter
    (fun model ->
      List.iter
        (fun strategy ->
          let direct = Driver.run_with_crashes ~seed:7 ~model ~params:small strategy in
          List.iter
            (fun pages ->
              let buffered =
                Driver.run_with_crashes ~seed:7 ~buffer_pages:pages ~model ~params:small
                  strategy
              in
              check_matches_oracle
                ~what:
                  (Printf.sprintf "%s/%s buffered:%d" (Model.which_name model)
                     (Strategy.name strategy) pages)
                direct buffered;
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s buffered:%d reads no higher" (Model.which_name model)
                   (Strategy.name strategy) pages)
                true
                (buffered.Driver.cr_page_reads <= direct.Driver.cr_page_reads))
            [ 16; 256 ])
        Strategy.all)
    [ Model.Model1; Model.Model2 ]

(* Without a durable validity table, recovery must conservatively
   invalidate every cache — and the engine stays correct, just slower. *)
let test_conservative_invalidation_without_table () =
  let db = Database.build ~seed:3 ~model:Model.Model1 small in
  let manager =
    Proc.Manager.create Proc.Manager.Cache_invalidate ~io:db.Database.io ~record_bytes:100 ()
  in
  let ids = List.map (Proc.Manager.register manager) (Database.all_defs db) in
  let before = List.map (fun id -> Proc.Manager.access manager id) ids in
  let stats = Proc.Manager.recover manager in
  Alcotest.(check int) "every valid cache conservatively invalidated"
    (List.length ids)
    stats.Proc.Manager.conservative_invalidations;
  List.iteri
    (fun i id ->
      let again = Proc.Manager.access manager id in
      Alcotest.(check bool)
        (Printf.sprintf "proc %d same answer after conservative recovery" i)
        true
        (List.sort Tuple.compare again = List.sort Tuple.compare (List.nth before i));
      Alcotest.(check bool)
        (Printf.sprintf "proc %d matches recompute" i)
        true
        (Proc.Manager.matches_recompute manager id))
    ids

let () =
  Alcotest.run "recovery"
    [
      ( "injector",
        [
          Alcotest.test_case "crash at exact touch" `Quick test_injector_crash_at_exact_touch;
          Alcotest.test_case "invisible under with_disabled" `Quick
            test_injector_invisible_under_disabled;
          Alcotest.test_case "retries charge and count" `Quick
            test_injector_retries_charge_and_count;
          Alcotest.test_case "deterministic per seed" `Quick test_injector_deterministic;
        ] );
      ( "wal",
        [ Alcotest.test_case "crash drops volatile tail" `Quick test_wal_crash_drops_volatile_tail ] );
      ( "differential",
        [
          Alcotest.test_case "oracle sane" `Quick test_oracle_sane;
          Alcotest.test_case "zero drift when disabled" `Quick test_zero_drift_when_disabled;
          Alcotest.test_case "faulted run deterministic" `Quick test_faulted_run_deterministic;
          Alcotest.test_case "digest strategy-independent" `Quick
            test_digest_strategy_independent;
          Alcotest.test_case "crash-point sweep (interp)" `Quick test_interp_crash_point_sweep;
          Alcotest.test_case "crash-point sweep (compiled)" `Slow test_crash_point_sweep;
          Alcotest.test_case "multi-crash" `Quick test_multi_crash;
          Alcotest.test_case "faults + crashes" `Quick test_faults_and_crashes_combined;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "cost invariant under faults" `Quick
            test_cost_invariant_under_faults;
          Alcotest.test_case "recovery counters surface" `Quick
            test_recovery_counters_surface;
        ] );
      ( "io-equivalence",
        [
          Alcotest.test_case "direct vs buffered results" `Quick
            test_direct_vs_buffered_results;
        ] );
      ( "manager",
        [
          Alcotest.test_case "conservative invalidation without table" `Quick
            test_conservative_invalidation_without_table;
        ] );
    ]
