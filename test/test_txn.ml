(* Tests for Dbproc.Txn: strict 2PL with blocking, deadlock detection and
   youngest-victim resolution, WAL-backed rollback (differentially verified
   against a never-began oracle under every maintenance strategy), the
   deterministic contention simulator, and the qcheck serialization
   property (commit order is conflict-equivalent to a serial oracle). *)

open Dbproc
module LM = Proc.Lock_manager
module TM = Txn.Manager

let fresh_env () =
  let ctx = Obs.Ctx.create () in
  let cost = Storage.Cost.create ~ctx () in
  let io = Storage.Io.direct cost ~page_bytes:2048 in
  (ctx, cost, io)

let mk_tm ?notify_update ?notify_delta (cost, io) =
  TM.create ?notify_update ?notify_delta ~cost ~io ()

let pt rel v = LM.point ~rel ~attr:0 (Value.Int v)

let iv rel lo hi =
  LM.Interval
    {
      rel;
      attr = 0;
      lo = Index.Btree.Inclusive (Value.Int lo);
      hi = Index.Btree.Inclusive (Value.Int hi);
    }

(* ------------------------------------------------------------------ *)
(* Deadlock detection units                                            *)
(* ------------------------------------------------------------------ *)

(* Crosswise X locks on two relations: the second edge closes a 2-cycle
   and the verdict names the youngest transaction. *)
let test_deadlock_youngest_victim () =
  let ctx, cost, io = fresh_env () in
  let tm = mk_tm (cost, io) in
  let t1 = TM.begin_ tm in
  let t2 = TM.begin_ tm in
  Alcotest.(check bool) "t1 elder" true (t1 < t2);
  Alcotest.(check bool)
    "t1 X A granted" true
    (TM.acquire tm t1 ~mode:`X (pt "A" 1) = TM.Granted);
  Alcotest.(check bool)
    "t2 X B granted" true
    (TM.acquire tm t2 ~mode:`X (pt "B" 1) = TM.Granted);
  (match TM.acquire tm t1 ~mode:`X (pt "B" 1) with
  | TM.Blocked holders -> Alcotest.(check (list int)) "t1 waits on t2" [ t2 ] holders
  | _ -> Alcotest.fail "t1 should block on t2");
  Alcotest.(check (list int)) "blocked_on t1" [ t2 ] (TM.blocked_on tm t1);
  (match TM.acquire tm t2 ~mode:`X (pt "A" 1) with
  | TM.Deadlock victim -> Alcotest.(check int) "youngest is victim" t2 victim
  | _ -> Alcotest.fail "t2's request should close the cycle");
  let undone = TM.abort ~victim:true tm t2 in
  Alcotest.(check int) "victim had no undo records" 0 undone;
  Alcotest.(check bool)
    "t1 retries and is granted" true
    (TM.acquire tm t1 ~mode:`X (pt "B" 1) = TM.Granted);
  Alcotest.(check (list int)) "t1 no longer waiting" [] (TM.blocked_on tm t1);
  ignore (TM.commit tm t1);
  let m = Obs.Ctx.metrics ctx in
  Alcotest.(check int) "one cycle detected" 1 (Obs.Metrics.get m Obs.Metrics.Deadlock_cycles);
  Alcotest.(check int) "one victim" 1 (Obs.Metrics.get m Obs.Metrics.Deadlock_victims);
  Alcotest.(check int) "one abort" 1 (Obs.Metrics.get m Obs.Metrics.Txn_aborts);
  Alcotest.(check int) "one commit" 1 (Obs.Metrics.get m Obs.Metrics.Txn_commits);
  Alcotest.(check int) "no live txns" 0 (TM.live_count tm)

(* The S-to-X upgrade stand-off documented in Lock_manager.acquire: both
   hold overlapping S, both want X.  Neither upgrade can be granted while
   the other's S lives; the manager resolves by youngest-victim abort. *)
let test_upgrade_deadlock_resolution () =
  let _ctx, cost, io = fresh_env () in
  let tm = mk_tm (cost, io) in
  let t1 = TM.begin_ tm in
  let t2 = TM.begin_ tm in
  Alcotest.(check bool)
    "t1 S granted" true
    (TM.acquire tm t1 ~mode:`S (iv "R" 0 10) = TM.Granted);
  Alcotest.(check bool)
    "t2 S granted" true
    (TM.acquire tm t2 ~mode:`S (iv "R" 5 15) = TM.Granted);
  (match TM.acquire tm t1 ~mode:`X (pt "R" 7) with
  | TM.Blocked [ h ] -> Alcotest.(check int) "t1 upgrade waits on t2" t2 h
  | _ -> Alcotest.fail "t1's upgrade should block on t2");
  (match TM.acquire tm t2 ~mode:`X (pt "R" 7) with
  | TM.Deadlock victim -> Alcotest.(check int) "upgrade victim is youngest" t2 victim
  | _ -> Alcotest.fail "t2's upgrade should close the 2-cycle");
  ignore (TM.abort ~victim:true tm t2);
  Alcotest.(check bool)
    "survivor's upgrade granted" true
    (TM.acquire tm t1 ~mode:`X (pt "R" 7) = TM.Granted);
  ignore (TM.commit tm t1)

(* ------------------------------------------------------------------ *)
(* Rollback differential: aborted txn vs a never-began oracle          *)
(* ------------------------------------------------------------------ *)

let small_params =
  {
    Workload.Driver.default_sim_params with
    Costmodel.Params.n = 400.0;
    n1 = 2.0;
    n2 = 2.0;
    q = 4.0;
    k = 4.0;
    l = 6.0;
    f = 0.02;
  }

let tuples_of rel =
  let acc = ref [] in
  Relation.scan rel ~f:(fun _rid t -> acc := Tuple.to_list t :: !acc);
  List.sort compare !acc

let digest_results rs =
  String.concat "|"
    (List.map
       (fun t -> String.concat "," (List.map Value.to_string (Tuple.to_list t)))
       (List.sort Tuple.compare rs))

(* Build two identically-seeded databases under [kind]; run a transaction
   on one that updates R1 (notifying the strategy manager), inserts and
   deletes in a scratch relation, then aborts.  The other never begins.
   Heap contents, index lookups, access results and matches_recompute
   must be indistinguishable afterwards. *)
let rollback_differential kind () =
  let build () =
    let ctx = Obs.Ctx.create () in
    let db = Workload.Database.build ~seed:7 ~ctx ~model:Costmodel.Model.Model1 small_params in
    let mgr = Proc.Manager.create kind ~io:db.Workload.Database.io ~record_bytes:100 () in
    let pids = List.map (Proc.Manager.register mgr) (Workload.Database.all_defs db) in
    let scratch =
      Relation.create ~io:db.Workload.Database.io ~name:"T"
        ~schema:(Schema.create [ ("k", Value.TInt); ("v", Value.TInt) ])
        ~tuple_bytes:16
    in
    Relation.add_btree_index scratch ~attr:"k" ~entry_bytes:8;
    let base_rids =
      List.map
        (fun k -> Relation.insert scratch (Tuple.create [ Value.Int k; Value.Int (10 * k) ]))
        [ 1; 2; 3 ]
    in
    (* warm every cache so derived state exists before the transaction *)
    List.iter (fun p -> ignore (Proc.Manager.access mgr p)) pids;
    (db, mgr, pids, scratch, base_rids)
  in
  let db, mgr, pids, scratch, base_rids = build () in
  let odb, omgr, opids, oscratch, _ = build () in
  let tm =
    TM.create
      ~notify_update:(fun ~rel ~changes -> Proc.Manager.on_update mgr ~rel ~changes)
      ~notify_delta:(fun ~rel ~inserted ~deleted ->
        Proc.Manager.on_delta mgr ~rel ~inserted ~deleted)
      ~cost:db.Workload.Database.cost ~io:db.Workload.Database.io ()
  in
  let id = TM.begin_ tm in
  let logged = ref 0 in
  (* update R1 through the strategy manager, logging undo *)
  let prng = Util.Prng.create 99 in
  let upds = Workload.Database.random_update db prng in
  List.iter
    (fun (rid, newt) ->
      let before = Relation.get db.Workload.Database.r1 rid in
      ignore (Relation.update db.Workload.Database.r1 rid newt);
      TM.log_update tm id ~rel:db.Workload.Database.r1 ~rid ~before ~after:newt;
      Proc.Manager.on_update mgr ~rel:db.Workload.Database.r1 ~changes:[ (before, newt) ];
      incr logged)
    upds;
  (* insert and delete in the scratch relation (heap + btree undo paths) *)
  let fresh = Tuple.create [ Value.Int 42; Value.Int 4200 ] in
  let frid = Relation.insert scratch fresh in
  TM.log_insert tm id ~rel:scratch ~rid:frid ~tuple:fresh;
  incr logged;
  let victim_rid = List.hd base_rids in
  let gone = Relation.delete scratch victim_rid in
  TM.log_delete tm id ~rel:scratch ~tuple:gone;
  incr logged;
  (* sanity: the transaction's effects are visible before the abort *)
  Alcotest.(check bool)
    "insert visible pre-abort" true
    (Relation.cardinality scratch = Relation.cardinality oscratch);
  let undone = TM.abort tm id in
  Alcotest.(check int) "every undo record applied" !logged undone;
  Alcotest.(check int) "wal tail truncated" 0 (TM.undo_records_retained tm);
  (* base tables restored *)
  Alcotest.(check bool)
    "R1 contents match oracle" true
    (tuples_of db.Workload.Database.r1 = tuples_of odb.Workload.Database.r1);
  Alcotest.(check bool)
    "scratch contents match oracle" true
    (tuples_of scratch = tuples_of oscratch);
  (* index restored: every base key resolves to the same tuple *)
  List.iter
    (fun k ->
      let lookup rel =
        match Relation.btree_on rel ~attr:"k" with
        | None -> Alcotest.fail "scratch btree missing"
        | Some ix ->
            List.sort compare
              (List.map
                 (fun rid -> Tuple.to_list (Relation.get rel rid))
                 (Index.Btree.search ix (Value.Int k)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "btree lookup k=%d matches oracle" k)
        true
        (lookup scratch = lookup oscratch))
    [ 1; 2; 3; 42 ];
  (* derived state restored: every procedure answers like the oracle and
     is consistent with recomputation *)
  List.iter2
    (fun p op ->
      Alcotest.(check string)
        "access result matches never-began oracle"
        (digest_results (Proc.Manager.access omgr op))
        (digest_results (Proc.Manager.access mgr p));
      Alcotest.(check bool)
        "matches recompute after rollback" true
        (Proc.Manager.matches_recompute mgr p))
    pids opids;
  let m = Obs.Ctx.metrics (Storage.Io.ctx db.Workload.Database.io) in
  Alcotest.(check int) "undo counter" !logged (Obs.Metrics.get m Obs.Metrics.Txn_undo_applied)

(* ------------------------------------------------------------------ *)
(* Randomized interleavings: HOIVM vs the AR oracle                    *)
(* ------------------------------------------------------------------ *)

(* A random script of committed updates, aborted transactions and
   procedure accesses, replayed once under Update_cache_hoivm and once
   under the Always_recompute oracle.  Both runs draw the same update
   victims (same PRNG, same consumption order), so every access must
   return the identical visible result, and HOIVM's stores must survive
   matches_recompute at the end — the transactional half of the HOIVM
   differential (the crash/recovery half is test_recovery.ml's sweep). *)
type hoivm_op = Commit_update | Abort_update | Access of int

let hoivm_script_gen =
  QCheck.Gen.(
    pair (int_bound 10_000)
      (list_size (5 -- 25)
         (frequency
            [
              (3, return Commit_update);
              (2, return Abort_update);
              (3, map (fun i -> Access i) (int_bound 10));
            ])))

let hoivm_script_print (seed, script) =
  Printf.sprintf "seed %d: %s" seed
    (String.concat " "
       (List.map
          (function
            | Commit_update -> "U"
            | Abort_update -> "A"
            | Access i -> Printf.sprintf "Q%d" i)
          script))

let run_hoivm_script kind (seed, script) =
  let ctx = Obs.Ctx.create () in
  let db =
    Workload.Database.build ~seed:11 ~ctx ~model:Costmodel.Model.Model1 small_params
  in
  let mgr = Proc.Manager.create kind ~io:db.Workload.Database.io ~record_bytes:100 () in
  let pids = List.map (Proc.Manager.register mgr) (Workload.Database.all_defs db) in
  List.iter (fun p -> ignore (Proc.Manager.access mgr p)) pids;
  let tm =
    TM.create
      ~notify_update:(fun ~rel ~changes -> Proc.Manager.on_update mgr ~rel ~changes)
      ~notify_delta:(fun ~rel ~inserted ~deleted ->
        Proc.Manager.on_delta mgr ~rel ~inserted ~deleted)
      ~cost:db.Workload.Database.cost ~io:db.Workload.Database.io ()
  in
  let prng = Util.Prng.create seed in
  let pid_arr = Array.of_list pids in
  let apply_logged id =
    List.iter
      (fun (rid, newt) ->
        let before = Relation.get db.Workload.Database.r1 rid in
        ignore (Relation.update db.Workload.Database.r1 rid newt);
        TM.log_update tm id ~rel:db.Workload.Database.r1 ~rid ~before ~after:newt;
        Proc.Manager.on_update mgr ~rel:db.Workload.Database.r1
          ~changes:[ (before, newt) ])
      (Workload.Database.random_update db prng)
  in
  let digests =
    List.filter_map
      (function
        | Commit_update ->
          let id = TM.begin_ tm in
          apply_logged id;
          ignore (TM.commit tm id);
          None
        | Abort_update ->
          let id = TM.begin_ tm in
          apply_logged id;
          ignore (TM.abort tm id);
          None
        | Access i ->
          Some
            (digest_results
               (Proc.Manager.access mgr pid_arr.(i mod Array.length pid_arr))))
      script
  in
  let consistent = List.for_all (fun p -> Proc.Manager.matches_recompute mgr p) pids in
  (digests, consistent)

let hoivm_vs_ar_interleavings =
  QCheck.Test.make ~count:25
    ~name:"hoivm matches the AR oracle on random update/query/abort interleavings"
    (QCheck.make ~print:hoivm_script_print hoivm_script_gen)
    (fun spec ->
      let d_ar, ok_ar = run_hoivm_script Proc.Manager.Always_recompute spec in
      let d_ho, ok_ho = run_hoivm_script Proc.Manager.Update_cache_hoivm spec in
      ok_ar && ok_ho && d_ar = d_ho)

(* ------------------------------------------------------------------ *)
(* Simulator: determinism of stats, blocked time and deadlocks         *)
(* ------------------------------------------------------------------ *)

(* A deliberately contended workload: every session's transactions scan a
   shared interval under S then upgrade to X points inside it — the
   upgrade stand-off from the Lock_manager docs, at scale. *)
let contended_sessions n_sessions txns_per_session =
  List.init n_sessions (fun s ->
      List.init txns_per_session (fun t ->
          [
            { Txn.Sim.locks = [ (`S, iv "R" 0 100) ]; exec = (fun _ _ -> ()) };
            {
              Txn.Sim.locks = [ (`X, pt "R" (((s + t) * 7) mod 100)) ];
              exec = (fun _ _ -> ());
            };
          ]))

let run_contended seed =
  let ctx, cost, io = fresh_env () in
  let tm = mk_tm (cost, io) in
  let stats = Txn.Sim.run ~seed tm (contended_sessions 4 3) in
  (ctx, cost, tm, stats)

let test_sim_determinism () =
  let _, cost1, tm1, s1 = run_contended 11 in
  let _, cost2, tm2, s2 = run_contended 11 in
  Alcotest.(check bool) "same stats, same commit log" true (s1 = s2);
  Alcotest.(check int) "all committed" 12 s1.Txn.Sim.committed;
  Alcotest.(check int) "no leaked txns" 0 (TM.live_count tm1);
  Alcotest.(check int) "no leaked txns (2)" 0 (TM.live_count tm2);
  Alcotest.(check (float 0.0))
    "blocked time deterministic"
    (Storage.Cost.blocked_ms cost1)
    (Storage.Cost.blocked_ms cost2);
  Alcotest.(check bool)
    "contention actually happened" true
    (s1.Txn.Sim.victim_aborts > 0 || Storage.Cost.blocked_ms cost1 > 0.0)

let test_sim_victims_are_restarted () =
  let ctx, _cost, tm, s = run_contended 23 in
  Alcotest.(check int) "every transaction eventually commits" 12 s.Txn.Sim.committed;
  Alcotest.(check int) "restarts mirror victim aborts" s.Txn.Sim.victim_aborts s.Txn.Sim.restarts;
  let m = Obs.Ctx.metrics ctx in
  Alcotest.(check int)
    "victim counter agrees" s.Txn.Sim.victim_aborts
    (Obs.Metrics.get m Obs.Metrics.Deadlock_victims);
  Alcotest.(check int)
    "commit counter agrees" 12
    (Obs.Metrics.get m Obs.Metrics.Txn_commits);
  Alcotest.(check int) "no live txns" 0 (TM.live_count tm);
  Alcotest.(check int) "wal empty at quiescence" 0 (TM.undo_records_retained tm)

(* ------------------------------------------------------------------ *)
(* qcheck: commit order is conflict-equivalent to a serial oracle      *)
(* ------------------------------------------------------------------ *)

let n_keys = 8

(* A workload is sessions of transactions of (key, addend) steps; each
   step X-locks its key's point region and applies the non-commutative
   update v := 3v + c.  After the simulated interleaved run, replaying
   the specs serially in commit-log order on a plain array must produce
   the same final register file — 2PL's serializability, observed. *)
let serialization_prop (seed, sessions) =
  let _ctx, cost, io = fresh_env () in
  let reg =
    Relation.create ~io ~name:"REG"
      ~schema:(Schema.create [ ("k", Value.TInt); ("v", Value.TInt) ])
      ~tuple_bytes:16
  in
  let rids =
    Array.init n_keys (fun k ->
        Relation.insert reg (Tuple.create [ Value.Int k; Value.Int (k + 1) ]))
  in
  let tm = mk_tm (cost, io) in
  let step_of (k, c) =
    {
      Txn.Sim.locks = [ (`X, pt "REG" k) ];
      exec =
        (fun tm id ->
          let before = Relation.get reg rids.(k) in
          let v = match Tuple.get before 1 with Value.Int v -> v | _ -> assert false in
          let after = Tuple.create [ Value.Int k; Value.Int ((3 * v) + c) ] in
          ignore (Relation.update reg rids.(k) after);
          TM.log_update tm id ~rel:reg ~rid:rids.(k) ~before ~after);
    }
  in
  let sim_sessions = List.map (List.map (List.map step_of)) sessions in
  let stats = Txn.Sim.run ~seed tm sim_sessions in
  let total_txns = List.fold_left (fun a s -> a + List.length s) 0 sessions in
  (* serial oracle: replay specs in commit order on a plain array *)
  let oracle = Array.init n_keys (fun k -> k + 1) in
  List.iter
    (fun (s, t) ->
      List.iter
        (fun (k, c) -> oracle.(k) <- (3 * oracle.(k)) + c)
        (List.nth (List.nth sessions s) t))
    stats.Txn.Sim.commit_log;
  let final k =
    match Tuple.get (Relation.get reg rids.(k)) 1 with
    | Value.Int v -> v
    | _ -> assert false
  in
  stats.Txn.Sim.committed = total_txns
  && List.length stats.Txn.Sim.commit_log = total_txns
  && TM.live_count tm = 0
  && List.for_all (fun k -> final k = oracle.(k)) (List.init n_keys Fun.id)

let serialization_test =
  let gen =
    QCheck.Gen.(
      pair (int_bound 10_000)
        (list_size (1 -- 4)
           (list_size (1 -- 3)
              (list_size (1 -- 3) (pair (int_bound (n_keys - 1)) (int_bound 9))))))
  in
  QCheck.Test.make ~count:40
    ~name:"sim commit order is conflict-equivalent to serial oracle"
    (QCheck.make gen) serialization_prop

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "txn"
    [
      ( "deadlock",
        [
          Alcotest.test_case "crosswise X: youngest victim" `Quick
            test_deadlock_youngest_victim;
          Alcotest.test_case "upgrade stand-off resolution" `Quick
            test_upgrade_deadlock_resolution;
        ] );
      ( "rollback",
        List.map
          (fun kind ->
            Alcotest.test_case
              (Printf.sprintf "differential vs never-began oracle (%s)"
                 (Proc.Manager.kind_name kind))
              `Quick (rollback_differential kind))
          Proc.Manager.all_kinds );
      ( "sim",
        [
          Alcotest.test_case "deterministic stats and blocked time" `Quick
            test_sim_determinism;
          Alcotest.test_case "victims restart and all commit" `Quick
            test_sim_victims_are_restarted;
        ] );
      ( "hoivm differential",
        [ QCheck_alcotest.to_alcotest hoivm_vs_ar_interleavings ] );
      ( "serializability",
        [ QCheck_alcotest.to_alcotest serialization_test ] );
    ]
