(* Tests for Dbproc.Proc: i-locks (rule indexing), the result cache, and
   the strategy manager — including a cross-strategy equivalence property:
   whatever the strategy, an access must return the same tuples, and
   stored state must match recomputation. *)

open Dbproc
open Dbproc.Storage
open Dbproc.Query
open Dbproc.Proc

let r_schema = Schema.create [ ("k", Value.TInt); ("v", Value.TInt) ]
let s_schema = Schema.create [ ("b", Value.TInt); ("w", Value.TInt) ]

type fixture = { cost : Cost.t; io : Io.t; r : Relation.t; s : Relation.t }

let make_fixture () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let r = Relation.create ~io ~name:"R" ~schema:r_schema ~tuple_bytes:100 in
  Relation.load r (List.init 40 (fun i -> Tuple.create [ Value.Int i; Value.Int (i mod 10) ]));
  Relation.add_btree_index r ~attr:"k" ~entry_bytes:20;
  let s = Relation.create ~io ~name:"S" ~schema:s_schema ~tuple_bytes:100 in
  Relation.load s (List.init 10 (fun b -> Tuple.create [ Value.Int b; Value.Int (b * 100) ]));
  Relation.add_hash_index ~primary:true s ~attr:"b" ~entry_bytes:100 ~expected_entries:10;
  { cost; io; r; s }

let interval lo hi =
  [
    Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(Value.Int lo);
    Predicate.term ~attr:0 ~op:Predicate.Lt ~value:(Value.Int hi);
  ]

let select_def fx name lo hi = View_def.select ~name ~rel:fx.r ~restriction:(interval lo hi)

let join_def fx name lo hi =
  View_def.join (select_def fx name lo hi) ~rel:fx.s ~restriction:Predicate.always_true
    ~left:"R.v" ~op:Predicate.Eq ~right:"b"

let kv k v = Tuple.create [ Value.Int k; Value.Int v ]

(* ---------------------------------------------------------------- Ilock *)

let test_ilock_subscribe_broken () =
  let fx = make_fixture () in
  let locks = Ilock.create ~cost:fx.cost () in
  Ilock.subscribe locks ~owner:1 ~rel:"R" ~restriction:(interval 10 20);
  Ilock.subscribe locks ~owner:2 ~rel:"R" ~restriction:(interval 15 25);
  let broken =
    Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 12 0 ] ~deleted:[] ~charge_screens:false
  in
  Alcotest.(check (list int)) "only owner 1" [ 1 ]
    (List.map (fun (b : Ilock.broken) -> b.owner) broken);
  let broken =
    Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 17 0 ] ~deleted:[] ~charge_screens:false
  in
  Alcotest.(check (list int)) "both owners" [ 1; 2 ]
    (List.map (fun (b : Ilock.broken) -> b.owner) broken)

let test_ilock_no_break_outside () =
  let fx = make_fixture () in
  let locks = Ilock.create ~cost:fx.cost () in
  Ilock.subscribe locks ~owner:1 ~rel:"R" ~restriction:(interval 10 20);
  Alcotest.(check int) "outside interval" 0
    (List.length
       (Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 99 0 ] ~deleted:[] ~charge_screens:false));
  Alcotest.(check int) "other relation" 0
    (List.length
       (Ilock.broken_by locks ~rel:"S" ~inserted:[ kv 12 0 ] ~deleted:[] ~charge_screens:false))

let test_ilock_deleted_side () =
  let fx = make_fixture () in
  let locks = Ilock.create ~cost:fx.cost () in
  Ilock.subscribe locks ~owner:7 ~rel:"R" ~restriction:(interval 0 5);
  match Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 50 0 ] ~deleted:[ kv 3 0 ] ~charge_screens:false with
  | [ b ] ->
    Alcotest.(check int) "no inserted survivor" 0 (List.length b.Ilock.inserted);
    Alcotest.(check int) "one deleted survivor" 1 (List.length b.Ilock.deleted)
  | _ -> Alcotest.fail "expected exactly one broken owner"

let test_ilock_charging () =
  let fx = make_fixture () in
  let locks = Ilock.create ~cost:fx.cost () in
  Ilock.subscribe locks ~owner:1 ~rel:"R" ~restriction:(interval 0 10);
  Ilock.subscribe locks ~owner:2 ~rel:"R" ~restriction:(interval 5 15);
  Cost.reset fx.cost;
  (* tuple k=7 is covered by both intervals -> 2 screens when charging *)
  ignore (Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 7 0 ] ~deleted:[] ~charge_screens:true);
  Alcotest.(check int) "2 screens" 2 (Cost.cpu_screens fx.cost);
  Cost.reset fx.cost;
  ignore (Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 7 0 ] ~deleted:[] ~charge_screens:false);
  Alcotest.(check int) "uncharged for CI" 0 (Cost.cpu_screens fx.cost)

let test_ilock_unsubscribe () =
  let fx = make_fixture () in
  let locks = Ilock.create ~cost:fx.cost () in
  Ilock.subscribe locks ~owner:1 ~rel:"R" ~restriction:(interval 0 10);
  Ilock.unsubscribe locks ~owner:1;
  Alcotest.(check int) "no owners" 0 (List.length (Ilock.owners locks ~rel:"R"));
  Alcotest.(check int) "no breaks" 0
    (List.length
       (Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 5 0 ] ~deleted:[] ~charge_screens:false))

let test_ilock_multi_attr_locks_whole_relation () =
  let fx = make_fixture () in
  let locks = Ilock.create ~cost:fx.cost () in
  let restriction =
    [
      Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(Value.Int 0);
      Predicate.term ~attr:1 ~op:Predicate.Eq ~value:(Value.Int 3);
    ]
  in
  Ilock.subscribe locks ~owner:1 ~rel:"R" ~restriction;
  (* whole-relation region: any tuple is covered, then screened fully *)
  match Ilock.broken_by locks ~rel:"R" ~inserted:[ kv 33 3 ] ~deleted:[] ~charge_screens:false with
  | [ b ] -> Alcotest.(check int) "survivor passes restriction" 1 (List.length b.Ilock.inserted)
  | _ -> Alcotest.fail "expected one broken owner"

(* ----------------------------------------------------------- Result_cache *)

let test_cache_hit_reads_pages () =
  let fx = make_fixture () in
  let cache = Result_cache.create ~record_bytes:100 (select_def fx "C" 0 12) in
  Alcotest.(check bool) "valid initially" true (Result_cache.is_valid cache);
  Cost.reset fx.cost;
  let result = Result_cache.access cache in
  Alcotest.(check int) "12 tuples" 12 (List.length result);
  (* 12 tuples / 4 per page = 3 reads, no recompute *)
  Alcotest.(check int) "3 page reads" 3 (Cost.page_reads fx.cost);
  Alcotest.(check int) "no screens (no recompute)" 0 (Cost.cpu_screens fx.cost)

let test_cache_invalidate_recompute () =
  let fx = make_fixture () in
  let cache = Result_cache.create ~record_bytes:100 (select_def fx "C" 0 12) in
  Cost.reset fx.cost;
  Result_cache.invalidate cache;
  Alcotest.(check bool) "invalid" false (Result_cache.is_valid cache);
  Alcotest.(check int) "C_inval charged" 1 (Cost.invalidations fx.cost);
  (* idempotent: second invalidation free *)
  Result_cache.invalidate cache;
  Alcotest.(check int) "idempotent" 1 (Cost.invalidations fx.cost);
  Cost.reset fx.cost;
  let result = Result_cache.access cache in
  Alcotest.(check int) "12 tuples" 12 (List.length result);
  Alcotest.(check bool) "valid again" true (Result_cache.is_valid cache);
  (* recompute screens the 12 base tuples, and the rewrite writes 3 pages *)
  Alcotest.(check int) "screens" 12 (Cost.cpu_screens fx.cost);
  Alcotest.(check int) "cache pages written" 3 (Cost.page_writes fx.cost);
  Alcotest.(check int) "misses" 1 (Result_cache.misses cache);
  Alcotest.(check int) "accesses" 1 (Result_cache.accesses cache)

let test_cache_reflects_base_change_after_invalidation () =
  let fx = make_fixture () in
  let cache = Result_cache.create ~record_bytes:100 (select_def fx "C" 0 5) in
  (* change the base: move k=50? there is none; update k=2 out of range *)
  (match Relation.fetch_by_key fx.r ~attr:"k" (Value.Int 2) with
  | (rid, _) :: _ -> ignore (Relation.update fx.r rid (kv 99 0))
  | [] -> Alcotest.fail "missing tuple");
  (* stale while valid *)
  Alcotest.(check int) "stale value served" 5 (List.length (Result_cache.access cache));
  Result_cache.invalidate cache;
  Alcotest.(check int) "fresh after invalidation" 4 (List.length (Result_cache.access cache))

(* -------------------------------------------------------------- Manager *)

let manager_kinds =
  [
    Manager.Always_recompute;
    Manager.Cache_invalidate;
    Manager.Update_cache_avm;
    Manager.Update_cache_rvm;
  ]

let sorted = List.sort Tuple.compare

let run_scenario kind =
  (* Install one P1 and one P2 procedure, run a mixed update/access script,
     return final access results for both. *)
  let fx = make_fixture () in
  let m = Manager.create kind ~io:fx.io ~record_bytes:100 () in
  let p1 = Manager.register m (select_def fx "P1" 5 15) in
  let p2 = Manager.register m (join_def fx "P2" 10 25) in
  let do_update k new_tuple =
    match
      Cost.with_disabled fx.cost (fun () -> Relation.fetch_by_key fx.r ~attr:"k" (Value.Int k))
    with
    | (rid, _) :: _ ->
      let old_new = Cost.with_disabled fx.cost (fun () -> Relation.update_batch fx.r [ (rid, new_tuple) ]) in
      Manager.on_update m ~rel:fx.r ~changes:old_new
    | [] -> ()
  in
  ignore (Manager.access m p1);
  do_update 7 (kv 99 7);
  (* leaves P1's interval *)
  ignore (Manager.access m p2);
  do_update 30 (kv 12 4);
  (* enters both intervals *)
  do_update 12 (kv 12 9);
  (* in-place value change inside both (k unchanged? k=12 stays) *)
  let r1 = Manager.access m p1 in
  let r2 = Manager.access m p2 in
  Alcotest.(check bool) (Manager.kind_name kind ^ " p1 consistent") true
    (Manager.matches_recompute m p1);
  Alcotest.(check bool) (Manager.kind_name kind ^ " p2 consistent") true
    (Manager.matches_recompute m p2);
  (sorted r1, sorted r2)

let test_all_strategies_agree () =
  match List.map run_scenario manager_kinds with
  | (ar1, ar2) :: rest ->
    List.iteri
      (fun i (r1, r2) ->
        Alcotest.(check bool)
          (Printf.sprintf "strategy %d p1 equals AR" (i + 1))
          true
          (List.length r1 = List.length ar1 && List.for_all2 Tuple.equal r1 ar1);
        Alcotest.(check bool)
          (Printf.sprintf "strategy %d p2 equals AR" (i + 1))
          true
          (List.length r2 = List.length ar2 && List.for_all2 Tuple.equal r2 ar2))
      rest
  | [] -> assert false

let test_manager_register_access () =
  let fx = make_fixture () in
  let m = Manager.create Manager.Always_recompute ~io:fx.io ~record_bytes:100 () in
  let id = Manager.register m (select_def fx "P" 0 10) in
  Alcotest.(check int) "count" 1 (Manager.procedure_count m);
  Alcotest.(check (list int)) "ids" [ id ] (Manager.proc_ids m);
  Alcotest.(check int) "10 tuples" 10 (List.length (Manager.access m id));
  Alcotest.(check int) "cardinality" 10 (Manager.result_cardinality m id)

let test_manager_unknown_id () =
  let fx = make_fixture () in
  let m = Manager.create Manager.Always_recompute ~io:fx.io ~record_bytes:100 () in
  Alcotest.(check bool) "unknown id rejected" true
    (try
       ignore (Manager.access m 42);
       false
     with Invalid_argument _ -> true)

let test_manager_ci_inval_flow () =
  let fx = make_fixture () in
  let m = Manager.create Manager.Cache_invalidate ~io:fx.io ~record_bytes:100 () in
  let id = Manager.register m (select_def fx "P" 5 15) in
  (* update outside the interval: no invalidation *)
  Cost.reset fx.cost;
  (match Cost.with_disabled fx.cost (fun () -> Relation.fetch_by_key fx.r ~attr:"k" (Value.Int 30)) with
  | (rid, _) :: _ ->
    let old_new = Cost.with_disabled fx.cost (fun () -> Relation.update_batch fx.r [ (rid, kv 31 0) ]) in
    Manager.on_update m ~rel:fx.r ~changes:old_new
  | [] -> ());
  Alcotest.(check int) "no invalidation" 0 (Cost.invalidations fx.cost);
  (* update inside: invalidation recorded *)
  (match Cost.with_disabled fx.cost (fun () -> Relation.fetch_by_key fx.r ~attr:"k" (Value.Int 7)) with
  | (rid, _) :: _ ->
    let old_new = Cost.with_disabled fx.cost (fun () -> Relation.update_batch fx.r [ (rid, kv 7 99) ]) in
    Manager.on_update m ~rel:fx.r ~changes:old_new
  | [] -> ());
  Alcotest.(check int) "invalidated" 1 (Cost.invalidations fx.cost);
  ignore (Manager.access m id);
  Alcotest.(check bool) "fresh after access" true (Manager.matches_recompute m id)

let test_manager_rvm_sharing_counts () =
  let fx = make_fixture () in
  let m = Manager.create Manager.Update_cache_rvm ~io:fx.io ~record_bytes:100 () in
  ignore (Manager.register m (select_def fx "P1" 5 15));
  ignore (Manager.register m (join_def fx "P2" 5 15));
  (* same base restriction *)
  Alcotest.(check int) "alpha shared" 1 (Manager.shared_alpha_count m);
  let m' = Manager.create Manager.Update_cache_avm ~io:fx.io ~record_bytes:100 () in
  ignore (Manager.register m' (select_def fx "P1" 5 15));
  Alcotest.(check int) "avm has no sharing" 0 (Manager.shared_alpha_count m')

let test_manager_zero_budget_falls_back () =
  (* With a zero-page budget the CI store is never admitted: every access
     answers with a plain recompute (counted as a fallback), results stay
     correct, and nothing is ever resident. *)
  let fx = make_fixture () in
  let budget = Cache.Budget.create ~budget_pages:0 ~io:fx.io () in
  let m = Manager.create Manager.Cache_invalidate ~io:fx.io ~record_bytes:100 ~cache:budget () in
  let id = Manager.register m (select_def fx "P" 0 10) in
  let r1 = Manager.access m id in
  let r2 = Manager.access m id in
  Alcotest.(check int) "10 tuples" 10 (List.length r1);
  Alcotest.(check bool) "repeat access agrees" true
    (List.for_all2 Tuple.equal (sorted r1) (sorted r2));
  Alcotest.(check bool) "fallbacks counted" true
    (Obs.Metrics.get (Cost.metrics fx.cost) Obs.Metrics.Cache_fallback_recomputes >= 2);
  Alcotest.(check int) "nothing resident" 0 (Cache.Budget.used_pages budget);
  Alcotest.(check int) "peak 0" 0 (Cache.Budget.max_used_pages budget)

let test_manager_adaptive_placement () =
  (* Registration places each procedure where the closed form is cheapest
     at the declared workload's nominal P: an update-free workload gets a
     cached strategy, an update-saturated one Always Recompute. *)
  let open Dbproc.Costmodel in
  let place params =
    let fx = make_fixture () in
    let ad = Manager.adaptive_config ~model:Model.Model1 ~params () in
    let m =
      Manager.create Manager.Always_recompute ~io:fx.io ~record_bytes:100 ~adaptive:ad ()
    in
    let id = Manager.register m (select_def fx "P" 0 10) in
    Manager.current_strategy m id
  in
  let base = { Params.default with Params.n = 400.0 } in
  let read_only = place { base with Params.k = 0.0; q = 50.0 } in
  Alcotest.(check bool)
    ("read-only workload cached, got " ^ Strategy.name read_only)
    true
    (read_only <> Strategy.Always_recompute);
  let update_heavy = place { base with Params.k = 99.0; q = 1.0 } in
  Alcotest.(check bool)
    ("update-saturated workload recomputes, got " ^ Strategy.name update_heavy)
    true
    (update_heavy = Strategy.Always_recompute)

let strategies_agree_property =
  (* Random workloads: all four strategies return identical access results
     and end consistent. *)
  QCheck.Test.make ~name:"all strategies agree under random workloads" ~count:25
    QCheck.(list_of_size (Gen.int_range 1 12) (pair (int_bound 39) (int_bound 45)))
    (fun updates ->
      let results =
        List.map
          (fun kind ->
            let fx = make_fixture () in
            let m = Manager.create kind ~io:fx.io ~record_bytes:100 () in
            let p1 = Manager.register m (select_def fx "P1" 8 20) in
            let p2 = Manager.register m (join_def fx "P2" 15 30) in
            List.iter
              (fun (victim, new_k) ->
                match
                  Cost.with_disabled fx.cost (fun () ->
                      Relation.fetch_by_key fx.r ~attr:"k" (Value.Int victim))
                with
                | (rid, old_t) :: _ ->
                  let new_t = Tuple.create [ Value.Int new_k; Tuple.get old_t 1 ] in
                  let old_new =
                    Cost.with_disabled fx.cost (fun () ->
                        Relation.update_batch fx.r [ (rid, new_t) ])
                  in
                  Manager.on_update m ~rel:fx.r ~changes:old_new
                | [] -> ())
              updates;
            let ok = Manager.matches_recompute m p1 && Manager.matches_recompute m p2 in
            (sorted (Manager.access m p1), sorted (Manager.access m p2), ok))
          manager_kinds
      in
      match results with
      | (ar1, ar2, ar_ok) :: rest ->
        ar_ok
        && List.for_all
             (fun (r1, r2, ok) ->
               ok
               && List.length r1 = List.length ar1
               && List.for_all2 Tuple.equal r1 ar1
               && List.length r2 = List.length ar2
               && List.for_all2 Tuple.equal r2 ar2)
             rest
      | [] -> false)

(* -------------------------------------------------------- Lock_manager *)

let iv rel lo hi =
  Lock_manager.Interval
    {
      rel;
      attr = 0;
      lo = Dbproc.Index.Btree.Inclusive (Value.Int lo);
      hi = Dbproc.Index.Btree.Exclusive (Value.Int hi);
    }

let test_lm_regions_overlap () =
  Alcotest.(check bool) "overlapping" true
    (Lock_manager.regions_overlap (iv "R" 0 10) (iv "R" 5 15));
  Alcotest.(check bool) "touching half-open" false
    (Lock_manager.regions_overlap (iv "R" 0 10) (iv "R" 10 20));
  Alcotest.(check bool) "different relations" false
    (Lock_manager.regions_overlap (iv "R" 0 10) (iv "S" 0 10));
  Alcotest.(check bool) "whole covers interval" true
    (Lock_manager.regions_overlap (Lock_manager.Whole "R") (iv "R" 50 60));
  Alcotest.(check bool) "point in interval" true
    (Lock_manager.regions_overlap (Lock_manager.point ~rel:"R" ~attr:0 (Value.Int 3)) (iv "R" 0 10));
  Alcotest.(check bool) "different attrs conservative" true
    (Lock_manager.regions_overlap
       (Lock_manager.point ~rel:"R" ~attr:1 (Value.Int 3))
       (iv "R" 100 200))

let test_lm_s_locks_compatible () =
  let lm = Lock_manager.create () in
  let t1 = Lock_manager.begin_txn lm in
  let t2 = Lock_manager.begin_txn lm in
  Alcotest.(check bool) "t1 S" true (Lock_manager.acquire lm t1 ~mode:`S (iv "R" 0 10) = `Granted);
  Alcotest.(check bool) "t2 S same region" true
    (Lock_manager.acquire lm t2 ~mode:`S (iv "R" 5 15) = `Granted);
  Alcotest.(check int) "2 live" 2 (Lock_manager.live_txn_count lm)

let test_lm_x_conflicts () =
  let lm = Lock_manager.create () in
  let t1 = Lock_manager.begin_txn lm in
  let t2 = Lock_manager.begin_txn lm in
  Alcotest.(check bool) "t1 X" true (Lock_manager.acquire lm t1 ~mode:`X (iv "R" 0 10) = `Granted);
  (match Lock_manager.acquire lm t2 ~mode:`S (iv "R" 5 15) with
  | `Would_block [ holder ] -> Alcotest.(check bool) "holder is t1" true (holder = t1)
  | _ -> Alcotest.fail "expected would-block");
  (* disjoint region fine *)
  Alcotest.(check bool) "disjoint grants" true
    (Lock_manager.acquire lm t2 ~mode:`X (iv "R" 50 60) = `Granted);
  (* after t1 commits, the region frees up *)
  ignore (Lock_manager.commit lm t1);
  Alcotest.(check bool) "freed after commit" true
    (Lock_manager.acquire lm t2 ~mode:`S (iv "R" 5 15) = `Granted)

let test_lm_reacquire_and_upgrade () =
  let lm = Lock_manager.create () in
  let t1 = Lock_manager.begin_txn lm in
  Alcotest.(check bool) "S" true (Lock_manager.acquire lm t1 ~mode:`S (iv "R" 0 10) = `Granted);
  Alcotest.(check bool) "upgrade to X" true
    (Lock_manager.acquire lm t1 ~mode:`X (iv "R" 0 10) = `Granted)

let test_lm_ilock_break () =
  let lm = Lock_manager.create () in
  Lock_manager.set_ilock lm ~owner:7 ~tag:1 (iv "R" 0 10);
  Lock_manager.set_ilock lm ~owner:8 (iv "R" 100 110);
  let t1 = Lock_manager.begin_txn lm in
  (* an S lock never breaks i-locks *)
  ignore (Lock_manager.acquire lm t1 ~mode:`S (iv "R" 0 10));
  Alcotest.(check (list bool)) "commit reports nothing" []
    (List.map (fun _ -> true) (Lock_manager.commit lm t1));
  (* an X on owner 7's region breaks it *)
  let t2 = Lock_manager.begin_txn lm in
  ignore (Lock_manager.acquire lm t2 ~mode:`X (Lock_manager.point ~rel:"R" ~attr:0 (Value.Int 5)));
  (match Lock_manager.commit lm t2 with
  | [ b ] ->
    Alcotest.(check int) "owner" 7 b.Lock_manager.owner;
    Alcotest.(check int) "tag" 1 b.Lock_manager.tag
  | _ -> Alcotest.fail "expected exactly one broken i-lock");
  (* the broken lock is gone; owner 8's survives *)
  Alcotest.(check int) "one i-lock left" 1 (Lock_manager.ilock_count lm)

let test_lm_ilock_break_reported_once () =
  let lm = Lock_manager.create () in
  Lock_manager.set_ilock lm ~owner:7 (iv "R" 0 10);
  let t = Lock_manager.begin_txn lm in
  ignore (Lock_manager.acquire lm t ~mode:`X (Lock_manager.point ~rel:"R" ~attr:0 (Value.Int 1)));
  ignore (Lock_manager.acquire lm t ~mode:`X (Lock_manager.point ~rel:"R" ~attr:0 (Value.Int 2)));
  Alcotest.(check int) "reported once" 1 (List.length (Lock_manager.commit lm t))

let test_lm_upgrade_deadlock () =
  (* two holders of overlapping S locks both requesting the X upgrade is
     a stand-off: each side blocks on the other, and neither can make
     progress by waiting.  This layer only detects — both answers must be
     [`Would_block] naming the other; Txn.Manager resolves the 2-cycle by
     aborting the youngest (see the upgrade-deadlock note in the mli). *)
  let lm = Lock_manager.create () in
  let t1 = Lock_manager.begin_txn lm in
  let t2 = Lock_manager.begin_txn lm in
  Alcotest.(check bool) "t1 S" true
    (Lock_manager.acquire lm t1 ~mode:`S (iv "R" 0 10) = `Granted);
  Alcotest.(check bool) "t2 S overlaps" true
    (Lock_manager.acquire lm t2 ~mode:`S (iv "R" 5 15) = `Granted);
  (match Lock_manager.acquire lm t1 ~mode:`X (iv "R" 0 10) with
  | `Would_block [ h ] -> Alcotest.(check bool) "t1 blocked by t2" true (h = t2)
  | `Would_block _ -> Alcotest.fail "t1 blocked by more than t2"
  | `Granted -> Alcotest.fail "t1 upgrade granted through t2's S lock");
  (match Lock_manager.acquire lm t2 ~mode:`X (iv "R" 5 15) with
  | `Would_block [ h ] -> Alcotest.(check bool) "t2 blocked by t1" true (h = t1)
  | `Would_block _ -> Alcotest.fail "t2 blocked by more than t1"
  | `Granted -> Alcotest.fail "t2 upgrade granted through t1's S lock");
  (* the resolution Txn.Manager applies: abort one side, the other's
     upgrade is then granted *)
  Lock_manager.abort lm t2;
  Alcotest.(check bool) "t1 upgrade after abort" true
    (Lock_manager.acquire lm t1 ~mode:`X (iv "R" 0 10) = `Granted)

let test_lm_abort_keeps_breaks () =
  let lm = Lock_manager.create () in
  Lock_manager.set_ilock lm ~owner:7 (iv "R" 0 10);
  let t = Lock_manager.begin_txn lm in
  ignore (Lock_manager.acquire lm t ~mode:`X (Lock_manager.point ~rel:"R" ~attr:0 (Value.Int 1)));
  Lock_manager.abort lm t;
  (* conservative: the i-lock stays broken (dropped) even on abort *)
  Alcotest.(check int) "i-lock dropped" 0 (Lock_manager.ilock_count lm)

let test_lm_region_of_restriction () =
  (match Lock_manager.region_of_restriction ~rel:"R" (interval 3 9) with
  | Lock_manager.Interval { attr = 0; _ } -> ()
  | _ -> Alcotest.fail "expected interval region");
  match
    Lock_manager.region_of_restriction ~rel:"R"
      [
        Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(Value.Int 0);
        Predicate.term ~attr:1 ~op:Predicate.Eq ~value:(Value.Int 1);
      ]
  with
  | Lock_manager.Whole "R" -> ()
  | _ -> Alcotest.fail "multi-attr restriction locks the whole relation"

(* Cross-oracle: Lock_manager and Ilock must agree on which owners an
   update transaction invalidates (Ilock additionally screens survivors,
   so agreement is on the owner sets). *)
let lm_matches_ilock_property =
  QCheck.Test.make ~name:"lock manager agrees with ilock on broken owners" ~count:120
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 12) (pair (int_bound 50) (int_bound 20)))
        (list_of_size (Gen.int_range 1 10) (int_bound 60)))
    (fun (subs, writes) ->
      let cost = Cost.create () in
      let locks = Ilock.create ~cost () in
      let lm = Lock_manager.create () in
      List.iteri
        (fun owner (lo, w) ->
          let restriction = interval lo (lo + 1 + w) in
          Ilock.subscribe locks ~owner ~rel:"R" ~restriction;
          Lock_manager.set_ilock lm ~owner
            (Lock_manager.region_of_restriction ~rel:"R" restriction))
        subs;
      let tuples = List.map (fun v -> kv v 0) writes in
      let ilock_owners =
        Ilock.broken_by locks ~rel:"R" ~inserted:tuples ~deleted:[] ~charge_screens:false
        |> List.map (fun (b : Ilock.broken) -> b.owner)
        |> List.sort_uniq compare
      in
      let txn = Lock_manager.begin_txn lm in
      List.iter
        (fun v ->
          ignore
            (Lock_manager.acquire lm txn ~mode:`X
               (Lock_manager.point ~rel:"R" ~attr:0 (Value.Int v))))
        writes;
      let lm_owners =
        Lock_manager.commit lm txn
        |> List.map (fun (b : Lock_manager.broken) -> b.owner)
        |> List.sort_uniq compare
      in
      ilock_owners = lm_owners)

(* ------------------------------------------------------- Inval_table *)

let make_inval scheme =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:4000 in
  (cost, Inval_table.create ~io ~scheme ~procs:20)

let test_inval_page_flag_costs () =
  let cost, t = make_inval Inval_table.Page_flag in
  Cost.reset cost;
  Inval_table.set_invalid t 3;
  Alcotest.(check int) "read" 1 (Cost.page_reads cost);
  Alcotest.(check int) "write" 1 (Cost.page_writes cost);
  Alcotest.(check bool) "invalid" false (Inval_table.is_valid t 3);
  (* idempotent: invalidating again is free *)
  Inval_table.set_invalid t 3;
  Alcotest.(check int) "idempotent" 1 (Cost.page_reads cost)

let test_inval_nvram_free () =
  let cost, t = make_inval Inval_table.Nvram in
  Cost.reset cost;
  Inval_table.set_invalid t 5;
  Inval_table.set_valid t 5;
  Alcotest.(check int) "no I/O" 0 (Cost.page_reads cost + Cost.page_writes cost);
  Alcotest.(check int) "2 transitions" 2 (Inval_table.invalidations_recorded t)

let test_inval_wal_cheaper_than_page_flag () =
  let cost, t = make_inval (Inval_table.Wal_logged { checkpoint_every = 1000 }) in
  Cost.reset cost;
  for i = 0 to 19 do
    Inval_table.set_invalid t i
  done;
  Inval_table.end_of_transaction t;
  let wal_ios = Cost.page_reads cost + Cost.page_writes cost in
  Alcotest.(check bool)
    (Printf.sprintf "wal %d I/Os << 40 (page flag)" wal_ios)
    true (wal_ios < 5)

let test_inval_recovery_each_scheme () =
  List.iter
    (fun scheme ->
      let _, t = make_inval scheme in
      let prng = Dbproc.Util.Prng.create 31 in
      for _ = 1 to 200 do
        let p = Dbproc.Util.Prng.int prng 20 in
        if Inval_table.is_valid t p then Inval_table.set_invalid t p
        else Inval_table.set_valid t p
      done;
      Inval_table.end_of_transaction t;
      let recovered = Inval_table.crash_and_recover t in
      for p = 0 to 19 do
        Alcotest.(check bool)
          (Printf.sprintf "%s proc %d" (Inval_table.scheme_name scheme) p)
          (Inval_table.is_valid t p)
          (Inval_table.is_valid recovered p)
      done)
    [
      Inval_table.Page_flag;
      Inval_table.Nvram;
      Inval_table.Wal_logged { checkpoint_every = 64 };
      Inval_table.Wal_logged { checkpoint_every = 7 };
    ]

let test_inval_wal_unforced_tail_lost () =
  (* A crash before end_of_transaction may lose the newest transitions —
     recovery must still be self-consistent (valid prefix state). *)
  let _, t = make_inval (Inval_table.Wal_logged { checkpoint_every = 1000 }) in
  Inval_table.set_invalid t 0;
  Inval_table.end_of_transaction t;
  Inval_table.set_invalid t 1;
  (* not forced *)
  let recovered = Inval_table.crash_and_recover t in
  Alcotest.(check bool) "forced transition survived" false (Inval_table.is_valid recovered 0);
  Alcotest.(check bool) "unforced transition lost" true (Inval_table.is_valid recovered 1)

let test_inval_checkpoint_bounds_log () =
  let cost, t = make_inval (Inval_table.Wal_logged { checkpoint_every = 10 }) in
  for i = 0 to 199 do
    let p = i mod 20 in
    if Inval_table.is_valid t p then Inval_table.set_invalid t p
    else Inval_table.set_valid t p
  done;
  Inval_table.end_of_transaction t;
  Cost.reset cost;
  ignore (Inval_table.crash_and_recover t);
  (* recovery reads the checkpoint page(s) + a short log suffix *)
  Alcotest.(check bool) "recovery bounded" true (Cost.page_reads cost <= 3)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "proc"
    [
      ( "ilock",
        [
          Alcotest.test_case "subscribe/broken" `Quick test_ilock_subscribe_broken;
          Alcotest.test_case "no break outside region" `Quick test_ilock_no_break_outside;
          Alcotest.test_case "deleted side" `Quick test_ilock_deleted_side;
          Alcotest.test_case "screen charging" `Quick test_ilock_charging;
          Alcotest.test_case "unsubscribe" `Quick test_ilock_unsubscribe;
          Alcotest.test_case "multi-attr whole-relation lock" `Quick
            test_ilock_multi_attr_locks_whole_relation;
        ] );
      ( "result_cache",
        [
          Alcotest.test_case "hit reads pages" `Quick test_cache_hit_reads_pages;
          Alcotest.test_case "invalidate + recompute" `Quick test_cache_invalidate_recompute;
          Alcotest.test_case "fresh after invalidation" `Quick
            test_cache_reflects_base_change_after_invalidation;
        ] );
      ( "manager",
        [
          Alcotest.test_case "register/access" `Quick test_manager_register_access;
          Alcotest.test_case "unknown id" `Quick test_manager_unknown_id;
          Alcotest.test_case "CI invalidation flow" `Quick test_manager_ci_inval_flow;
          Alcotest.test_case "RVM sharing counts" `Quick test_manager_rvm_sharing_counts;
          Alcotest.test_case "zero budget falls back" `Quick test_manager_zero_budget_falls_back;
          Alcotest.test_case "adaptive placement" `Quick test_manager_adaptive_placement;
          Alcotest.test_case "all strategies agree (scenario)" `Quick test_all_strategies_agree;
          qc strategies_agree_property;
        ] );
      ( "lock_manager",
        [
          Alcotest.test_case "region overlap" `Quick test_lm_regions_overlap;
          Alcotest.test_case "S compatible" `Quick test_lm_s_locks_compatible;
          Alcotest.test_case "X conflicts" `Quick test_lm_x_conflicts;
          Alcotest.test_case "reacquire/upgrade" `Quick test_lm_reacquire_and_upgrade;
          Alcotest.test_case "upgrade deadlock stand-off" `Quick test_lm_upgrade_deadlock;
          Alcotest.test_case "i-lock break" `Quick test_lm_ilock_break;
          Alcotest.test_case "break reported once" `Quick test_lm_ilock_break_reported_once;
          Alcotest.test_case "abort keeps breaks" `Quick test_lm_abort_keeps_breaks;
          Alcotest.test_case "region of restriction" `Quick test_lm_region_of_restriction;
          qc lm_matches_ilock_property;
        ] );
      ( "inval_table",
        [
          Alcotest.test_case "page-flag costs 2 I/Os" `Quick test_inval_page_flag_costs;
          Alcotest.test_case "nvram free" `Quick test_inval_nvram_free;
          Alcotest.test_case "wal cheaper than page flag" `Quick
            test_inval_wal_cheaper_than_page_flag;
          Alcotest.test_case "recovery (all schemes)" `Quick test_inval_recovery_each_scheme;
          Alcotest.test_case "unforced tail lost" `Quick test_inval_wal_unforced_tail_lost;
          Alcotest.test_case "checkpoint bounds recovery" `Quick
            test_inval_checkpoint_bounds_log;
        ] );
    ]
