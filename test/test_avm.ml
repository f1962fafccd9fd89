(* Tests for Dbproc.Avm: the differential identity
   V(A ∪ a − d, B) = V(A,B) ∪ V(a,B) − V(d,B), cache refresh charging, and
   a randomized equivalence property against recomputation. *)

open Dbproc
open Dbproc.Storage
open Dbproc.Query
open Dbproc.Avm

let r_schema = Schema.create [ ("k", Value.TInt); ("v", Value.TInt) ]
let s_schema = Schema.create [ ("b", Value.TInt); ("w", Value.TInt) ]

type fixture = { cost : Cost.t; r : Relation.t; s : Relation.t }

let make_fixture () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let r = Relation.create ~io ~name:"R" ~schema:r_schema ~tuple_bytes:100 in
  Relation.load r (List.init 40 (fun i -> Tuple.create [ Value.Int i; Value.Int (i mod 10) ]));
  Relation.add_btree_index r ~attr:"k" ~entry_bytes:20;
  let s = Relation.create ~io ~name:"S" ~schema:s_schema ~tuple_bytes:100 in
  Relation.load s (List.init 10 (fun b -> Tuple.create [ Value.Int b; Value.Int (b * 100) ]));
  Relation.add_hash_index ~primary:true s ~attr:"b" ~entry_bytes:100 ~expected_entries:10;
  { cost; r; s }

let interval schema attr lo hi =
  let pos = Schema.index_of schema attr in
  [
    Predicate.term ~attr:pos ~op:Predicate.Ge ~value:(Value.Int lo);
    Predicate.term ~attr:pos ~op:Predicate.Lt ~value:(Value.Int hi);
  ]

let select_def fx lo hi =
  View_def.select ~name:"V" ~rel:fx.r ~restriction:(interval r_schema "k" lo hi)

let join_def fx lo hi =
  View_def.join (select_def fx lo hi) ~rel:fx.s ~restriction:Predicate.always_true ~left:"R.v"
    ~op:Predicate.Eq ~right:"b"

(* Survivors of the base restriction among a tuple list. *)
let screen (def : View_def.t) tuples =
  List.filter (Predicate.eval def.View_def.base.restriction) tuples

let test_initial_contents () =
  let fx = make_fixture () in
  let view = Materialized_view.create ~record_bytes:100 (select_def fx 5 15) in
  Alcotest.(check int) "10 tuples" 10 (Materialized_view.cardinality view);
  Alcotest.(check bool) "matches recompute" true (Materialized_view.matches_recompute view)

let test_read_charges_pages () =
  let fx = make_fixture () in
  let view = Materialized_view.create ~record_bytes:100 (select_def fx 0 12) in
  Cost.reset fx.cost;
  let tuples = Materialized_view.read view in
  Alcotest.(check int) "12 tuples" 12 (List.length tuples);
  (* 12 tuples at 4/page = 3 pages *)
  Alcotest.(check int) "3 page reads" 3 (Cost.page_reads fx.cost)

let apply_update fx view (def : View_def.t) changes =
  (* changes: (rid, new tuple). Apply to the base, then screen old/new
     against the restriction and feed survivors to the view. *)
  let old_new =
    Cost.with_disabled fx.cost (fun () -> Relation.update_batch fx.r changes)
  in
  let olds = List.map fst old_new and news = List.map snd old_new in
  Materialized_view.apply_base_delta view ~inserted:(screen def news)
    ~deleted:(screen def olds)

let rid_of fx k =
  match Relation.fetch_by_key fx.r ~attr:"k" (Value.Int k) with
  | (rid, _) :: _ -> rid
  | [] -> Alcotest.failf "no tuple with k=%d" k

let test_select_insert_into_view () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  (* move tuple k=20 into the interval by rewriting its key to 7 *)
  let rid = Cost.with_disabled fx.cost (fun () -> rid_of fx 20) in
  apply_update fx view def [ (rid, Tuple.create [ Value.Int 7; Value.Int 0 ]) ];
  Alcotest.(check int) "now 11 tuples" 11 (Materialized_view.cardinality view);
  Alcotest.(check bool) "matches recompute" true (Materialized_view.matches_recompute view)

let test_select_delete_from_view () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  let rid = Cost.with_disabled fx.cost (fun () -> rid_of fx 7) in
  apply_update fx view def [ (rid, Tuple.create [ Value.Int 99; Value.Int 7 ]) ];
  Alcotest.(check int) "now 9 tuples" 9 (Materialized_view.cardinality view);
  Alcotest.(check bool) "matches recompute" true (Materialized_view.matches_recompute view)

let test_update_within_view () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  (* k stays in interval but v changes: delete+insert in place *)
  let rid = Cost.with_disabled fx.cost (fun () -> rid_of fx 7) in
  apply_update fx view def [ (rid, Tuple.create [ Value.Int 7; Value.Int 777 ]) ];
  Alcotest.(check int) "still 10 tuples" 10 (Materialized_view.cardinality view);
  Alcotest.(check bool) "matches recompute" true (Materialized_view.matches_recompute view)

let test_join_view_maintenance () =
  let fx = make_fixture () in
  let def = join_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  Alcotest.(check int) "10 joined" 10 (Materialized_view.cardinality view);
  let rid = Cost.with_disabled fx.cost (fun () -> rid_of fx 20) in
  apply_update fx view def [ (rid, Tuple.create [ Value.Int 6; Value.Int 3 ]) ];
  Alcotest.(check int) "11 joined" 11 (Materialized_view.cardinality view);
  Alcotest.(check bool) "matches recompute" true (Materialized_view.matches_recompute view)

let test_delta_charges_c3 () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  Cost.reset fx.cost;
  let rid = Cost.with_disabled fx.cost (fun () -> rid_of fx 7) in
  apply_update fx view def [ (rid, Tuple.create [ Value.Int 8; Value.Int 0 ]) ];
  (* old (k=7) and new (k=8) both survive the restriction: 2 delta ops *)
  Alcotest.(check int) "c3 per survivor" 2 (Cost.delta_ops fx.cost)

let test_refresh_batches_pages () =
  let fx = make_fixture () in
  let def = select_def fx 0 4 in
  (* view = 4 tuples on exactly 1 page *)
  let view = Materialized_view.create ~record_bytes:100 def in
  Cost.reset fx.cost;
  let rid0 = Cost.with_disabled fx.cost (fun () -> rid_of fx 0) in
  let rid1 = Cost.with_disabled fx.cost (fun () -> rid_of fx 1) in
  apply_update fx view def
    [
      (rid0, Tuple.create [ Value.Int 0; Value.Int 50 ]);
      (rid1, Tuple.create [ Value.Int 1; Value.Int 51 ]);
    ];
  (* Both view changes land on the single view page: 1 read + 1 write. *)
  Alcotest.(check int) "one page read" 1 (Cost.page_reads fx.cost);
  Alcotest.(check int) "one page write" 1 (Cost.page_writes fx.cost);
  Alcotest.(check bool) "matches recompute" true (Materialized_view.matches_recompute view)

let test_recompute_refresh () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  (* Corrupt by applying a bogus delta, then recompute_refresh repairs. *)
  Materialized_view.apply_base_delta view
    ~inserted:[ Tuple.create [ Value.Int 6; Value.Int 999 ] ]
    ~deleted:[];
  Alcotest.(check bool) "diverged" false (Materialized_view.matches_recompute view);
  Cost.reset fx.cost;
  Materialized_view.recompute_refresh view;
  Alcotest.(check bool) "repaired" true (Materialized_view.matches_recompute view);
  (* rewrite charges read+write per page of the new contents (10 tuples = 3 pages) *)
  Alcotest.(check bool) "writes charged" true (Cost.page_writes fx.cost >= 3)

let test_delete_of_absent_tuple_ignored () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  Materialized_view.apply_base_delta view ~inserted:[]
    ~deleted:[ Tuple.create [ Value.Int 6; Value.Int 12345 ] ];
  (* tuple <6, 12345> was never in the view; count unchanged *)
  Alcotest.(check int) "unchanged" 10 (Materialized_view.cardinality view)

let avm_random_updates_property =
  (* Random in-place updates; AVM-maintained view must equal recompute. *)
  QCheck.Test.make ~name:"AVM equals recompute under random updates" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 15) (pair (int_bound 39) (int_bound 60)))
    (fun updates ->
      let fx = make_fixture () in
      let def = join_def fx 5 20 in
      let view = Materialized_view.create ~record_bytes:100 def in
      List.iter
        (fun (victim_k, new_k) ->
          match
            Cost.with_disabled fx.cost (fun () ->
                Relation.fetch_by_key fx.r ~attr:"k" (Value.Int victim_k))
          with
          | [] -> () (* key moved away by an earlier update *)
          | (rid, old_tuple) :: _ ->
            let new_tuple =
              Tuple.create [ Value.Int new_k; Tuple.get old_tuple 1 ]
            in
            apply_update fx view def [ (rid, new_tuple) ])
        updates;
      Materialized_view.matches_recompute view)

(* -------------------------------------------------- Dynamic policy *)

let test_dynamic_policy_recomputes_on_big_delta () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view =
    Materialized_view.create ~policy:(Materialized_view.Dynamic 1.0) ~record_bytes:100 def
  in
  Alcotest.(check int) "no recomputes yet" 0 (Materialized_view.maintenance_recomputes view);
  (* Shift every interval tuple by 3: 10 old survivors + 7 new survivors
     = 17 delta tuples > 10 stored -> the dynamic policy recomputes. *)
  let changes =
    List.filter_map
      (fun k ->
        match
          Cost.with_disabled fx.cost (fun () ->
              Relation.fetch_by_key fx.r ~attr:"k" (Value.Int k))
        with
        | (rid, t) :: _ -> Some (rid, Tuple.create [ Value.Int (k + 3); Tuple.get t 1 ])
        | [] -> None)
      [ 5; 6; 7; 8; 9; 10; 11; 12; 13; 14 ]
  in
  apply_update fx view def changes;
  Alcotest.(check bool) "policy fell back to recompute" true
    (Materialized_view.maintenance_recomputes view >= 1);
  Alcotest.(check bool) "contents correct" true (Materialized_view.matches_recompute view)

let test_dynamic_policy_incremental_on_small_delta () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view =
    Materialized_view.create ~policy:(Materialized_view.Dynamic 1.0) ~record_bytes:100 def
  in
  let rid = Cost.with_disabled fx.cost (fun () -> rid_of fx 7) in
  apply_update fx view def [ (rid, Tuple.create [ Value.Int 99; Value.Int 7 ]) ];
  Alcotest.(check int) "stayed incremental" 0 (Materialized_view.maintenance_recomputes view);
  Alcotest.(check bool) "contents correct" true (Materialized_view.matches_recompute view)

let test_static_policy_never_recomputes () =
  let fx = make_fixture () in
  let def = select_def fx 0 40 in
  let view = Materialized_view.create ~record_bytes:100 def in
  Alcotest.(check bool) "default policy static" true
    (Materialized_view.policy view = Materialized_view.Static);
  let changes =
    Cost.with_disabled fx.cost (fun () ->
        let acc = ref [] in
        Relation.scan fx.r ~f:(fun rid t ->
            acc :=
              (rid, Tuple.create [ Value.Int (1000 + List.length !acc); Tuple.get t 1 ])
              :: !acc);
        !acc)
  in
  apply_update fx view def changes;
  Alcotest.(check int) "static never recomputes" 0
    (Materialized_view.maintenance_recomputes view);
  Alcotest.(check bool) "still correct" true (Materialized_view.matches_recompute view)

(* -------------------------------------------- Inner-source deltas *)

let rid_in rel key_attr k =
  match Relation.fetch_by_key rel ~attr:key_attr (Value.Int k) with
  | (rid, _) :: _ -> rid
  | [] -> Alcotest.failf "no tuple with %s=%d" key_attr k

let test_source_delta_inner_insert_effect () =
  let fx = make_fixture () in
  let def = join_def fx 0 20 in
  let view = Materialized_view.create ~record_bytes:100 def in
  Alcotest.(check int) "20 initially" 20 (Materialized_view.cardinality view);
  (* S is hash-primary on b; modify tuple b=3's payload w in place. *)
  let rid = Cost.with_disabled fx.cost (fun () -> rid_in fx.s "b" 3) in
  let old_t = Cost.with_disabled fx.cost (fun () -> Relation.get fx.s rid) in
  let new_t = Tuple.create [ Value.Int 3; Value.Int 999 ] in
  ignore (Cost.with_disabled fx.cost (fun () -> Relation.update_batch fx.s [ (rid, new_t) ]));
  Materialized_view.apply_source_delta view ~source_index:1 ~inserted:[ new_t ]
    ~deleted:[ old_t ];
  Alcotest.(check int) "still 20" 20 (Materialized_view.cardinality view);
  Alcotest.(check bool) "matches recompute" true (Materialized_view.matches_recompute view)

let test_source_delta_index_zero_is_base () =
  let fx = make_fixture () in
  let def = select_def fx 5 15 in
  let view = Materialized_view.create ~record_bytes:100 def in
  let rid = Cost.with_disabled fx.cost (fun () -> rid_of fx 20) in
  let new_t = Tuple.create [ Value.Int 7; Value.Int 0 ] in
  let old_new =
    Cost.with_disabled fx.cost (fun () -> Relation.update_batch fx.r [ (rid, new_t) ])
  in
  let olds = List.map fst old_new and news = List.map snd old_new in
  Materialized_view.apply_source_delta view ~source_index:0 ~inserted:(screen def news)
    ~deleted:(screen def olds);
  Alcotest.(check int) "11 tuples" 11 (Materialized_view.cardinality view)

let test_source_delta_bad_index () =
  let fx = make_fixture () in
  let view = Materialized_view.create ~record_bytes:100 (join_def fx 0 5) in
  Alcotest.(check bool) "index out of range" true
    (try
       Materialized_view.apply_source_delta view ~source_index:2 ~inserted:[] ~deleted:[];
       false
     with Invalid_argument _ -> true)

let test_source_delta_charges_prefix_evaluation () =
  let fx = make_fixture () in
  let def = join_def fx 0 20 in
  let view = Materialized_view.create ~record_bytes:100 def in
  let old_t = Cost.with_disabled fx.cost (fun () -> Relation.get fx.s (rid_in fx.s "b" 3)) in
  Cost.reset fx.cost;
  Materialized_view.apply_source_delta view ~source_index:1
    ~inserted:[ Tuple.create [ Value.Int 3; Value.Int 7 ] ]
    ~deleted:[ old_t ];
  (* evaluating the 20-tuple prefix costs at least 20 screens *)
  Alcotest.(check bool) "prefix screened" true (Cost.cpu_screens fx.cost >= 20);
  Alcotest.(check int) "C3 per delta tuple" 2 (Cost.delta_ops fx.cost)

let source_delta_random_property =
  QCheck.Test.make ~name:"inner-source AVM equals recompute under random S updates" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 9) (int_bound 500)))
    (fun updates ->
      let fx = make_fixture () in
      let def = join_def fx 0 30 in
      let view = Materialized_view.create ~record_bytes:100 def in
      List.iter
        (fun (b, new_w) ->
          match
            Cost.with_disabled fx.cost (fun () ->
                Relation.fetch_by_key fx.s ~attr:"b" (Value.Int b))
          with
          | (rid, old_t) :: _ ->
            let new_t = Tuple.create [ Value.Int b; Value.Int new_w ] in
            ignore
              (Cost.with_disabled fx.cost (fun () ->
                   Relation.update_batch fx.s [ (rid, new_t) ]));
            Materialized_view.apply_source_delta view ~source_index:1 ~inserted:[ new_t ]
              ~deleted:[ old_t ]
          | [] -> ())
        updates;
      Materialized_view.matches_recompute view)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "avm"
    [
      ( "materialized_view",
        [
          Alcotest.test_case "initial contents" `Quick test_initial_contents;
          Alcotest.test_case "read charges pages" `Quick test_read_charges_pages;
          Alcotest.test_case "insert into view" `Quick test_select_insert_into_view;
          Alcotest.test_case "delete from view" `Quick test_select_delete_from_view;
          Alcotest.test_case "update within view" `Quick test_update_within_view;
          Alcotest.test_case "join view maintenance" `Quick test_join_view_maintenance;
          Alcotest.test_case "C3 charged per survivor" `Quick test_delta_charges_c3;
          Alcotest.test_case "refresh batches pages" `Quick test_refresh_batches_pages;
          Alcotest.test_case "recompute refresh" `Quick test_recompute_refresh;
          Alcotest.test_case "absent delete ignored" `Quick test_delete_of_absent_tuple_ignored;
          qc avm_random_updates_property;
        ] );
      ( "dynamic_policy",
        [
          Alcotest.test_case "recomputes on big delta" `Quick
            test_dynamic_policy_recomputes_on_big_delta;
          Alcotest.test_case "incremental on small delta" `Quick
            test_dynamic_policy_incremental_on_small_delta;
          Alcotest.test_case "static never recomputes" `Quick test_static_policy_never_recomputes;
        ] );
      ( "source_delta",
        [
          Alcotest.test_case "inner update in place" `Quick test_source_delta_inner_insert_effect;
          Alcotest.test_case "index 0 = base" `Quick test_source_delta_index_zero_is_base;
          Alcotest.test_case "bad index" `Quick test_source_delta_bad_index;
          Alcotest.test_case "prefix evaluation charged" `Quick
            test_source_delta_charges_prefix_evaluation;
          qc source_delta_random_property;
        ] );
    ]
