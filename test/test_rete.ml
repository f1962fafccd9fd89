(* Tests for Dbproc.Rete: memory nodes, token propagation through t-const /
   and / memory nodes, shared subexpressions, and the paper's Section 2
   EMP/DEPT worked example. *)

open Dbproc
open Dbproc.Storage
open Dbproc.Query
open Dbproc.Rete

let sorted = List.sort Tuple.compare

let multiset_equal a b =
  let a = sorted a and b = sorted b in
  List.length a = List.length b && List.for_all2 Tuple.equal a b

(* ---------------------------------------------------------------- Memory *)

let make_memory () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  (cost, Memory.create ~io ~record_bytes:100 ~name:"m" ())

let t1 k v = Tuple.create [ Value.Int k; Value.Int v ]

let test_memory_insert_flush () =
  let cost, m = make_memory () in
  Memory.insert_logical m (t1 1 10);
  Memory.insert_logical m (t1 2 20);
  Alcotest.(check int) "logical card" 2 (Memory.cardinality m);
  Alcotest.(check int) "pending" 2 (Memory.pending_count m);
  Cost.reset cost;
  Memory.flush m;
  Alcotest.(check int) "one page touched" 1 (Cost.page_reads cost);
  Alcotest.(check int) "one page written" 1 (Cost.page_writes cost);
  Alcotest.(check int) "no pending" 0 (Memory.pending_count m);
  Alcotest.(check bool) "stored contents" true (multiset_equal [ t1 1 10; t1 2 20 ] (Memory.read m))

let test_memory_delete () =
  let _, m = make_memory () in
  Memory.insert_logical m (t1 1 10);
  Memory.flush m;
  Alcotest.(check bool) "delete present" true (Memory.delete_logical m (t1 1 10));
  Alcotest.(check bool) "delete absent" false (Memory.delete_logical m (t1 9 9));
  Memory.flush m;
  Alcotest.(check int) "empty" 0 (Memory.cardinality m);
  Alcotest.(check int) "stored empty" 0 (List.length (Memory.read m))

let test_memory_multiset () =
  let _, m = make_memory () in
  Memory.insert_logical m (t1 1 1);
  Memory.insert_logical m (t1 1 1);
  Memory.flush m;
  Alcotest.(check int) "two copies" 2 (Memory.cardinality m);
  ignore (Memory.delete_logical m (t1 1 1));
  Memory.flush m;
  Alcotest.(check int) "one copy left" 1 (Memory.cardinality m)

let test_memory_probe () =
  let cost, m = make_memory () in
  Memory.ensure_probe_index m ~attr:0;
  List.iter (fun i -> Memory.insert_logical m (t1 (i mod 3) i)) [ 0; 1; 2; 3; 4; 5 ];
  Memory.flush m;
  Cost.reset cost;
  let hits = Memory.probe m ~attr:0 (Value.Int 1) in
  Alcotest.(check int) "two matches" 2 (List.length hits);
  Alcotest.(check bool) "charged reads for stored pages" true (Cost.page_reads cost >= 1)

let test_memory_probe_pending_free () =
  let cost, m = make_memory () in
  Memory.ensure_probe_index m ~attr:0;
  Memory.insert_logical m (t1 1 10);
  (* not flushed: tuple only in memory *)
  Cost.reset cost;
  let hits = Memory.probe m ~attr:0 (Value.Int 1) in
  Alcotest.(check int) "found" 1 (List.length hits);
  Alcotest.(check int) "no page reads" 0 (Cost.page_reads cost)

let test_memory_load () =
  let _, m = make_memory () in
  Memory.load m [ t1 1 1; t1 2 2 ];
  Alcotest.(check int) "loaded" 2 (Memory.cardinality m);
  Memory.load m [ t1 3 3 ];
  Alcotest.(check int) "reload replaces" 1 (Memory.cardinality m)

(* ----------------------------------------- Paper example (EMP / DEPT) *)

(* Section 2 of the paper: views PROGS1 and CLERKS1 over EMP and DEPT,
   sharing the "DEPT.floor = 1" subexpression. *)

let emp_schema =
  Schema.create
    [
      ("name", Value.TStr);
      ("age", Value.TInt);
      ("dept", Value.TStr);
      ("salary", Value.TInt);
      ("job", Value.TStr);
    ]

let dept_schema = Schema.create [ ("dname", Value.TStr); ("floor", Value.TInt) ]

let emp name age dept salary job =
  Tuple.create
    [ Value.Str name; Value.Int age; Value.Str dept; Value.Int salary; Value.Str job ]

let dept dname floor = Tuple.create [ Value.Str dname; Value.Int floor ]

type paper_fixture = {
  cost : Cost.t;
  emp_rel : Relation.t;
  dept_rel : Relation.t;
  builder : Builder.t;
  progs1 : Network.mem_node;
  clerks1 : Network.mem_node;
}

let job_is job = [ Predicate.term ~attr:4 ~op:Predicate.Eq ~value:(Value.Str job) ]
let floor_is n = [ Predicate.term ~attr:1 ~op:Predicate.Eq ~value:(Value.Int n) ]

let make_paper_fixture () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let emp_rel = Relation.create ~io ~name:"EMP" ~schema:emp_schema ~tuple_bytes:100 in
  Relation.load emp_rel
    [
      emp "Alice" 30 "Shipping" 40_000 "Clerk";
      emp "Bob" 40 "Accounting" 50_000 "Programmer";
      emp "Carol" 35 "Shipping" 45_000 "Programmer";
    ];
  let dept_rel = Relation.create ~io ~name:"DEPT" ~schema:dept_schema ~tuple_bytes:100 in
  Relation.load dept_rel [ dept "Shipping" 1; dept "Accounting" 2 ];
  let builder = Builder.create ~io ~record_bytes:100 () in
  let view job_name view_name =
    let def =
      View_def.join
        (View_def.select ~name:view_name ~rel:emp_rel ~restriction:(job_is job_name))
        ~rel:dept_rel ~restriction:(floor_is 1) ~left:"EMP.dept" ~op:Predicate.Eq
        ~right:"dname"
    in
    Builder.add_view builder def
  in
  let progs1 = (view "Programmer" "PROGS1").Builder.result in
  let clerks1 = (view "Clerk" "CLERKS1").Builder.result in
  { cost; emp_rel; dept_rel; builder; progs1; clerks1 }

let test_paper_example_initial () =
  let fx = make_paper_fixture () in
  (* Carol is a first-floor programmer; Alice a first-floor clerk. *)
  Alcotest.(check int) "PROGS1" 1 (Memory.cardinality (Network.memory fx.progs1));
  Alcotest.(check int) "CLERKS1" 1 (Memory.cardinality (Network.memory fx.clerks1))

let test_paper_example_shared_floor_subexpression () =
  let fx = make_paper_fixture () in
  (* The DEPT.floor = 1 selection is shared between the two views. *)
  Alcotest.(check int) "one alpha reused" 1 (Builder.shared_alpha_count fx.builder)

let test_paper_example_susan_insertion () =
  let fx = make_paper_fixture () in
  (* The paper's worked example: inserting Susan (a programmer in
     Accounting, floor 2) must NOT reach PROGS1; moving Accounting to
     floor 1 first, it must. *)
  let net = Builder.network fx.builder in
  let susan = emp "Susan" 28 "Accounting" 30_000 "Programmer" in
  Network.apply_delta net ~rel:"EMP" ~inserted:[ susan ] ~deleted:[];
  Alcotest.(check int) "Susan filtered by floor" 1
    (Memory.cardinality (Network.memory fx.progs1));
  (* Now move Accounting to floor 1 (update = delete + insert). *)
  Network.apply_delta net ~rel:"DEPT"
    ~inserted:[ dept "Accounting" 1 ]
    ~deleted:[ dept "Accounting" 2 ];
  (* Susan and Bob both join now. *)
  Alcotest.(check int) "PROGS1 grows to 3" 3
    (Memory.cardinality (Network.memory fx.progs1));
  Alcotest.(check int) "CLERKS1 unchanged" 1
    (Memory.cardinality (Network.memory fx.clerks1))

let test_paper_example_deletion () =
  let fx = make_paper_fixture () in
  let net = Builder.network fx.builder in
  Network.apply_delta net ~rel:"EMP" ~inserted:[]
    ~deleted:[ emp "Carol" 35 "Shipping" 45_000 "Programmer" ];
  Alcotest.(check int) "PROGS1 empty" 0 (Memory.cardinality (Network.memory fx.progs1));
  Alcotest.(check int) "CLERKS1 unaffected" 1
    (Memory.cardinality (Network.memory fx.clerks1))

let test_paper_example_dot_rendering () =
  let fx = make_paper_fixture () in
  let dot = Network.to_dot (Builder.network fx.builder) in
  Alcotest.(check bool) "digraph" true (String.length dot > 100);
  let count_substring needle =
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length dot then acc
      else go (i + 1) (if String.sub dot i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  (* both views' result beta memories and the EMP/DEPT t-consts appear *)
  Alcotest.(check bool) "EMP tconsts" true (count_substring "relation = EMP" >= 2);
  Alcotest.(check bool) "DEPT tconst" true (count_substring "relation = DEPT" >= 1);
  Alcotest.(check bool) "beta memories" true (count_substring "b-memory" >= 2);
  (* the shared floor=1 alpha feeds two joins: two outgoing edges *)
  Alcotest.(check bool) "escaped quotes" true (not (count_substring "\"Clerk\"" > 0))

let test_paper_example_composite_contents () =
  let fx = make_paper_fixture () in
  let contents = Memory.contents (Network.memory fx.progs1) in
  match contents with
  | [ t ] ->
    Alcotest.(check int) "EMP.all ++ DEPT.all" 7 (Tuple.arity t);
    Alcotest.(check bool) "name is Carol" true (Value.equal (Tuple.get t 0) (Value.Str "Carol"));
    Alcotest.(check bool) "dname is Shipping" true
      (Value.equal (Tuple.get t 5) (Value.Str "Shipping"))
  | _ -> Alcotest.fail "expected exactly one tuple"

(* -------------------------------------------- Network cost behaviour *)

let r_schema = Schema.create [ ("k", Value.TInt); ("v", Value.TInt) ]

let test_indexed_tconst_screens_only_covered () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let net = Network.create ~io ~record_bytes:100 () in
  let interval = Some (0, Dbproc.Index.Btree.Inclusive (Value.Int 10), Dbproc.Index.Btree.Exclusive (Value.Int 20)) in
  let pred =
    [
      Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(Value.Int 10);
      Predicate.term ~attr:0 ~op:Predicate.Lt ~value:(Value.Int 20);
    ]
  in
  ignore (Network.add_tconst net ~rel:"R" ~pred ~interval ~name:"a");
  Cost.reset cost;
  let tuples = List.init 100 (fun i -> Tuple.create [ Value.Int i; Value.Int 0 ]) in
  Network.apply_delta net ~rel:"R" ~inserted:tuples ~deleted:[];
  (* only the 10 covered tuples charge C1 *)
  Alcotest.(check int) "screens = covered" 10 (Cost.cpu_screens cost)

let test_unindexed_tconst_screens_everything () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let net = Network.create ~io ~record_bytes:100 () in
  let pred = [ Predicate.term ~attr:1 ~op:Predicate.Eq ~value:(Value.Int 0) ] in
  ignore (Network.add_tconst net ~rel:"R" ~pred ~interval:None ~name:"a");
  Cost.reset cost;
  let tuples = List.init 50 (fun i -> Tuple.create [ Value.Int i; Value.Int (i mod 2) ]) in
  Network.apply_delta net ~rel:"R" ~inserted:tuples ~deleted:[];
  Alcotest.(check int) "screens all" 50 (Cost.cpu_screens cost)

let test_network_flush_batches_per_transaction () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let net = Network.create ~io ~record_bytes:100 () in
  let alpha = Network.add_tconst net ~rel:"R" ~pred:[] ~interval:None ~name:"a" in
  Cost.reset cost;
  (* 4 inserts fit one page: flushed once per transaction -> 1 read 1 write *)
  Network.apply_delta net ~rel:"R"
    ~inserted:(List.init 4 (fun i -> Tuple.create [ Value.Int i; Value.Int 0 ]))
    ~deleted:[];
  Alcotest.(check int) "memory page written once" 1 (Cost.page_writes cost);
  Alcotest.(check int) "alpha holds all" 4 (Memory.cardinality (Network.memory alpha))

let test_tokens_for_other_relations_ignored () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let net = Network.create ~io ~record_bytes:100 () in
  let alpha = Network.add_tconst net ~rel:"R" ~pred:[] ~interval:None ~name:"a" in
  Network.apply_delta net ~rel:"OTHER"
    ~inserted:[ Tuple.create [ Value.Int 1; Value.Int 1 ] ]
    ~deleted:[];
  Alcotest.(check int) "no effect" 0 (Memory.cardinality (Network.memory alpha))

(* -------------------------------------- Builder: model-2 right-deep *)

let s_schema = Schema.create [ ("b", Value.TInt); ("c", Value.TInt) ]
let u_schema = Schema.create [ ("dkey", Value.TInt); ("e", Value.TInt) ]

type chain_fixture = {
  cost : Cost.t;
  r : Relation.t;
  s : Relation.t;
  u : Relation.t;
  builder : Builder.t;
}

let make_chain_fixture () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let r = Relation.create ~io ~name:"R" ~schema:r_schema ~tuple_bytes:100 in
  Relation.load r (List.init 20 (fun i -> Tuple.create [ Value.Int i; Value.Int (i mod 5) ]));
  let s = Relation.create ~io ~name:"S" ~schema:s_schema ~tuple_bytes:100 in
  Relation.load s (List.init 5 (fun b -> Tuple.create [ Value.Int b; Value.Int (b mod 2) ]));
  let u = Relation.create ~io ~name:"U" ~schema:u_schema ~tuple_bytes:100 in
  Relation.load u (List.init 2 (fun d -> Tuple.create [ Value.Int d; Value.Int (d * 7) ]));
  let builder = Builder.create ~io ~record_bytes:100 () in
  { cost; r; s; u; builder }

let chain_def fx name lo hi =
  let restriction =
    [
      Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(Value.Int lo);
      Predicate.term ~attr:0 ~op:Predicate.Lt ~value:(Value.Int hi);
    ]
  in
  let def = View_def.select ~name ~rel:fx.r ~restriction in
  let def =
    View_def.join def ~rel:fx.s ~restriction:Predicate.always_true ~left:"R.v"
      ~op:Predicate.Eq ~right:"b"
  in
  View_def.join def ~rel:fx.u ~restriction:Predicate.always_true ~left:"S.c" ~op:Predicate.Eq
    ~right:"dkey"

let naive_chain fx lo hi =
  let rs = Cost.with_disabled fx.cost (fun () -> Relation.read_all fx.r) in
  let ss = Cost.with_disabled fx.cost (fun () -> Relation.read_all fx.s) in
  let us = Cost.with_disabled fx.cost (fun () -> Relation.read_all fx.u) in
  List.concat_map
    (fun r ->
      match Tuple.get r 0 with
      | Value.Int k when k >= lo && k < hi ->
        List.concat_map
          (fun s ->
            if Value.equal (Tuple.get r 1) (Tuple.get s 0) then
              List.filter_map
                (fun u ->
                  if Value.equal (Tuple.get s 1) (Tuple.get u 0) then
                    Some (Tuple.concat (Tuple.concat r s) u)
                  else None)
                us
            else [])
          ss
      | _ -> [])
    rs

let test_right_deep_initial_contents () =
  let fx = make_chain_fixture () in
  let built = Builder.add_view fx.builder ~shape:`Right_deep (chain_def fx "V" 0 10) in
  Alcotest.(check bool) "matches naive 3-way join" true
    (multiset_equal
       (Memory.contents (Network.memory built.Builder.result))
       (naive_chain fx 0 10))

let test_right_deep_maintenance () =
  let fx = make_chain_fixture () in
  let built = Builder.add_view fx.builder ~shape:`Right_deep (chain_def fx "V" 0 10) in
  let net = Builder.network fx.builder in
  (* Move R tuple k=15 (outside) to k=3 (inside), in place. *)
  let old_t = Tuple.create [ Value.Int 15; Value.Int 0 ] in
  let new_t = Tuple.create [ Value.Int 3; Value.Int 0 ] in
  Cost.with_disabled fx.cost (fun () ->
      let rid, _ =
        List.find
          (fun (_, t) -> Tuple.equal t old_t)
          (let acc = ref [] in
           Relation.scan fx.r ~f:(fun rid t -> acc := (rid, t) :: !acc);
           !acc)
      in
      ignore (Relation.update fx.r rid new_t));
  Network.apply_delta net ~rel:"R" ~inserted:[ new_t ] ~deleted:[ old_t ];
  Alcotest.(check bool) "matches naive after update" true
    (multiset_equal
       (Memory.contents (Network.memory built.Builder.result))
       (naive_chain fx 0 10))

let test_left_deep_equivalent () =
  let fx = make_chain_fixture () in
  let built = Builder.add_view fx.builder ~shape:`Left_deep (chain_def fx "V" 0 10) in
  Alcotest.(check bool) "left-deep same contents" true
    (multiset_equal
       (Memory.contents (Network.memory built.Builder.result))
       (naive_chain fx 0 10))

let test_shared_beta_across_views () =
  let fx = make_chain_fixture () in
  let b1 = Builder.add_view fx.builder ~shape:`Right_deep (chain_def fx "V1" 0 5) in
  let b2 = Builder.add_view fx.builder ~shape:`Right_deep (chain_def fx "V2" 10 15) in
  (* Same S source, same U source, same join: the inner beta is shared. *)
  Alcotest.(check bool) "first not shared" false b1.Builder.shared_beta;
  Alcotest.(check bool) "second shared" true b2.Builder.shared_beta;
  Alcotest.(check int) "one beta reuse" 1 (Builder.shared_beta_count fx.builder)

let test_shared_alpha_p1_p2 () =
  (* A P1 selection and a P2 join with the same base restriction share the
     alpha memory (the paper's SF sharing). *)
  let fx = make_chain_fixture () in
  let restriction =
    [
      Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(Value.Int 0);
      Predicate.term ~attr:0 ~op:Predicate.Lt ~value:(Value.Int 10);
    ]
  in
  let p1 = View_def.select ~name:"P1" ~rel:fx.r ~restriction in
  let b1 = Builder.add_view fx.builder p1 in
  let p2 =
    View_def.join p1 ~rel:fx.s ~restriction:Predicate.always_true ~left:"R.v"
      ~op:Predicate.Eq ~right:"b"
  in
  let b2 = Builder.add_view fx.builder p2 in
  Alcotest.(check bool) "P1 fresh" false b1.Builder.shared_alpha;
  Alcotest.(check bool) "P2 reuses P1's alpha" true b2.Builder.shared_alpha

(* ------------------------------------------------------- Optimizer *)

(* The shape decision needs memories that span several pages, so this
   fixture mirrors the workload generator's geometry: a selective R chain
   source, a sizable S, and U joining S one-to-one. *)
let make_optimizer_fixture () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let r = Relation.create ~io ~name:"R" ~schema:r_schema ~tuple_bytes:100 in
  Relation.load r
    (List.init 2000 (fun i -> Tuple.create [ Value.Int i; Value.Int (i mod 200) ]));
  let s = Relation.create ~io ~name:"S" ~schema:s_schema ~tuple_bytes:100 in
  Relation.load s
    (List.init 200 (fun b -> Tuple.create [ Value.Int b; Value.Int (b mod 100) ]));
  let u = Relation.create ~io ~name:"U" ~schema:u_schema ~tuple_bytes:100 in
  Relation.load u (List.init 100 (fun d -> Tuple.create [ Value.Int d; Value.Int (d * 7) ]));
  let builder = Builder.create ~io ~record_bytes:100 () in
  { cost; r; s; u; builder }

let test_optimizer_prefers_right_deep_for_base_updates () =
  let fx = make_optimizer_fixture () in
  let def = chain_def fx "V" 0 20 in
  Alcotest.(check bool) "R-only profile -> right-deep" true
    (Optimizer.choose_shape def ~profile:[ ("R", 1.0) ] = `Right_deep)

let test_optimizer_prefers_left_deep_for_inner_updates () =
  let fx = make_optimizer_fixture () in
  let def = chain_def fx "V" 0 20 in
  Alcotest.(check bool) "S-heavy profile -> left-deep" true
    (Optimizer.choose_shape def ~profile:[ ("S", 1.0) ] = `Left_deep)

let test_optimizer_single_join_is_left_deep () =
  let fx = make_optimizer_fixture () in
  let def =
    View_def.join
      (View_def.select ~name:"V" ~rel:fx.r ~restriction:Predicate.always_true)
      ~rel:fx.s ~restriction:Predicate.always_true ~left:"R.v" ~op:Predicate.Eq ~right:"b"
  in
  Alcotest.(check bool) "no right-deep form" true
    (Optimizer.choose_shape def ~profile:[ ("R", 1.0) ] = `Left_deep)

let test_optimizer_estimates_positive_and_ranked () =
  let fx = make_optimizer_fixture () in
  let def = chain_def fx "V" 0 20 in
  let est shape profile = (Optimizer.estimate def ~profile ~shape).Optimizer.cost_per_update_ms in
  let r_profile = [ ("R", 1.0) ] and s_profile = [ ("S", 1.0) ] in
  Alcotest.(check bool) "right cheaper for R updates" true
    (est `Right_deep r_profile < est `Left_deep r_profile);
  Alcotest.(check bool) "left cheaper for S updates" true
    (est `Left_deep s_profile < est `Right_deep s_profile);
  List.iter
    (fun shape ->
      let e = Optimizer.estimate def ~profile:[ ("R", 0.5); ("S", 0.5) ] ~shape in
      Alcotest.(check bool) "positive" true (e.Optimizer.cost_per_update_ms > 0.0);
      Alcotest.(check int) "per-relation entries" 3 (List.length e.Optimizer.per_relation))
    [ `Left_deep; `Right_deep ]

let test_optimizer_untouched_relation_is_free () =
  let fx = make_optimizer_fixture () in
  let def = chain_def fx "V" 0 20 in
  let e = Optimizer.estimate def ~profile:[ ("U", 1.0) ] ~shape:`Right_deep in
  (* U never gets tokens in this workload profile weighting; but a U
     update does cost something — check the per-relation entry exists and
     the weighted cost equals it. *)
  let u_cost = List.assoc "U" e.Optimizer.per_relation in
  Alcotest.(check (float 1e-9)) "weighted = U cost" u_cost e.Optimizer.cost_per_update_ms

let rvm_equals_recompute_property =
  QCheck.Test.make ~name:"RVM equals naive recompute under random updates" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 19) (int_bound 30)))
    (fun updates ->
      let fx = make_chain_fixture () in
      let built = Builder.add_view fx.builder ~shape:`Right_deep (chain_def fx "V" 3 12) in
      let net = Builder.network fx.builder in
      List.iter
        (fun (victim, new_k) ->
          let found =
            Cost.with_disabled fx.cost (fun () ->
                let acc = ref [] in
                Relation.scan fx.r ~f:(fun rid t -> acc := (rid, t) :: !acc);
                List.find_opt
                  (fun (_, t) -> Value.equal (Tuple.get t 0) (Value.Int victim))
                  !acc)
          in
          match found with
          | None -> ()
          | Some (rid, old_t) ->
            let new_t = Tuple.create [ Value.Int new_k; Tuple.get old_t 1 ] in
            Cost.with_disabled fx.cost (fun () -> ignore (Relation.update fx.r rid new_t));
            Network.apply_delta net ~rel:"R" ~inserted:[ new_t ] ~deleted:[ old_t ])
        updates;
      multiset_equal
        (Memory.contents (Network.memory built.Builder.result))
        (naive_chain fx 3 12))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "rete"
    [
      ( "memory",
        [
          Alcotest.test_case "insert/flush" `Quick test_memory_insert_flush;
          Alcotest.test_case "delete" `Quick test_memory_delete;
          Alcotest.test_case "multiset semantics" `Quick test_memory_multiset;
          Alcotest.test_case "probe" `Quick test_memory_probe;
          Alcotest.test_case "probe pending free" `Quick test_memory_probe_pending_free;
          Alcotest.test_case "load" `Quick test_memory_load;
        ] );
      ( "paper_example",
        [
          Alcotest.test_case "initial PROGS1/CLERKS1" `Quick test_paper_example_initial;
          Alcotest.test_case "shared floor=1 subexpression" `Quick
            test_paper_example_shared_floor_subexpression;
          Alcotest.test_case "Susan insertion" `Quick test_paper_example_susan_insertion;
          Alcotest.test_case "deletion" `Quick test_paper_example_deletion;
          Alcotest.test_case "dot rendering" `Quick test_paper_example_dot_rendering;
          Alcotest.test_case "composite contents" `Quick test_paper_example_composite_contents;
        ] );
      ( "network",
        [
          Alcotest.test_case "indexed t-const screens covered only" `Quick
            test_indexed_tconst_screens_only_covered;
          Alcotest.test_case "unindexed t-const screens all" `Quick
            test_unindexed_tconst_screens_everything;
          Alcotest.test_case "flush batches per txn" `Quick
            test_network_flush_batches_per_transaction;
          Alcotest.test_case "other relations ignored" `Quick
            test_tokens_for_other_relations_ignored;
        ] );
      ( "builder",
        [
          Alcotest.test_case "right-deep initial contents" `Quick
            test_right_deep_initial_contents;
          Alcotest.test_case "right-deep maintenance" `Quick test_right_deep_maintenance;
          Alcotest.test_case "left-deep equivalent" `Quick test_left_deep_equivalent;
          Alcotest.test_case "shared beta across views" `Quick test_shared_beta_across_views;
          Alcotest.test_case "shared alpha P1/P2" `Quick test_shared_alpha_p1_p2;
          qc rvm_equals_recompute_property;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "base updates -> right-deep" `Quick
            test_optimizer_prefers_right_deep_for_base_updates;
          Alcotest.test_case "inner updates -> left-deep" `Quick
            test_optimizer_prefers_left_deep_for_inner_updates;
          Alcotest.test_case "single join -> left-deep" `Quick
            test_optimizer_single_join_is_left_deep;
          Alcotest.test_case "estimates ranked" `Quick test_optimizer_estimates_positive_and_ranked;
          Alcotest.test_case "profile weighting" `Quick test_optimizer_untouched_relation_is_free;
        ] );
    ]
