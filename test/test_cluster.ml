(* Tests for the sharded cluster: coordinator routing, the
   cluster-vs-single-node differential oracle, WAL-shipping replication
   and node-kill failover.

   The backbone is the differential: every statement runs against a
   3-node in-process cluster AND a single local interpreter.  Mutations
   and DDL must produce byte-identical output (the coordinator
   synthesizes cluster-wide counts); tuple statements must produce
   byte-identical digests of the sorted serialized result multiset
   (partition order differs, the multiset must not). *)

open Dbproc
module Coordinator = Net.Coordinator
module Node = Net.Node
module Wire = Net.Wire
module P = Net.Protocol
module Injector = Fault.Injector
module Metrics = Obs.Metrics

let mget c counter = Metrics.get (Obs.Ctx.metrics (Coordinator.ctx c)) counter

(* Deterministic keys spanning the default 1M key domain, so a 3-node
   cluster sees every partition. *)
let key i = i * 7919 mod 1_000_000

(* One statement against both: digests for tuple statements, exact
   output for everything else. *)
let check_stmt c single line =
  let r = Coordinator.exec c line in
  match r.Coordinator.digest with
  | Some d -> (
    match Lang.Interp.fetch single line with
    | Ok (tuples, _ms) ->
      Alcotest.(check string) ("digest: " ^ line) (Wire.digest_tuples tuples) d
    | Error msg -> Alcotest.failf "single-node %S failed: %s" line msg)
  | None -> (
    match Lang.Interp.exec_line single line with
    | Ok out ->
      if not r.Coordinator.ok then
        Alcotest.failf "cluster %S failed: %s" line r.Coordinator.output;
      Alcotest.(check string) ("output: " ^ line) out r.Coordinator.output
    | Error msg ->
      if r.Coordinator.ok then
        Alcotest.failf "cluster %S succeeded where single-node failed: %s" line msg;
      Alcotest.(check string) ("error: " ^ line) msg r.Coordinator.output)

let setup_stmts =
  [ "create R (k = int, v = int)"; "create S (k = int, w = int)" ]
  @ List.init 40 (fun i ->
        Printf.sprintf "append to R (k = %d, v = %d)" (key i) i)
  (* S shares half its keys with R, so the join has cross-shard matches *)
  @ List.init 15 (fun i ->
        Printf.sprintf "append to S (k = %d, w = %d)" (key (2 * i)) (100 + i))

let query_stmts =
  [
    Printf.sprintf "retrieve (R.v) where R.k = %d" (key 3);
    "retrieve (R.all) where R.v < 20";
    "retrieve (R.v, S.w) where R.k = S.k";
    "define proc PJ as retrieve (R.v, S.w) where R.k = S.k";
    "exec PJ";
    Printf.sprintf "delete from R where R.k = %d" (key 5);
    "replace R (v = 999) where R.v > 35";
    "retrieve (R.all)";
    "exec PJ";
  ]

let test_differential () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) (setup_stmts @ query_stmts);
  (* the cross-shard join exercised both routing modes *)
  Alcotest.(check bool)
    "some statements point-routed" true
    (mget c Metrics.Cluster_stmts_routed > 0);
  Alcotest.(check bool)
    "some statements broadcast" true
    (mget c Metrics.Cluster_stmts_broadcast > 0);
  Alcotest.(check bool)
    "join shipped tuples" true
    (mget c Metrics.Cluster_tuples_shipped > 0)

let test_wal_shipping () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  (* synchronous shipping: every replicable statement a primary executed
     has been pulled and pushed before its ack *)
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "node %d fully shipped" i)
      (Node.rlog_next_lsn (Coordinator.local_node local i))
      (Coordinator.shipped_lsn c i)
  done;
  Alcotest.(check bool)
    "records were shipped" true
    (Metrics.get
       (Obs.Ctx.metrics (Node.ctx (Coordinator.local_node local 0)))
       Metrics.Repl_records_shipped
    > 0)

let test_failover () =
  (* Kill node 1 mid-append-stream: its replica must be promoted, the
     in-flight statement retried, and the cluster must stay byte-for-byte
     equivalent to the single node — including the data that lived on the
     killed primary. *)
  let inj = Injector.create ~seed:7 () in
  Injector.schedule_node_kills inj [ { Injector.node = 1; at_op = 25 } ];
  let local = Coordinator.create_local ~injector:inj ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) (setup_stmts @ query_stmts);
  Alcotest.(check int) "one node kill" 1 (mget c Metrics.Fault_node_kills);
  Alcotest.(check int) "one failover" 1 (mget c Metrics.Cluster_failovers);
  Alcotest.(check int) "no slot lost" 3 (Coordinator.alive_count c);
  (* replays charge the node's own context, not the coordinator's... *)
  Alcotest.(check int)
    "replays are node-side work" 0
    (mget c Metrics.Repl_statements_replayed);
  (* ...and are visible through the merged cluster view *)
  let merged = Coordinator.snapshot c in
  Alcotest.(check bool)
    "merged view sees the replay" true
    (Metrics.get (Obs.Ctx.metrics merged) Metrics.Repl_statements_replayed > 0)

let test_kill_without_replica_downs_slot () =
  let local = Coordinator.create_local ~replicas:false ~nodes:2 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single)
    [ "create R (k = int, v = int)"; "append to R (k = 1, v = 1)" ];
  Coordinator.kill_node c 1;
  Alcotest.(check bool) "slot 1 down" true (Coordinator.node_down c 1);
  Alcotest.(check int) "one alive" 1 (Coordinator.alive_count c);
  Alcotest.(check int) "no failover possible" 0 (mget c Metrics.Cluster_failovers);
  (* a broadcast over a downed slot reports the hole instead of lying *)
  let r = Coordinator.exec c "retrieve (R.all)" in
  Alcotest.(check bool) "broadcast reports the hole" false r.Coordinator.ok

let handle_exn node req =
  match Node.handle node ~client:0 req with
  | `Resp resp -> resp
  | `Park _ -> Alcotest.fail "request parked"

let exec_ok node line =
  match handle_exn node (P.Exec_line line) with
  | P.Output out -> out
  | P.Failed msg | P.Aborted msg -> Alcotest.failf "%S failed: %s" line msg
  | _ -> Alcotest.failf "%S: unexpected response" line

let test_wal_push_idempotent_and_gapless () =
  let a = Node.create () in
  ignore (exec_ok a "create T (k = int, v = int)");
  ignore (exec_ok a "append to T (k = 1, v = 10)");
  ignore (exec_ok a "append to T (k = 2, v = 20)");
  Alcotest.(check int) "three replicable statements logged" 3 (Node.rlog_next_lsn a);
  let body =
    match handle_exn a (P.Wal_pull "0") with
    | P.Wal_records body -> body
    | _ -> Alcotest.fail "expected Wal_records"
  in
  let b = Node.create () in
  let push body =
    match handle_exn b (P.Wal_push body) with
    | P.Output out -> Ok out
    | P.Failed msg -> Error msg
    | _ -> Alcotest.fail "expected Output/Failed"
  in
  Alcotest.(check (result string string))
    "first push" (Ok "received through 3") (push body);
  Alcotest.(check (result string string))
    "re-shipped prefix is idempotent" (Ok "received through 3") (push body);
  Alcotest.(check int) "no duplicate records" 3 (Node.recv_next_lsn b);
  (match push (Wire.records_body [ (7, "append to T (k = 9, v = 90)") ]) with
  | Error msg ->
    Alcotest.(check bool) "gap refused" true
      (String.length msg >= 13 && String.sub msg 0 13 = "wal push: gap")
  | Ok out -> Alcotest.failf "gap accepted: %s" out);
  Alcotest.(check int) "gap did not append" 3 (Node.recv_next_lsn b);
  (* promotion replays exactly the shipped statements *)
  (match handle_exn b P.Promote with
  | P.Output out ->
    Alcotest.(check string) "promotion replay" "promoted: replayed 3 statements" out
  | _ -> Alcotest.fail "promote failed");
  Alcotest.(check bool) "promoted flag" true (Node.promoted b);
  let digest node =
    match Lang.Interp.fetch (Node.session node) "retrieve (T.all)" with
    | Ok (tuples, _) -> Wire.digest_tuples tuples
    | Error msg -> Alcotest.failf "fetch failed: %s" msg
  in
  Alcotest.(check string) "replica state = primary state" (digest a) (digest b);
  (* replayed statements landed in b's own rlog: a valid primary now *)
  Alcotest.(check int) "promoted node can be pulled from" 3 (Node.rlog_next_lsn b)

let test_semijoin_vs_broadcast () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  (* |R| = 40, |S| = 15: the equi-join ships the smaller side *)
  check_stmt c single "retrieve (R.v, S.w) where R.k = S.k";
  Alcotest.(check int) "unequal sides: semijoin" 1 (mget c Metrics.Cluster_joins_shipped);
  Alcotest.(check int) "no broadcast yet" 0 (mget c Metrics.Cluster_joins_broadcast);
  (* equal cardinalities: no smaller side, broadcast both *)
  let eq_setup =
    [ "create A (k = int, x = int)"; "create B (k = int, y = int)" ]
    @ List.init 6 (fun i -> Printf.sprintf "append to A (k = %d, x = %d)" (key i) i)
    @ List.init 6 (fun i -> Printf.sprintf "append to B (k = %d, y = %d)" (key i) i)
  in
  List.iter (check_stmt c single) eq_setup;
  check_stmt c single "retrieve (A.x, B.y) where A.k = B.k";
  Alcotest.(check int) "equal sides: broadcast" 1 (mget c Metrics.Cluster_joins_broadcast)

let test_show_script_dumps_every_node () =
  (* The cluster's dump replays into one session that answers like the
     single session fed the same statements: rows from every partition,
     integral floats and UTF-8 strings included. *)
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single)
    ([
       "create R (k = int, x = float, s = string)";
       "create S (k = int, w = int)";
       "index R btree on x";
       "strategy rvm";
       "define proc P as retrieve (R.all, S.w) where R.k = S.k and R.x >= 3.0";
     ]
    @ List.map
        (fun (k, x, s) ->
          Printf.sprintf "append to R (k = %d, x = %s, s = %S)" k x s)
        [ (10, "3.0", "café"); (500000, "0.5", "naïve"); (900000, "7.0", "plain") ]
    @ List.map
        (fun k -> Printf.sprintf "append to S (k = %d, w = %d)" k (k / 10))
        [ 10; 500000; 900000; 42 ]);
  let dump = Coordinator.exec c "show script" in
  Alcotest.(check bool) "dump succeeds" true dump.Coordinator.ok;
  let replay = Lang.Interp.create () in
  (match Lang.Interp.exec_script replay dump.Coordinator.output with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "replaying the cluster dump: %s" msg);
  let digest session line =
    match Lang.Interp.fetch session line with
    | Ok (tuples, _) -> Wire.digest_tuples tuples
    | Error msg -> Alcotest.failf "%S failed: %s" line msg
  in
  List.iter
    (fun line ->
      Alcotest.(check string) line (digest single line) (digest replay line))
    [ "retrieve (R.all)"; "retrieve (S.all)"; "exec P" ];
  (* a down slot fails the dump rather than print part of the data *)
  let local = Coordinator.create_local ~replicas:false ~nodes:3 () in
  let c = Coordinator.coordinator local in
  ignore (Coordinator.exec c "create R (k = int)");
  Coordinator.kill_node c 1;
  let r = Coordinator.exec c "show script" in
  Alcotest.(check bool) "down slot fails the dump" false r.Coordinator.ok;
  Alcotest.(check string) "names the slot" "node 1 is down" r.Coordinator.output

let test_replace_rehomes_partition_key () =
  (* assigning the partition attribute moves tuples between nodes; the
     cluster must still agree with the single node afterwards *)
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  check_stmt c single
    (Printf.sprintf "replace R (k = %d) where R.k = %d" (key 30) (key 3));
  check_stmt c single "retrieve (R.all)";
  check_stmt c single (Printf.sprintf "retrieve (R.v) where R.k = %d" (key 30))

(* The statements the coordinator writes for its nodes — join
   sub-retrieves and the re-home fetch, delete and append — must carry a
   statement's literals unchanged: an integral float stays a float and a
   UTF-8 string keeps its bytes. *)
let literal_setup =
  [ "create R (k = int, x = float, s = string)"; "create S (k = int, w = int)" ]
  @ List.init 6 (fun i ->
        Printf.sprintf "append to R (k = %d, x = %d.0, s = \"%s\")" (key i)
          ((i mod 3) + 2)
          (if i = 1 then "caf\xc3\xa9" else "plain"))
  @ List.init 3 (fun i -> Printf.sprintf "append to S (k = %d, w = %d)" (key i) i)
  @ [
      {|append to R (k = 100, x = 3.0, s = "plain")|};
      "append to R (k = 200, x = 2.5, s = \"caf\xc3\xa9\")";
    ]

let test_join_literals () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) literal_setup;
  check_stmt c single "retrieve (R.all, S.all) where R.x = 3.0 and R.k = S.k";
  check_stmt c single "retrieve (R.all, S.all) where R.s = \"caf\xc3\xa9\" and R.k = S.k";
  Alcotest.(check int) "both joins took the shipped path" 2
    (mget c Metrics.Cluster_joins_shipped)

let test_rehome_literals () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single)
    (literal_setup
    @ [
        "replace R (k = 700000) where R.k = 100";
        "replace R (k = 800000) where R.k = 200";
        "retrieve (R.all)";
        (* the append's running total checks the cluster's row count *)
        {|append to R (k = 300, x = 1.0, s = "plain")|};
      ])

(* A raw newline inside a client's string literal must replicate: the
   statement ships escaped in its WAL record and replays on promotion. *)
let test_raw_newline_replicates () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single)
    [
      "create T (k = int, s = string)";
      "append to T (k = 1, s = \"a\nb\")";
      {|append to T (k = 2, s = "c")|};
      "retrieve (T.all)";
    ];
  Coordinator.kill_node c 0;
  check_stmt c single "retrieve (T.all)"

let test_stats_merge () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  let merged = Coordinator.snapshot c in
  let g counter = Metrics.get (Obs.Ctx.metrics merged) counter in
  (* replicas apply lazily, so cluster heap appends = acknowledged
     appends exactly — the invariant loadgen --strict reconciles *)
  Alcotest.(check int) "heap appends = acked appends" 55 (g Metrics.Heap_appends);
  Alcotest.(check bool) "cluster counters present" true (g Metrics.Cluster_stmts_routed > 0);
  Alcotest.(check bool) "node repl counters merged" true (g Metrics.Repl_records_shipped > 0);
  (* node-tier net.* counters are coordinator-internal and excluded *)
  Alcotest.(check int) "no node net counters" 0 (g Metrics.Net_requests)

(* ------------------------------------------- distributed transactions *)

(* Keys with known owners on a 3-node cluster over the default 1M key
   domain: node 0 owns [0, 333334), node 1 the middle, node 2 the top. *)
let k0 = 10
and k1 = 400_000
and k2 = 900_000

let exec_ok_c c line =
  let r = Coordinator.exec c line in
  if not r.Coordinator.ok then
    Alcotest.failf "cluster %S failed: %s" line r.Coordinator.output;
  r

let oracle_exec single line =
  match Lang.Interp.exec_line single line with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "oracle %S failed: %s" line msg

let txn_body =
  [
    Printf.sprintf "append to R (k = %d, v = 1000)" k0;
    Printf.sprintf "append to R (k = %d, v = 1001)" k1;
    Printf.sprintf "append to R (k = %d, v = 1002)" k2;
    Printf.sprintf "delete from R where R.k = %d" (key 7);
    Printf.sprintf "replace R (v = 777) where R.k = %d" (key 4);
  ]

let test_txn_cross_shard_commit () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  ignore (exec_ok_c c "begin");
  List.iter (fun l -> ignore (exec_ok_c c l)) txn_body;
  (* reads inside the transaction see the branch's own uncommitted
     writes: the point retrieve finds the k0 append *)
  let r = Coordinator.exec c (Printf.sprintf "retrieve (R.v) where R.k = %d" k0)
  in
  (match r.Coordinator.digest with
  | None -> Alcotest.fail "txn retrieve returned no digest"
  | Some d ->
    Alcotest.(check bool) "txn read sees own write" false
      (d = Wire.digest_tuples []));
  ignore (exec_ok_c c "commit");
  (* committed transaction = the same statements applied autocommit *)
  List.iter (oracle_exec single) txn_body;
  check_stmt c single "retrieve (R.all)";
  Alcotest.(check int) "one begin" 1 (mget c Metrics.Txn2pc_begins);
  Alcotest.(check int) "one commit decision" 1 (mget c Metrics.Txn2pc_commits);
  Alcotest.(check int) "no aborts" 0 (mget c Metrics.Txn2pc_aborts);
  Alcotest.(check int) "all three shards enlisted" 3
    (mget c Metrics.Txn2pc_participants);
  Alcotest.(check int) "one prepare per participant" 3
    (mget c Metrics.Txn2pc_prepares)

let test_txn_abort_rolls_back () =
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  ignore (exec_ok_c c "begin");
  List.iter (fun l -> ignore (exec_ok_c c l)) txn_body;
  ignore (exec_ok_c c "abort");
  (* an aborted transaction left nothing behind on any shard *)
  check_stmt c single "retrieve (R.all)";
  check_stmt c single (Printf.sprintf "retrieve (R.v) where R.k = %d" (key 7));
  Alcotest.(check int) "one abort" 1 (mget c Metrics.Txn2pc_aborts);
  Alcotest.(check int) "no commit" 0 (mget c Metrics.Txn2pc_commits)

let test_txn_kill_at_prepare_aborts () =
  (* A participant dies before it can vote: the transaction must abort
     globally and leave the cluster exactly as if it never ran. *)
  let inj = Injector.create ~seed:11 () in
  Injector.schedule_txn_kills inj
    [ { Injector.tk_node = 1; phase = `Prepare; at_commit = 1 } ];
  let local = Coordinator.create_local ~injector:inj ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  ignore (exec_ok_c c "begin");
  List.iter (fun l -> ignore (exec_ok_c c l)) txn_body;
  let r = Coordinator.exec c "commit" in
  Alcotest.(check bool) "commit reports failure" false r.Coordinator.ok;
  Alcotest.(check bool) "failure is an abort" true r.Coordinator.aborted;
  (* aborted oracle: the transaction contributes nothing *)
  check_stmt c single "retrieve (R.all)";
  Alcotest.(check int) "one node kill" 1 (mget c Metrics.Fault_node_kills);
  Alcotest.(check int) "failover happened" 1 (mget c Metrics.Cluster_failovers);
  Alcotest.(check int) "global abort" 1 (mget c Metrics.Txn2pc_aborts);
  Alcotest.(check int) "no commit decision" 0 (mget c Metrics.Txn2pc_commits);
  (* the cluster is fully operational afterwards *)
  check_stmt c single (Printf.sprintf "append to R (k = %d, v = 5)" k1);
  check_stmt c single "retrieve (R.all)"

let test_txn_kill_in_doubt_commits () =
  (* The classic in-doubt window: a participant dies after the commit
     decision is logged but before its commit message arrives.  The
     promoted replica never saw the branch, so only the coordinator's
     decision log can (and must) drive it to the committed state. *)
  let inj = Injector.create ~seed:13 () in
  Injector.schedule_txn_kills inj
    [ { Injector.tk_node = 1; phase = `Commit; at_commit = 1 } ];
  let local = Coordinator.create_local ~injector:inj ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  ignore (exec_ok_c c "begin");
  List.iter (fun l -> ignore (exec_ok_c c l)) txn_body;
  ignore (exec_ok_c c "commit");
  (* committed oracle: every statement of the transaction is durable,
     including node 1's branch, which only the decision log carried *)
  List.iter (oracle_exec single) txn_body;
  check_stmt c single "retrieve (R.all)";
  check_stmt c single (Printf.sprintf "retrieve (R.v) where R.k = %d" k1);
  Alcotest.(check int) "one node kill" 1 (mget c Metrics.Fault_node_kills);
  Alcotest.(check int) "commit decided" 1 (mget c Metrics.Txn2pc_commits);
  Alcotest.(check int) "no abort" 0 (mget c Metrics.Txn2pc_aborts);
  Alcotest.(check bool) "in-doubt branch resolved off the decision log" true
    (mget c Metrics.Txn2pc_in_doubt_resolved >= 1);
  Alcotest.(check bool) "fresh replica attached after promotion" true
    (mget c Metrics.Repl_replicas_attached >= 1)

let test_txn_refusals_leave_txn_open () =
  (* What a distributed transaction cannot run is refused before any node
     is contacted: an ordinary error (not an abort), no participant
     enlisted, and the transaction stays open and committable. *)
  let requests = ref 0 in
  let counted (link, _kill) : Coordinator.link =
   fun req ->
    incr requests;
    link req
  in
  let links =
    Array.init 3 (fun _ ->
        ( counted (Coordinator.node_link (Node.create ())),
          Some (counted (Coordinator.node_link (Node.create ()))) ))
  in
  let c = Coordinator.create ~links () in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  check_stmt c single "define proc PJ as retrieve (R.v, S.w) where R.k = S.k";
  ignore (exec_ok_c c "begin");
  let ddl = "DDL is not supported inside a distributed transaction"
  and local = "not supported inside a distributed transaction"
  and join = "cross-shard joins are not supported inside a distributed transaction" in
  List.iter
    (fun (line, msg) ->
      let sent = !requests and enlisted = mget c Metrics.Txn2pc_participants in
      let r = Coordinator.exec c line in
      Alcotest.(check string) ("message: " ^ line) msg r.Coordinator.output;
      Alcotest.(check bool) ("refused: " ^ line) false r.Coordinator.ok;
      Alcotest.(check bool) ("not an abort: " ^ line) false r.Coordinator.aborted;
      Alcotest.(check int) ("no node contacted: " ^ line) sent !requests;
      Alcotest.(check int)
        ("no participant: " ^ line) enlisted
        (mget c Metrics.Txn2pc_participants))
    [
      ("create T (k = int, v = int)", ddl);
      ("index R btree on v", ddl);
      ("define proc PX as retrieve (R.v) where R.v < 3", ddl);
      ("strategy rvm", ddl);
      ("explain retrieve (R.all) where R.v < 3", local);
      ("show cost", local);
      ("help", local);
      ("reset cost", local);
      ( "delete from R where R.v < 3",
        "a delete inside a distributed transaction must pin R's partition attribute \
         with '='" );
      ( "replace R (v = 1) where R.v < 3",
        "a replace inside a distributed transaction must pin R's partition attribute \
         with '='" );
      ( Printf.sprintf "replace R (k = %d) where R.k = %d" k1 (key 3),
        "replacing the partition attribute inside a distributed transaction is not \
         supported" );
      ("retrieve (R.v, S.w) where R.k = S.k", join);
      ("exec PJ", join);
    ];
  Alcotest.(check int) "nothing enlisted" 0 (mget c Metrics.Txn2pc_participants);
  (* still open: a point replace commits *)
  let replace = Printf.sprintf "replace R (v = 555) where R.k = %d" (key 4) in
  ignore (exec_ok_c c replace);
  Alcotest.(check string) "commit" "committed" (exec_ok_c c "commit").Coordinator.output;
  oracle_exec single replace;
  check_stmt c single "retrieve (R.all)";
  Alcotest.(check int) "one commit" 1 (mget c Metrics.Txn2pc_commits);
  Alcotest.(check int) "no abort" 0 (mget c Metrics.Txn2pc_aborts)

let test_script_runs_as_its_client () =
  (* The front end runs a script on behalf of the connection that sent
     it: another connection's transaction neither takes its statements
     in nor rolls them back. *)
  let links =
    Array.init 2 (fun _ -> (fst (Coordinator.node_link (Node.create ())), None))
  in
  let b = Net.Cluster.coordinator_backend ~links:(fun () -> links) () (Obs.Ctx.create ()) in
  let call client req =
    match b.Net.Server.b_request ~client req with
    | `Resp (P.Output out) -> out
    | `Resp resp -> Alcotest.failf "tag 0x%02x" (P.response_tag resp)
    | `Park -> Alcotest.fail "parked"
  in
  ignore (call 0 (P.Exec_line "create T (k = int, v = int)"));
  ignore (call 0 P.Begin);
  ignore (call 1 (P.Exec_script "append to T (k = 1, v = 10)"));
  ignore (call 0 P.Abort);
  let out = call 1 (P.Exec_line "retrieve (T.all)") in
  Alcotest.(check bool) "the script's append survives the other abort" true
    (List.mem "(1 tuples)" (String.split_on_char '\n' out))

let test_commit_durable_only_once_shipped () =
  (* Regression: node 1's primary dies right after answering its
     [Txn_commit], before the coordinator pulls the new log tail.  The
     replica never received the branch, so the participant is not yet
     durable: promotion must re-apply it off the decision log. *)
  let die_after_commit (link, kill) : Coordinator.link =
   fun req ->
    let resp = link req in
    (match req with P.Txn_commit _ -> kill () | _ -> ());
    resp
  in
  let links =
    Array.init 3 (fun i ->
        let primary = Coordinator.node_link (Node.create ()) in
        ( (if i = 1 then die_after_commit primary else fst primary),
          Some (fst (Coordinator.node_link (Node.create ()))) ))
  in
  let c = Coordinator.create ~links () in
  let single = Lang.Interp.create () in
  let append = Printf.sprintf "append to R (k = %d, v = 1)" k1 in
  check_stmt c single "create R (k = int, v = int)";
  ignore (exec_ok_c c "begin");
  ignore (exec_ok_c c append);
  Alcotest.(check string) "commit" "committed" (exec_ok_c c "commit").Coordinator.output;
  oracle_exec single append;
  check_stmt c single (Printf.sprintf "retrieve (R.all) where R.k = %d" k1);
  Alcotest.(check int) "one failover" 1 (mget c Metrics.Cluster_failovers);
  Alcotest.(check int) "branch re-applied off the decision log" 1
    (mget c Metrics.Txn2pc_in_doubt_resolved)

let test_double_kill_same_slot () =
  (* Re-replication closes the failover durability gap: after the first
     kill the promoted primary gets a fresh replica and ships its full
     history, so a second kill of the same slot still loses no data. *)
  let inj = Injector.create ~seed:17 () in
  Injector.schedule_node_kills inj
    [ { Injector.node = 1; at_op = 20 }; { Injector.node = 1; at_op = 40 } ];
  let local = Coordinator.create_local ~injector:inj ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) (setup_stmts @ query_stmts);
  Alcotest.(check int) "two kills fired" 2 (mget c Metrics.Fault_node_kills);
  Alcotest.(check int) "two failovers" 2 (mget c Metrics.Cluster_failovers);
  Alcotest.(check int) "two fresh replicas attached" 2
    (mget c Metrics.Repl_replicas_attached);
  Alcotest.(check int) "no slot lost" 3 (Coordinator.alive_count c);
  check_stmt c single "retrieve (R.all)"

let test_txn_deadlock_victim () =
  (* Appends take X on the whole relation per node, so two transactions
     appending to the same relation on opposite shards in opposite order
     build a cross-node waits-for cycle only the coordinator can see.
     The younger transaction (larger gtid) must die; the older one's
     parked statement then goes through. *)
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  ignore (exec_ok_c c "create R (k = int, v = int)");
  let step client line =
    match Coordinator.exec_client c ~client line with
    | `Done r -> `Done r
    | `Park holders -> `Park holders
  in
  let done_ok client line =
    match step client line with
    | `Done r when r.Coordinator.ok -> ()
    | `Done r -> Alcotest.failf "client %d %S: %s" client line r.Coordinator.output
    | `Park _ -> Alcotest.failf "client %d %S parked" client line
  in
  done_ok 1 "begin";
  done_ok 2 "begin";
  done_ok 1 (Printf.sprintf "append to R (k = %d, v = 1)" k0);
  done_ok 2 (Printf.sprintf "append to R (k = %d, v = 2)" k2);
  (* client 1 now wants client 2's shard: parks behind gtid 2 *)
  (match step 1 (Printf.sprintf "append to R (k = %d, v = 3)" k2) with
  | `Park holders ->
    Alcotest.(check bool) "parked behind a live gtid" true
      (List.exists (fun h -> h >= 0) holders)
  | `Done r -> Alcotest.failf "expected park, got: %s" r.Coordinator.output);
  (* client 2 wants client 1's shard: the cycle closes, and client 2 is
     the younger transaction, so it self-aborts *)
  (match step 2 (Printf.sprintf "append to R (k = %d, v = 4)" k0) with
  | `Done r ->
    Alcotest.(check bool) "victim aborted" true r.Coordinator.aborted
  | `Park _ -> Alcotest.fail "deadlock went undetected");
  Alcotest.(check bool) "cycle counted" true (mget c Metrics.Deadlock_cycles >= 1);
  (* the victim's locks are gone: client 1's parked statement succeeds *)
  done_ok 1 (Printf.sprintf "append to R (k = %d, v = 3)" k2);
  done_ok 1 "commit";
  (* the survivor's appends committed; the victim's rolled back entirely,
     including the one it made before the deadlock *)
  let single = Lang.Interp.create () in
  List.iter (oracle_exec single)
    [
      "create R (k = int, v = int)";
      Printf.sprintf "append to R (k = %d, v = 1)" k0;
      Printf.sprintf "append to R (k = %d, v = 3)" k2;
    ];
  check_stmt c single "retrieve (R.all)"

(* A statement that [Coordinator.exec] never retries leaves no
   transaction open on the node: client 0's join parks on node 0 behind
   client 1's transaction and [Coordinator.exec] answers with an error.
   Once client 1 commits, node 0's session holds nothing for client 0,
   and client 2's write to U runs. *)
let test_unretried_park_leaves_nothing_open () =
  let local = Coordinator.create_local ~nodes:1 () in
  let c = Coordinator.coordinator local in
  List.iter
    (fun line -> ignore (exec_ok_c c line))
    [ "create T (k = int)"; "create U (k = int)"; "append to T (k = 1)"; "append to U (k = 1)" ];
  let answer client line =
    match Coordinator.exec_client c ~client line with
    | `Done r -> if r.Coordinator.ok then "ok" else r.Coordinator.output
    | `Park _ -> "parked"
  in
  Alcotest.(check string) "begin" "ok" (answer 1 "begin");
  Alcotest.(check string) "append to T" "ok" (answer 1 "append to T (k = 2)");
  let r = Coordinator.exec c "retrieve (U.all, T.all) where U.k = T.k" in
  Alcotest.(check bool) "the join is refused as blocked" true
    ((not r.Coordinator.ok)
    && String.ends_with ~suffix:"blocked on a concurrent transaction" r.Coordinator.output);
  Alcotest.(check string) "commit" "ok" (answer 1 "commit");
  Alcotest.(check bool) "node 0 holds no transaction for client 0" false
    (Lang.Interp.in_transaction (Node.session (Coordinator.local_node local 0)) ~client:0);
  Alcotest.(check string) "client 2 writes U" "ok" (answer 2 "append to U (k = 2)")

let test_replica_drop_is_counted () =
  (* Satellite regression: a replica that dies mid-ship must not vanish
     silently — the slot runs unreplicated and [repl.dropped] says so. *)
  let node = Node.create () in
  let plink, _kill = Coordinator.node_link node in
  let rlink : Coordinator.link = function
    | P.Wal_push _ -> Error "replica lost mid-ship"
    | _ -> Error "replica unreachable"
  in
  let c = Coordinator.create ~links:[| (plink, Some rlink) |] () in
  let r = Coordinator.exec c "create R (k = int, v = int)" in
  Alcotest.(check bool) "ddl ok" true r.Coordinator.ok;
  Alcotest.(check int) "ddl push failed: replica dropped" 1
    (mget c Metrics.Repl_dropped);
  (* the write is still acknowledged — durable on one node only *)
  let r = Coordinator.exec c "append to R (k = 1, v = 1)" in
  Alcotest.(check bool) "append acked" true r.Coordinator.ok;
  Alcotest.(check int) "no double count once dropped" 1
    (mget c Metrics.Repl_dropped);
  Alcotest.(check int) "slot alive, unreplicated" 1 (Coordinator.alive_count c)

(* ------------------------------------------------- routing edge cases *)

let test_mirrored_qual_point_routes () =
  (* [where 5 = R.k] pins the partition attribute just as [R.k = 5]
     does: the retrieve must route to one node, not broadcast. *)
  let local = Coordinator.create_local ~nodes:3 () in
  let c = Coordinator.coordinator local in
  let single = Lang.Interp.create () in
  List.iter (check_stmt c single) setup_stmts;
  let routed0 = mget c Metrics.Cluster_stmts_routed in
  let bcast0 = mget c Metrics.Cluster_stmts_broadcast in
  check_stmt c single (Printf.sprintf "retrieve (R.v) where %d = R.k" (key 3));
  Alcotest.(check int) "mirrored qual point-routed" (routed0 + 1)
    (mget c Metrics.Cluster_stmts_routed);
  Alcotest.(check int) "no broadcast" bcast0 (mget c Metrics.Cluster_stmts_broadcast);
  let routed1 = mget c Metrics.Cluster_stmts_routed in
  check_stmt c single
    (Printf.sprintf "delete from R where %d = R.k" (key 3));
  Alcotest.(check int) "mirrored delete point-routed" (routed1 + 1)
    (mget c Metrics.Cluster_stmts_routed);
  Alcotest.(check int) "still no broadcast" bcast0
    (mget c Metrics.Cluster_stmts_broadcast)

let test_owner_total =
  QCheck.Test.make ~count:500 ~name:"owner is total over every value"
    QCheck.(
      let special =
        oneofl
          [
            Float.nan;
            Float.infinity;
            Float.neg_infinity;
            -1.0;
            1.0e308;
            -0.0;
            Float.max_float;
          ]
      in
      let value =
        oneof
          [
            map (fun i -> Value.Int i) int;
            map (fun f -> Value.Float f) float;
            map (fun f -> Value.Float f) special;
            map (fun s -> Value.Str s) string;
          ]
      in
      make ~print:(fun v -> Value.to_string v) (gen value))
    (fun v ->
      let local = Coordinator.create_local ~replicas:false ~nodes:3 () in
      let c = Coordinator.coordinator local in
      let i = Coordinator.owner c v in
      i >= 0 && i < 3)

(* --------------------------------- qcheck interleaving differential *)

(* Random interleavings of two concurrent distributed transactions
   (appends and point deletes ending in commit or abort), optionally with
   a node kill mid-run.  The oracle replays the transactions the cluster
   actually committed, in commit order, into a single-node session —
   strict 2PL makes commit order a valid serial order — and the final
   relation digests must agree. *)

type qcl = {
  qid : int;
  mutable pending : string list;  (* statements not yet issued *)
  mutable parked : string option;  (* a statement that blocked *)
  mutable finished : bool;
  mutable commit_seq : int option;  (* order among committed txns *)
  body : string list;  (* the mutation statements, for the oracle *)
}

let qstep c seq cl =
  if not cl.finished then
    let line =
      match cl.parked with
      | Some l -> l
      | None ->
        let l = List.hd cl.pending in
        cl.pending <- List.tl cl.pending;
        l
    in
    match Coordinator.exec_client c ~client:cl.qid line with
    | `Park _ -> cl.parked <- Some line
    | `Done r ->
      cl.parked <- None;
      if r.Coordinator.aborted then begin
        cl.finished <- true;
        cl.pending <- []
      end
      else if line = "commit" then begin
        cl.finished <- true;
        if r.Coordinator.ok then begin
          cl.commit_seq <- Some !seq;
          incr seq
        end
      end
      else if line = "abort" then cl.finished <- true
      else if not r.Coordinator.ok then
        (* statement-level errors don't happen in generated scripts *)
        Alcotest.failf "client %d %S failed: %s" cl.qid line r.Coordinator.output

let txn_interleaving_prop (script1, script2, schedule, kill) =
  let inj = Injector.create ~seed:23 () in
  (match kill with
  | Some (node, at) ->
    (* after the single setup statement, so the relation exists *)
    Injector.schedule_node_kills inj [ { Injector.node; at_op = 2 + at } ]
  | None -> ());
  let local = Coordinator.create_local ~injector:inj ~nodes:3 () in
  let c = Coordinator.coordinator local in
  ignore (exec_ok_c c "create T (k = int, v = int)");
  let mk qid body terminal =
    {
      qid;
      pending = ("begin" :: body) @ [ terminal ];
      parked = None;
      finished = false;
      commit_seq = None;
      body;
    }
  in
  let body1, term1 = script1 and body2, term2 = script2 in
  let cl1 = mk 1 body1 term1 and cl2 = mk 2 body2 term2 in
  let seq = ref 0 in
  List.iter
    (fun first ->
      let cl = if first then cl1 else cl2 in
      if cl.finished then qstep c seq (if first then cl2 else cl1)
      else qstep c seq cl)
    schedule;
  (* drain: a parked client can always make progress once the other
     finishes (strict 2PL releases at commit/abort; a cycle aborts the
     younger), so a bounded drain terminates *)
  let guard = ref 0 in
  while (not cl1.finished) || not cl2.finished do
    incr guard;
    if !guard > 500 then Alcotest.fail "interleaving livelocked";
    qstep c seq cl1;
    qstep c seq cl2
  done;
  (* committed-or-aborted oracle, in commit order *)
  let single = Lang.Interp.create () in
  oracle_exec single "create T (k = int, v = int)";
  let committed =
    List.filter (fun cl -> cl.commit_seq <> None) [ cl1; cl2 ]
    |> List.sort (fun a b -> compare a.commit_seq b.commit_seq)
  in
  List.iter (fun cl -> List.iter (oracle_exec single) cl.body) committed;
  let cluster_digest =
    match (Coordinator.exec c "retrieve (T.all)").Coordinator.digest with
    | Some d -> d
    | None -> Alcotest.fail "cluster retrieve returned no digest"
  in
  let oracle_digest =
    match Lang.Interp.fetch single "retrieve (T.all)" with
    | Ok (tuples, _) -> Wire.digest_tuples tuples
    | Error msg -> Alcotest.failf "oracle retrieve failed: %s" msg
  in
  cluster_digest = oracle_digest

let test_txn_interleaving_differential =
  let open QCheck in
  let gen_script =
    Gen.(
      let op =
        map
          (fun ((is_append, k), v) ->
            if is_append then Printf.sprintf "append to T (k = %d, v = %d)" k v
            else Printf.sprintf "delete from T where T.k = %d" k)
          (pair (pair bool (int_bound 999_999)) (int_bound 99))
      in
      pair
        (list_size (int_range 1 5) op)
        (map (fun b -> if b then "commit" else "abort") bool))
  in
  let gen_case =
    Gen.(
      quad gen_script gen_script
        (list_size (int_range 4 16) bool)
        (opt (pair (int_bound 2) (int_bound 10))))
  in
  Test.make ~count:30 ~name:"random txn interleavings match the serial oracle"
    (make
       ~print:(fun ((b1, t1), (b2, t2), sched, kill) ->
         Printf.sprintf "cl1=[%s;%s] cl2=[%s;%s] sched=[%s] kill=%s"
           (String.concat "; " b1) t1 (String.concat "; " b2) t2
           (String.concat ""
              (List.map (fun b -> if b then "1" else "2") sched))
           (match kill with
           | None -> "none"
           | Some (n, at) -> Printf.sprintf "node %d at +%d" n at))
       gen_case)
    txn_interleaving_prop

let () =
  Alcotest.run "cluster"
    [
      ( "differential",
        [
          Alcotest.test_case "cluster = single node (incl. cross-shard join)" `Quick
            test_differential;
          Alcotest.test_case "join sub-retrieves keep literals" `Quick test_join_literals;
          Alcotest.test_case "re-home keeps literals" `Quick test_rehome_literals;
          Alcotest.test_case "replace re-homes the partition key" `Quick
            test_replace_rehomes_partition_key;
          Alcotest.test_case "show script dumps every node" `Quick
            test_show_script_dumps_every_node;
        ] );
      ( "replication",
        [
          Alcotest.test_case "synchronous WAL shipping" `Quick test_wal_shipping;
          Alcotest.test_case "wal push idempotent, gaps refused" `Quick
            test_wal_push_idempotent_and_gapless;
          Alcotest.test_case "raw newline in a literal replicates" `Quick
            test_raw_newline_replicates;
        ] );
      ( "failover",
        [
          Alcotest.test_case "node kill promotes replica, differential holds" `Quick
            test_failover;
          Alcotest.test_case "kill without replica downs the slot" `Quick
            test_kill_without_replica_downs_slot;
          Alcotest.test_case "double kill of one slot survives re-replication"
            `Quick test_double_kill_same_slot;
          Alcotest.test_case "replica dropped mid-ship is counted" `Quick
            test_replica_drop_is_counted;
        ] );
      ( "routing",
        [
          Alcotest.test_case "semijoin when sides differ, broadcast when equal" `Quick
            test_semijoin_vs_broadcast;
          Alcotest.test_case "mirrored qualification point-routes" `Quick
            test_mirrored_qual_point_routes;
          QCheck_alcotest.to_alcotest test_owner_total;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "cross-shard 2PC commit" `Quick
            test_txn_cross_shard_commit;
          Alcotest.test_case "abort rolls back every branch" `Quick
            test_txn_abort_rolls_back;
          Alcotest.test_case "kill at prepare aborts globally" `Quick
            test_txn_kill_at_prepare_aborts;
          Alcotest.test_case "kill in the in-doubt window still commits" `Quick
            test_txn_kill_in_doubt_commits;
          Alcotest.test_case "cross-node deadlock aborts the youngest" `Quick
            test_txn_deadlock_victim;
          Alcotest.test_case "refused statements leave the transaction open" `Quick
            test_txn_refusals_leave_txn_open;
          Alcotest.test_case "participant durable only once its commit shipped" `Quick
            test_commit_durable_only_once_shipped;
          Alcotest.test_case "a script runs as its client" `Quick
            test_script_runs_as_its_client;
          Alcotest.test_case "an unretried park leaves nothing open" `Quick
            test_unretried_park_leaves_nothing_open;
          QCheck_alcotest.to_alcotest test_txn_interleaving_differential;
        ] );
      ("stats", [ Alcotest.test_case "merged cluster view" `Quick test_stats_merge ]);
    ]
