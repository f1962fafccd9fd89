open Dbproc_obs
module Interp = Dbproc_lang.Interp
module Ast = Dbproc_lang.Ast
module Stmt_cache = Dbproc_lang.Stmt_cache
module Cost = Dbproc_storage.Cost
module Io = Dbproc_storage.Io
module Wal = Dbproc_storage.Wal

(* The local branch of a distributed transaction: a dedicated interpreter
   client plus the replicable statements it has executed, buffered so a
   commit can re-log them for onward replication (statements under an
   open transaction never reach the rlog directly — their effects could
   still be rolled back). *)
type branch = { client : int; mutable stmts : string list (* reversed *) }

type t = {
  session : Interp.t;
  ctx : Ctx.t;
  rlog : string Wal.t;  (* primary replication log: replicable statements *)
  recv : string Wal.t;  (* replica side: shipped records, applied lazily *)
  dlog : string Wal.t;  (* 2PC decision log: prepare/commit records *)
  txns : (string, branch) Hashtbl.t;  (* gtid -> local branch *)
  mutable next_txn_client : int;
  mutable applied : int;  (* next recv lsn a promotion will replay *)
  mutable promoted : bool;
}

(* Both logs charge the node's own context: shipping reads pages off the
   primary's log, promotion reads them back off the replica's — the same
   simulated currency as PR 3's recovery replay.  Statements average well
   under a WAL slot, so the paper's 100-byte record keeps log page math
   consistent with the heap's. *)
let create ?ctx ?(plan_cache = true) () =
  let ctx = match ctx with Some c -> c | None -> Ctx.create () in
  let session = Interp.create ~ctx ~plan_cache () in
  let log_io () =
    let cost = Cost.create ~ctx () in
    Io.direct cost ~page_bytes:4000
  in
  {
    session;
    ctx;
    rlog = Wal.create ~io:(log_io ()) ~record_bytes:100 ();
    recv = Wal.create ~io:(log_io ()) ~record_bytes:100 ();
    dlog = Wal.create ~io:(log_io ()) ~record_bytes:100 ();
    txns = Hashtbl.create 8;
    (* distributed-transaction branches get client ids far above any
       server connection id, so they never collide with real clients *)
    next_txn_client = 1_000_000;
    applied = 0;
    promoted = false;
  }

let session t = t.session
let ctx t = t.ctx
let rlog_next_lsn t = Wal.next_lsn t.rlog
let recv_next_lsn t = Wal.next_lsn t.recv
let promoted t = t.promoted

(* Statements worth shipping: the ones that change what a promoted
   replica must be able to serve.  Reads only read (their cache side
   effects are rebuilt by the replica's own executions), and transaction
   control never reaches a replication log — a statement is logged only
   when it ran to completion outside an explicit transaction, so the log
   never contains effects that a later [abort] undid. *)
let replicates (stmt : Stmt_cache.entry) =
  match Ast.classify stmt.cmd with
  | Ast.Write | Ast.Ddl -> true
  | Ast.Read | Ast.Introspection | Ast.Session_file | Ast.Txn_control -> false

let save_refused =
  "save is not served over the network (shell --connect saves on the client)"

(* Every statement that reaches a node came over the network, or off a
   replication or decision log: a session file would be written where
   the node runs, so it is refused. *)
let exec_stmt t ~client (stmt : Stmt_cache.entry) =
  match Ast.classify stmt.cmd with
  | Ast.Session_file -> Interp.O_error save_refused
  | Ast.Read | Ast.Write | Ast.Ddl | Ast.Introspection | Ast.Txn_control ->
    Interp.exec_stmt t.session ~client stmt

(* A line is parsed once; it is logged for the replica when it replicates
   and committed outside an explicit transaction. *)
let exec_line t ~client line =
  match Interp.parse t.session line with
  | Error msg -> Interp.O_error msg
  | Ok stmt ->
    let answer = exec_stmt t ~client stmt in
    (match answer with
    | Interp.O_ok _ ->
      if replicates stmt && not (Interp.in_transaction t.session ~client) then
        ignore (Wal.append t.rlog line)
    | Interp.O_error _ | Interp.O_blocked _ | Interp.O_aborted _ -> ());
    answer

(* Line by line through [exec_line], so exactly the statements that
   executed are replicated: a script that fails midway has its completed
   prefix in the log, matching the node's state. *)
let exec_script t ~client = Interp.run_script (exec_line t ~client)

let control t ~client cmd = exec_stmt t ~client { Stmt_cache.cmd; prepared = None }

(* Translate transaction-manager ids ([Interp.O_blocked] holders) into
   the coordinator's global transaction ids; a holder with no branch here
   (a transaction a client opened on this node directly) maps to "-1". *)
let blocker_gtids t blockers =
  List.map
    (fun tm_id ->
      match Interp.client_of_txn t.session tm_id with
      | None -> "-1"
      | Some client ->
        Hashtbl.fold
          (fun gtid branch acc -> if branch.client = client then gtid else acc)
          t.txns "-1")
    blockers

(* One statement's answer as a response; [ok] renders success. *)
let respond t ok = function
  | Interp.O_ok v -> ok v
  | Interp.O_error msg -> Protocol.Failed msg
  | Interp.O_blocked blockers ->
    Protocol.Blocked (String.concat " " (blocker_gtids t blockers))
  | Interp.O_aborted msg -> Protocol.Aborted msg

let output out = Protocol.Output out
let tuples (tuples, ms) = Protocol.Tuples (Wire.tuples_body ~ms tuples)

(* A client line that blocked only on local statements may wait ([`Park])
   for their holders to finish.  One blocked by a distributed branch must
   answer, not park: the holder's commit arrives on the same (single)
   coordinator connection a park would stall. *)
let line_answer t = function
  | Interp.O_blocked blockers ->
    let gtids = blocker_gtids t blockers in
    let resp = Protocol.Blocked (String.concat " " gtids) in
    if List.exists (fun g -> g <> "-1") gtids then `Resp resp else `Park resp
  | answer -> `Resp (respond t output answer)

(* Coordinator-side reads go through the lock-respecting fetch: while a
   distributed transaction holds locks here, a plain retrieve must not
   see its uncommitted effects.  While no transaction has ever opened on
   the session this is byte-identical to the lock-free fast path. *)
let fetch_line t line =
  match Interp.parse t.session line with
  | Error msg -> Interp.O_error msg
  | Ok stmt -> Interp.fetch_stmt t.session ~client:0 stmt

let fetch t line = respond t tuples (fetch_line t line)

let join_probe t body =
  match Wire.parse_join_probe_body body with
  | exception Wire.Malformed msg -> Protocol.Failed ("join probe: " ^ msg)
  | attr, stmt, keys ->
    let semijoin (rows, ms) =
      let set = Hashtbl.create (List.length keys * 2) in
      List.iter (fun k -> Hashtbl.replace set k ()) keys;
      let hits =
        List.filter
          (fun tuple ->
            match Dbproc_relation.Tuple.get tuple attr with
            | v -> Hashtbl.mem set v
            | exception Invalid_argument _ -> false)
          rows
      in
      tuples (hits, ms)
    in
    respond t semijoin (fetch_line t stmt)

let wal_pull t body =
  match int_of_string_opt (String.trim body) with
  | None -> Protocol.Failed (Printf.sprintf "wal pull: bad lsn %S" body)
  | Some from_lsn -> (
    match Wal.records_from t.rlog from_lsn with
    | records ->
      let n = List.length records in
      if n > 0 then
        Metrics.incr ~n (Ctx.metrics t.ctx) Metrics.Repl_records_shipped;
      Protocol.Wal_records (Wire.records_body records)
    | exception Invalid_argument msg -> Protocol.Failed ("wal pull: " ^ msg))

(* Shipped records append to the received log in primary-LSN order, so a
   replica's recv LSNs coincide with the primary's rlog LSNs.  Re-shipped
   prefixes are skipped (idempotent); a gap means the coordinator lost
   records and the replica refuses rather than diverge. *)
let wal_push t body =
  match Wire.parse_records_body body with
  | exception Wire.Malformed msg -> Protocol.Failed ("wal push: " ^ msg)
  | records ->
    let expected = Wal.next_lsn t.recv in
    let rec apply = function
      | [] -> Protocol.Output (Printf.sprintf "received through %d" (Wal.next_lsn t.recv))
      | (lsn, _) :: rest when lsn < Wal.next_lsn t.recv -> apply rest
      | (lsn, stmt) :: rest when lsn = Wal.next_lsn t.recv ->
        ignore (Wal.append t.recv stmt);
        Metrics.incr (Ctx.metrics t.ctx) Metrics.Repl_records_received;
        apply rest
      | (lsn, _) :: _ ->
        Protocol.Failed
          (Printf.sprintf "wal push: gap (got lsn %d, expected %d)" lsn expected)
    in
    apply records

(* Promotion: replay the shipped tail through the session.  Reading the
   received log back charges one page read per log page (the recovery
   cost), and each replayed statement re-executes at full simulated
   price — a promoted replica has genuinely done the work its state
   claims.  Replayed statements land in this node's own rlog via
   [exec_line], so a promoted node is immediately a valid primary. *)
let promote t =
  match Wal.records_from t.recv t.applied with
  | exception Invalid_argument msg -> Protocol.Failed ("promote: " ^ msg)
  | records -> (
    let rec replay n = function
      | [] -> Ok n
      | (lsn, stmt) :: rest -> (
        match exec_line t ~client:0 stmt with
        | Interp.O_ok _ ->
          t.applied <- lsn + 1;
          Metrics.incr (Ctx.metrics t.ctx) Metrics.Repl_statements_replayed;
          replay (n + 1) rest
        | Interp.O_error msg | Interp.O_aborted msg ->
          Error (Printf.sprintf "replay failed at lsn %d: %s" lsn msg)
        | Interp.O_blocked _ -> Error (Printf.sprintf "replay blocked at lsn %d" lsn))
    in
    match replay 0 records with
    | Ok n ->
      t.promoted <- true;
      Protocol.Output (Printf.sprintf "promoted: replayed %d statements" n)
    | Error msg -> Protocol.Failed msg)

(* ------------------------------------------- distributed transactions *)

let drop_branch t gtid branch =
  ignore (Interp.abort_client t.session ~client:branch.client);
  Hashtbl.remove t.txns gtid

(* [Txn_exec]: run one statement under the gtid's local branch, opening
   it lazily on first touch.  Reads go through the lock-respecting fetch
   so the coordinator can merge partitions; everything else runs through
   the client path.  Replicable statements are buffered on the branch —
   they reach the rlog only if the branch commits. *)
let txn_exec t body =
  let gtid, line =
    match String.index_opt body ' ' with
    | Some i ->
      ( String.sub body 0 i,
        String.sub body (i + 1) (String.length body - i - 1) )
    | None -> (body, "")
  in
  if line = "" then Protocol.Failed "txn exec: empty statement"
  else begin
    let branch =
      match Hashtbl.find_opt t.txns gtid with
      | Some b -> b
      | None ->
        let client = t.next_txn_client in
        t.next_txn_client <- client + 1;
        let b = { client; stmts = [] } in
        ignore (control t ~client Ast.Begin);
        Hashtbl.add t.txns gtid b;
        b
    in
    let resp =
      match Interp.parse t.session line with
      | Error msg -> Protocol.Failed msg
      | Ok stmt -> (
        match Ast.classify stmt.cmd with
        | Ast.Read -> respond t tuples (Interp.fetch_stmt t.session ~client:branch.client stmt)
        | Ast.Write | Ast.Ddl | Ast.Introspection | Ast.Session_file | Ast.Txn_control ->
          let answer = exec_stmt t ~client:branch.client stmt in
          (match answer with
          | Interp.O_ok _ -> if replicates stmt then branch.stmts <- line :: branch.stmts
          | Interp.O_error _ | Interp.O_blocked _ | Interp.O_aborted _ -> ());
          respond t output answer)
    in
    (match resp with Protocol.Aborted _ -> drop_branch t gtid branch | _ -> ());
    resp
  end

(* Phase one: the branch votes yes iff its transaction is still live
   (a deadlock victim votes no).  The vote is decision-logged before it
   is returned — a promise to hold locks until the coordinator decides. *)
let txn_prepare t gtid =
  match Hashtbl.find_opt t.txns gtid with
  | None -> Protocol.Failed "vote no: unknown transaction"
  | Some branch ->
    if Interp.in_transaction t.session ~client:branch.client then begin
      ignore (Wal.append t.dlog ("prepare " ^ gtid));
      Protocol.Output "prepared"
    end
    else begin
      (* aborted locally (deadlock victim) after its last statement *)
      drop_branch t gtid branch;
      Protocol.Failed "vote no: transaction aborted"
    end

(* Phase two, commit: release locks, decision-log, and re-log the
   branch's replicable statements so they ship to this node's replica in
   local commit order. *)
let txn_commit t gtid =
  match Hashtbl.find_opt t.txns gtid with
  | None -> Protocol.Failed "commit: unknown transaction"
  | Some branch -> (
    match control t ~client:branch.client Ast.Commit with
    | Interp.O_ok out ->
      ignore (Wal.append t.dlog ("commit " ^ gtid));
      List.iter (fun line -> ignore (Wal.append t.rlog line)) (List.rev branch.stmts);
      Hashtbl.remove t.txns gtid;
      Protocol.Output out
    | Interp.O_error msg | Interp.O_aborted msg ->
      drop_branch t gtid branch;
      Protocol.Failed ("commit: " ^ msg)
    | Interp.O_blocked _ ->
      drop_branch t gtid branch;
      Protocol.Failed "commit: blocked")

(* Presumed abort: an unknown gtid aborts trivially, so the coordinator
   can blanket-abort without tracking which nodes actually enlisted. *)
let txn_abort t gtid =
  match Hashtbl.find_opt t.txns gtid with
  | None -> Protocol.Output "aborted (unknown transaction)"
  | Some branch ->
    drop_branch t gtid branch;
    Protocol.Output "aborted"

let handle t ~client (req : Protocol.request) =
  let resp r = `Resp r in
  match req with
  | Protocol.Ping -> resp Protocol.Pong
  | Protocol.Exec_line l -> line_answer t (exec_line t ~client l)
  | Protocol.Begin -> line_answer t (control t ~client Ast.Begin)
  | Protocol.Commit -> line_answer t (control t ~client Ast.Commit)
  | Protocol.Abort -> line_answer t (control t ~client Ast.Abort)
  | Protocol.Exec_script s ->
    resp
      (match exec_script t ~client s with
      | Ok out -> Protocol.Output out
      | Error msg -> Protocol.Failed msg)
  | Protocol.Stats -> resp (Protocol.Output (Export.to_string (Export.snapshot t.ctx)))
  | Protocol.Shutdown -> resp (Protocol.Failed "shutdown is served by the event loop")
  | Protocol.Fetch l -> resp (fetch t l)
  | Protocol.Join_probe body -> resp (join_probe t body)
  | Protocol.Wal_pull body -> resp (wal_pull t body)
  | Protocol.Wal_push body -> resp (wal_push t body)
  | Protocol.Promote -> resp (promote t)
  | Protocol.Txn_exec body -> resp (txn_exec t body)
  | Protocol.Txn_prepare gtid -> resp (txn_prepare t (String.trim gtid))
  | Protocol.Txn_commit gtid -> resp (txn_commit t (String.trim gtid))
  | Protocol.Txn_abort gtid -> resp (txn_abort t (String.trim gtid))

let disconnect t ~client = ignore (Interp.abort_client t.session ~client)
let sim_ms t = Interp.simulated_ms t.session
