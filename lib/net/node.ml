open Dbproc_obs
module Interp = Dbproc_lang.Interp
module Parser = Dbproc_lang.Parser
module Lexer = Dbproc_lang.Lexer
module Ast = Dbproc_lang.Ast
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
   replica must be able to serve.  [Exec]/[Retrieve] only read (their
   cache side effects are rebuilt by the replica's own executions), and
   transaction control never reaches a replication log — a statement is
   logged only when it ran to completion outside an explicit transaction,
   so the log never contains effects that a later [abort] undid. *)
let replicable line =
  match Parser.parse_command line with
  | Ast.Create _ | Ast.Index _ | Ast.Append _ | Ast.Delete _ | Ast.Replace _
  | Ast.Define_proc _ | Ast.Strategy _ ->
    true
  | _ -> false
  | exception Parser.Parse_error _ -> false
  | exception Lexer.Lex_error _ -> false

let exec_line t ~client line =
  let outcome = Interp.exec_client t.session ~client line in
  (match outcome with
  | Interp.O_ok _ ->
    if (not (Interp.in_transaction t.session ~client)) && replicable line then
      ignore (Wal.append t.rlog line)
  | _ -> ());
  outcome

(* Line by line through [exec_line], so exactly the statements that
   executed are replicated: a script that fails midway has its completed
   prefix in the log, matching the node's state. *)
let exec_script t = Interp.run_script (exec_line t ~client:0)

(* Translate transaction-manager ids ([Interp.O_blocked] holders) into
   the coordinator's global transaction ids; a holder with no branch here
   (a local autocommit statement parked mid-acquisition) maps to "-1". *)
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

let blocked_response t blockers =
  Protocol.Blocked (String.concat " " (blocker_gtids t blockers))

(* Coordinator-side reads go through the lock-respecting fetch: while a
   distributed transaction holds locks here, a plain retrieve must not
   see its uncommitted effects.  While no transaction has ever opened on
   the session this is byte-identical to the lock-free fast path. *)
let fetch t line =
  match Interp.fetch_client t.session ~client:0 line with
  | Interp.F_tuples (tuples, ms) -> Protocol.Tuples (Wire.tuples_body ~ms tuples)
  | Interp.F_error msg -> Protocol.Failed msg
  | Interp.F_blocked blockers -> blocked_response t blockers
  | Interp.F_aborted msg -> Protocol.Aborted msg

let join_probe t body =
  match Wire.parse_join_probe_body body with
  | exception Wire.Malformed msg -> Protocol.Failed ("join probe: " ^ msg)
  | attr, stmt, keys -> (
    match Interp.fetch_client t.session ~client:0 stmt with
    | Interp.F_error msg -> Protocol.Failed msg
    | Interp.F_blocked blockers -> blocked_response t blockers
    | Interp.F_aborted msg -> Protocol.Aborted msg
    | Interp.F_tuples (tuples, ms) ->
      let set = Hashtbl.create (List.length keys * 2) in
      List.iter (fun k -> Hashtbl.replace set k ()) keys;
      let hits =
        List.filter
          (fun tuple ->
            match Dbproc_relation.Tuple.get tuple attr with
            | v -> Hashtbl.mem set v
            | exception Invalid_argument _ -> false)
          tuples
      in
      Protocol.Tuples (Wire.tuples_body ~ms hits))

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
   it lazily on first touch.  Retrieves go through the lock-respecting
   fetch so the coordinator can merge partitions; everything else runs
   through the ordinary client path.  Replicable statements are buffered
   on the branch — they reach the rlog only if the branch commits. *)
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
        (match Interp.exec_client t.session ~client "begin" with
        | Interp.O_ok _ -> ()
        | _ -> ());
        Hashtbl.add t.txns gtid b;
        b
    in
    let is_read =
      match Parser.parse_command line with
      | Ast.Retrieve _ | Ast.Exec _ -> true
      | _ -> false
      | exception Parser.Parse_error _ -> false
      | exception Lexer.Lex_error _ -> false
    in
    if is_read then
      match Interp.fetch_client t.session ~client:branch.client line with
      | Interp.F_tuples (tuples, ms) -> Protocol.Tuples (Wire.tuples_body ~ms tuples)
      | Interp.F_error msg -> Protocol.Failed msg
      | Interp.F_blocked blockers -> blocked_response t blockers
      | Interp.F_aborted msg ->
        drop_branch t gtid branch;
        Protocol.Aborted msg
    else
      match Interp.exec_client t.session ~client:branch.client line with
      | Interp.O_ok out ->
        if replicable line then branch.stmts <- line :: branch.stmts;
        Protocol.Output out
      | Interp.O_error msg -> Protocol.Failed msg
      | Interp.O_blocked blockers -> blocked_response t blockers
      | Interp.O_aborted msg ->
        drop_branch t gtid branch;
        Protocol.Aborted msg
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
    match Interp.exec_client t.session ~client:branch.client "commit" with
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

let handle t (req : Protocol.request) : Protocol.response option =
  match req with
  | Protocol.Fetch line -> Some (fetch t line)
  | Protocol.Join_probe body -> Some (join_probe t body)
  | Protocol.Wal_pull body -> Some (wal_pull t body)
  | Protocol.Wal_push body -> Some (wal_push t body)
  | Protocol.Promote -> Some (promote t)
  | Protocol.Txn_exec body -> Some (txn_exec t body)
  | Protocol.Txn_prepare gtid -> Some (txn_prepare t (String.trim gtid))
  | Protocol.Txn_commit gtid -> Some (txn_commit t (String.trim gtid))
  | Protocol.Txn_abort gtid -> Some (txn_abort t (String.trim gtid))
  | Protocol.Ping | Protocol.Exec_line _ | Protocol.Exec_script _ | Protocol.Stats
  | Protocol.Shutdown | Protocol.Begin | Protocol.Commit | Protocol.Abort ->
    None

let disconnect t ~client = ignore (Interp.abort_client t.session ~client)
let sim_ms t = Interp.simulated_ms t.session
