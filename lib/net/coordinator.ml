open Dbproc_obs
open Dbproc_relation
module Interp = Dbproc_lang.Interp
module Parser = Dbproc_lang.Parser
module Lexer = Dbproc_lang.Lexer
module Ast = Dbproc_lang.Ast
module Stmt_cache = Dbproc_lang.Stmt_cache
module View_def = Dbproc_query.View_def
module Injector = Dbproc_fault.Injector
module Cost = Dbproc_storage.Cost
module Io = Dbproc_storage.Io
module Wal = Dbproc_storage.Wal

type link = Protocol.request -> (Protocol.response, string) result

type slot = {
  mutable primary : link;
  mutable replica : link option;
  mutable shipped : int;  (* next primary-rlog lsn to pull *)
  mutable down : bool;  (* lost with no replica left: keyspace hole *)
}

type rel_info = {
  mutable count : int;  (* cluster-wide cardinality *)
  attrs : (string * Ast.ty) list;  (* declared schema; attr 0 partitions *)
}

type result = {
  output : string;
  ok : bool;
  digest : string option;
  aborted : bool;
}

(* A distributed transaction open at the coordinator.  Statements are
   routed as they arrive; each touched node becomes a participant, and
   the replicable statements are remembered per node so a decided-commit
   transaction can be re-applied to a promoted replica that never heard
   the commit (in-doubt resolution). *)
type ctxn = {
  gtid : int;  (* global transaction id; larger = younger *)
  owner_client : int;
  mutable participants : int list;  (* reversed first-touch order *)
  mutable tstmts : (int * string) list;  (* (node, statement), reversed *)
  mutable deltas : (string * int) list;  (* rel-count deltas, for rollback *)
  mutable doomed : string option;  (* forced-abort reason (failover) *)
}

(* A logged commit decision.  [d_durable] lists the participants whose
   branch is known committed-and-shipped; promotion of any other
   participant replays [d_stmts] for that node off this record. *)
type decision = {
  d_gtid : int;
  d_participants : int list;
  d_stmts : (int * string) list;  (* execution order *)
  mutable d_durable : int list;
}

type t = {
  ctx : Ctx.t;
  slots : slot array;
  key_domain : int;
  injector : Injector.t option;
  on_kill : int -> unit;
  spawn_replica : int -> link option;
      (* re-replication after failover: a fresh, empty replica link for
         slot [i], or [None] to run unreplicated from then on *)
  scratch : Interp.t;
      (* binder twin: replays DDL only, never holds data — resolves
         names, types and join structure with single-node error parity *)
  mutable fetched_ms : float;
      (* accumulated per-statement max-across-nodes simulated ms *)
  rels : (string, rel_info) Hashtbl.t;
  procs : (string, Ast.retrieve) Hashtbl.t;
  mutable next_gtid : int;
  ctxns : (int, ctxn) Hashtbl.t;  (* client -> open distributed txn *)
  victims : (int, string) Hashtbl.t;
      (* clients whose transaction was aborted from under them (deadlock
         victim chosen while parked): the next statement reports the
         abort instead of silently running autocommit *)
  waits : (int, int list) Hashtbl.t;  (* gtid -> blocker gtids *)
  mutable decisions : decision list;  (* newest first *)
  dlog : string Wal.t;  (* coordinator decision log: "commit <gtid>" *)
}

(* Statement execution unwinds through these when a node reports a lock
   conflict or a local abort; [exec_client] catches both at the top. *)
exception Stmt_blocked of int list  (* holder gtids, -1 for non-txn holders *)
exception Stmt_aborted of string

let parse_holders s =
  List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

let create ?ctx ?(key_domain = 1_000_000) ?injector ?(on_kill = fun _ -> ())
    ?(spawn_replica = fun _ -> None) ~links () =
  if Array.length links = 0 then invalid_arg "Coordinator.create: no nodes";
  if key_domain < 1 then invalid_arg "Coordinator.create: key_domain must be >= 1";
  let ctx = match ctx with Some c -> c | None -> Ctx.create () in
  {
    ctx;
    slots =
      Array.map
        (fun (primary, replica) -> { primary; replica; shipped = 0; down = false })
        links;
    key_domain;
    injector;
    on_kill;
    spawn_replica;
    scratch = Interp.create ~ctx ~plan_cache:false ();
    fetched_ms = 0.0;
    rels = Hashtbl.create 16;
    procs = Hashtbl.create 16;
    next_gtid = 1;
    ctxns = Hashtbl.create 8;
    victims = Hashtbl.create 8;
    waits = Hashtbl.create 8;
    decisions = [];
    dlog =
      Wal.create
        ~io:(Io.direct (Cost.create ~ctx ()) ~page_bytes:4000)
        ~record_bytes:100 ();
  }

let ctx t = t.ctx
let m t = Ctx.metrics t.ctx
let node_down t i = t.slots.(i).down
let alive_count t =
  Array.fold_left (fun acc s -> if s.down then acc else acc + 1) 0 t.slots
let shipped_lsn t i = t.slots.(i).shipped

(* The coordinator's simulated clock: scratch-binder charges plus, for
   each tuple-returning statement, the max simulated ms across the nodes
   that served it (partitions run in parallel). *)
let sim_ms t = Interp.simulated_ms t.scratch +. t.fetched_ms

(* ------------------------------------------------------------ failover *)

(* A replica that refuses a push or dies mid-ship is dropped and the slot
   runs unreplicated — counted, so a strict reconciliation can tell a
   durable cluster from one that silently degraded. *)
let drop_replica t slot =
  slot.replica <- None;
  Metrics.incr (m t) Metrics.Repl_dropped

(* Ship the primary's unshipped replication-log tail to the replica.
   [false] means the tail never left the primary: the pull failed, so the
   primary is gone and [shipped] stays put.  A refused push or an
   unreadable pull reply drops the replica, and the slot runs
   unreplicated from then on. *)
let ship_slot t i =
  let slot = t.slots.(i) in
  match slot.replica with
  | None -> true
  | Some rep -> (
    match slot.primary (Protocol.Wal_pull (string_of_int slot.shipped)) with
    | Error _ -> false
    | Ok (Protocol.Wal_records body) ->
      (match rep (Protocol.Wal_push body) with
      | Ok (Protocol.Output _) -> (
        match Wire.parse_records_body body with
        | records ->
          List.iter
            (fun (lsn, _) -> if lsn >= slot.shipped then slot.shipped <- lsn + 1)
            records
        | exception Wire.Malformed _ -> ())
      | Ok _ | Error _ -> drop_replica t slot);
      true
    | Ok _ ->
      drop_replica t slot;
      true)

(* Losing node [i] kills every local branch it hosted: transactions still
   open at the coordinator with [i] among their participants can never
   commit.  They are doomed rather than aborted in place — the owning
   client learns on its next statement (or commit), which fans the abort
   out to the surviving participants. *)
let doom_open_txns t i =
  Hashtbl.iter
    (fun _ cx ->
      if cx.doomed = None && List.mem i cx.participants then
        cx.doomed <- Some (Printf.sprintf "participant node %d failed" i))
    t.ctxns

(* Re-apply one decided-commit transaction's statements for node [i],
   straight through the autocommit path (each statement re-logs to the
   promoted primary's rlog, so it ships onward to any fresh replica). *)
let reapply t d i =
  List.iter
    (fun (nd, stmt) ->
      if nd = i then ignore (t.slots.(i).primary (Protocol.Exec_line stmt)))
    d.d_stmts;
  Metrics.incr (m t) Metrics.Txn2pc_in_doubt_resolved

(* In-doubt resolution: a freshly promoted primary replayed only the
   *shipped* log, which never contains a distributed branch that had not
   committed locally and shipped.  Every decided-commit transaction this
   node participated in but is not yet durable on is replayed here,
   oldest first, off the coordinator's decision log — the kill-between-
   prepare-and-commit window closes to "committed everywhere". *)
let resolve_in_doubt t i =
  List.iter
    (fun d ->
      if List.mem i d.d_participants && not (List.mem i d.d_durable) then begin
        reapply t d i;
        d.d_durable <- i :: d.d_durable
      end)
    (List.rev t.decisions)

(* Close the durability gap after failover: attach a fresh, empty replica
   to the promoted primary and ship the full re-logged history, so the
   slot survives a *second* kill. *)
let attach_replica t i =
  match t.spawn_replica i with
  | None -> ()
  | Some rep ->
    let slot = t.slots.(i) in
    slot.replica <- Some rep;
    slot.shipped <- 0;
    Metrics.incr (m t) Metrics.Repl_replicas_attached;
    ignore (ship_slot t i)

(* Promote node [i]'s replica to primary.  The replica replays its whole
   received log through its session (charged), after which it serves the
   full partition; then open transactions that lost a branch here are
   doomed, decided commits it missed are re-applied, and a fresh replica
   is attached (when the cluster can spawn one). *)
let promote_replica t i =
  let slot = t.slots.(i) in
  match slot.replica with
  | None ->
    slot.down <- true;
    doom_open_txns t i;
    None
  | Some r -> (
    slot.replica <- None;
    match r Protocol.Promote with
    | Ok (Protocol.Output _) ->
      slot.primary <- r;
      Metrics.incr (m t) Metrics.Cluster_failovers;
      doom_open_txns t i;
      resolve_in_doubt t i;
      attach_replica t i;
      Some r
    | Ok _ | Error _ ->
      slot.down <- true;
      doom_open_txns t i;
      None)

(* A scheduled (or manual) whole-node kill: take the primary down via the
   transport's kill switch, then fail over immediately so the very next
   routed statement lands on the promoted replica. *)
let kill_node t i =
  let slot = t.slots.(i) in
  if not slot.down then begin
    t.on_kill i;
    ignore (promote_replica t i)
  end

let node_error i = Printf.sprintf "node %d is down" i

(* Read-only call with fail-over-and-retry-once: reads are idempotent, so
   if the primary dies mid-call the promoted replica re-serves the same
   request. *)
let call t i req =
  let slot = t.slots.(i) in
  if slot.down then Error (node_error i)
  else
    match slot.primary req with
    | Ok resp -> Ok resp
    | Error _ -> (
      match promote_replica t i with
      | None -> Error (node_error i)
      | Some link -> (
        Metrics.incr (m t) Metrics.Cluster_retries;
        match link req with
        | Ok resp -> Ok resp
        | Error e ->
          slot.down <- true;
          Error e))

(* Mutating call: execute on the primary, then synchronously ship the new
   replication-log tail to the replica before acknowledging.  The ack
   therefore implies the statement is durable on two nodes (or the slot
   knowingly runs unreplicated).  If the primary dies before the ship
   completes, the statement is provably absent from the replica's
   received log, so promoting and re-executing once is exactly-once. *)
let exec_mut t i line =
  let rec go ~retried =
    let slot = t.slots.(i) in
    if slot.down then Error (node_error i)
    else
      let refail () =
        if retried then begin
          slot.down <- true;
          Error (node_error i)
        end
        else
          match promote_replica t i with
          | None -> Error (node_error i)
          | Some _ ->
            Metrics.incr (m t) Metrics.Cluster_retries;
            go ~retried:true
      in
      match slot.primary (Protocol.Exec_line line) with
      | Error _ -> refail ()
      | Ok (Protocol.Output _ as resp) -> if ship_slot t i then Ok resp else refail ()
      | Ok resp -> Ok resp (* no mutation, nothing to ship *)
  in
  go ~retried:false

let enlist t cx i =
  if not (List.mem i cx.participants) then begin
    cx.participants <- i :: cx.participants;
    Metrics.incr (m t) Metrics.Txn2pc_participants
  end

(* Send one statement to node [i] under the transaction.  No
   failover-retry here: if the primary dies, the branch (and its locks
   and effects) died with it — promotion dooms the transaction and the
   statement reports the abort. *)
let txn_send t cx i line =
  enlist t cx i;
  let slot = t.slots.(i) in
  if slot.down then Error (node_error i)
  else
    match
      slot.primary (Protocol.Txn_exec (string_of_int cx.gtid ^ " " ^ line))
    with
    | Error _ -> (
      ignore (promote_replica t i);
      match cx.doomed with
      | Some reason -> raise (Stmt_aborted ("transaction aborted: " ^ reason))
      | None -> Error (node_error i))
    | Ok resp -> Ok resp

(* One mutation on node [i].  Autocommit goes through [exec_mut]
   (failover-retry, ship before ack); inside a transaction it runs on the
   participant branch and is remembered for in-doubt replay — a
   transaction carries only appends, deletes and replaces, which all
   replicate. *)
let mutate t cx i line =
  match
    match cx with None -> exec_mut t i line | Some cx -> txn_send t cx i line
  with
  | Error e -> Error e
  | Ok (Protocol.Output out) ->
    Option.iter (fun cx -> cx.tstmts <- (i, line) :: cx.tstmts) cx;
    Ok out
  | Ok (Protocol.Failed msg) -> Error msg
  | Ok (Protocol.Blocked s) -> raise (Stmt_blocked (parse_holders s))
  | Ok (Protocol.Aborted msg) -> raise (Stmt_aborted msg)
  | Ok _ -> Error (Printf.sprintf "unexpected response from node %d" i)

(* ------------------------------------------------------------- routing *)

(* Key-range partitioning over [0, key_domain): node i owns the i-th
   equal slice.  Out-of-range keys clamp to the edge nodes; non-integer
   partition attributes hash to a pseudo-key, which keeps routing
   deterministic (same value, same node) if not range-ordered. *)
let owner t v =
  let n = Array.length t.slots in
  let of_int k =
    if k < 0 then 0
    else if k >= t.key_domain then n - 1
    else k * n / t.key_domain
  in
  match v with
  | Value.Int k -> of_int k
  | Value.Float f ->
    (* [int_of_float] on nan/±infinity is unspecified — clamp the
       non-finite and out-of-range cases deterministically so routing
       stays a total function of the value. *)
    if Float.is_nan f then 0
    else if f < 0.0 then 0
    else if f >= float_of_int t.key_domain then n - 1
    else of_int (int_of_float f)
  | Value.Str s -> Hashtbl.hash s mod n

let all_nodes t = List.init (Array.length t.slots) Fun.id

(* The partition attribute is the relation's first declared attribute. *)
let partition_attr t rel =
  match Hashtbl.find_opt t.rels rel with
  | Some { attrs = (name, _) :: _; _ } -> Some name
  | _ -> None

(* A statement whose qualification pins the partition attribute with [=]
   routes to the single owning node. *)
let point_node t rel (quals : Ast.qual list) =
  match partition_attr t rel with
  | None -> None
  | Some pattr ->
    List.find_map
      (fun (q : Ast.qual) ->
        match q with
        | { left = lrel, lattr; op = Ast.C_eq; right = Ast.Lit lit }
          when lrel = rel && lattr = pattr ->
          Some (owner t (Ast.value_of_literal lit))
        | _ -> None)
      quals

let target_nodes t rel quals =
  match point_node t rel quals with
  | Some i ->
    Metrics.incr (m t) Metrics.Cluster_stmts_routed;
    [ i ]
  | None ->
    Metrics.incr (m t) Metrics.Cluster_stmts_broadcast;
    all_nodes t

let fail fmt =
  Format.kasprintf
    (fun output -> { output; ok = false; digest = None; aborted = false })
    fmt

let ok_out output = { output; ok = true; digest = None; aborted = false }

let aborted_result output = { output; ok = false; digest = None; aborted = true }

(* A qual a node can evaluate on [rel]'s partition alone. *)
let local_qual rel (q : Ast.qual) =
  fst q.Ast.left = rel && match q.Ast.right with Ast.Lit _ -> true | Ast.Attr _ -> false

(* A node-local sub-retrieve: the whole partition of [rel], filtered by
   the statement's own literal quals on it. *)
let sub_retrieve rel quals =
  Ast.to_string
    (Ast.Retrieve { targets = [ (rel, "all") ]; quals = List.filter (local_qual rel) quals })

(* Gather one request's tuples from a set of nodes, [send i] asking node
   [i]; [what] names the request in errors.  The cluster's simulated
   time for the statement is the max across nodes (partitions execute in
   parallel). *)
let gather t nodes what send =
  let rec go acc ms = function
    | [] -> Ok (List.concat (List.rev acc), ms)
    | i :: rest -> (
      match send i with
      | Error e -> Error e
      | Ok (Protocol.Failed msg) -> Error msg
      | Ok (Protocol.Blocked s) -> raise (Stmt_blocked (parse_holders s))
      | Ok (Protocol.Aborted msg) -> raise (Stmt_aborted msg)
      | Ok (Protocol.Tuples body) -> (
        match Wire.parse_tuples_body body with
        | node_ms, tuples ->
          let n = List.length tuples in
          if n > 0 then Metrics.incr ~n (m t) Metrics.Cluster_tuples_shipped;
          go (tuples :: acc) (Float.max ms node_ms) rest
        | exception Wire.Malformed msg -> Error ("bad tuples body: " ^ msg))
      | Ok _ -> Error ("unexpected response to " ^ what))
  in
  go [] 0.0 nodes

(* Fetch and merge one statement's tuples.  Autocommit reads fail over
   and retry; inside a transaction they run on the participant branches,
   so partition reads take S locks and see the branch's own writes. *)
let fetch_from t cx nodes stmt =
  gather t nodes "fetch" (fun i ->
      match cx with
      | None -> call t i (Protocol.Fetch stmt)
      | Some cx -> txn_send t cx i stmt)

let probe_from t nodes ~attr ~stmt keys =
  let body = Wire.join_probe_body ~attr ~stmt keys in
  gather t nodes "join probe" (fun i -> call t i (Protocol.Join_probe body))

let project projection tuple =
  match projection with
  | None -> tuple
  | Some positions -> Tuple.create (List.map (Tuple.get tuple) positions)

(* Evaluate the bound join chain over per-source shipped partitions —
   the same left-deep semantics as the executor, hash-joining on [=]. *)
let eval_join (def : View_def.t) projection per_source =
  match per_source with
  | [] -> []
  | base :: rest ->
    let chain =
      List.fold_left2
        (fun acc (step : View_def.join_step) src_tuples ->
          match step.View_def.op with
          | Predicate.Eq ->
            let table = Hashtbl.create (List.length src_tuples * 2) in
            List.iter
              (fun s ->
                let key = Tuple.get s step.View_def.right_attr in
                Hashtbl.add table key s)
              src_tuples;
            List.concat_map
              (fun l ->
                let key = Tuple.get l step.View_def.left_attr in
                List.rev_map (fun s -> Tuple.concat l s) (Hashtbl.find_all table key))
              acc
          | op ->
            List.concat_map
              (fun l ->
                List.filter_map
                  (fun s ->
                    if
                      Predicate.eval_op op
                        (Tuple.get l step.View_def.left_attr)
                        (Tuple.get s step.View_def.right_attr)
                    then Some (Tuple.concat l s)
                    else None)
                  src_tuples)
              acc)
        base def.View_def.steps rest
    in
    List.map (project projection) chain

(* Deterministic display: first 20 of the sorted serialized multiset,
   matching the single-node format shape (tuple order differs — the
   differential oracle compares digests, not display text). *)
let format_tuples tuples =
  let sorted =
    List.sort compare (List.map (fun tu -> (Wire.encode_tuple tu, tu)) tuples)
  in
  let buf = Buffer.create 256 in
  let rec show n = function
    | [] -> 0
    | rest when n = 0 -> List.length rest
    | (_, tu) :: rest ->
      Buffer.add_string buf (Format.asprintf "  %a\n" Tuple.pp tu);
      show (n - 1) rest
  in
  let hidden = show 20 sorted in
  if hidden > 0 then Buffer.add_string buf (Printf.sprintf "  ... %d more\n" hidden);
  Buffer.add_string buf (Printf.sprintf "(%d tuples)" (List.length tuples));
  Buffer.contents buf

let tuple_result t ?suffix tuples ms =
  t.fetched_ms <- t.fetched_ms +. ms;
  {
    output =
      Printf.sprintf "%s\n%.0f ms (simulated%s)" (format_tuples tuples) ms
        (match suffix with None -> "" | Some s -> ", " ^ s);
    ok = true;
    digest = Some (Wire.digest_tuples tuples);
    aborted = false;
  }

(* Cross-shard join: with two sources equi-joined we ship the smaller
   side — fetch it whole, send its join-key set to the bigger side's
   nodes, and get back only matching tuples (a semijoin).  Anything else
   (longer chains, non-equality joins) broadcasts every source. *)
let join_retrieve t (r : Ast.retrieve) (def : View_def.t) projection ~suffix =
  let sources = View_def.sources def in
  let sub (src : View_def.source) = sub_retrieve (Relation.name src.rel) r.Ast.quals in
  let count_of (src : View_def.source) =
    match Hashtbl.find_opt t.rels (Relation.name src.rel) with
    | Some info -> info.count
    | None -> 0
  in
  let shipped_plan () =
    match (sources, def.View_def.steps) with
    | [ base; side ], [ step ] when step.View_def.op = Predicate.Eq ->
      Some (base, side, step)
    | _ -> None
  in
  let fetch_all () =
    let rec go acc ms = function
      | [] -> Ok (List.rev acc, ms)
      | src :: rest -> (
        match fetch_from t None (all_nodes t) (sub src) with
        | Error e -> Error e
        | Ok (tuples, node_ms) -> go (tuples :: acc) (Float.max ms node_ms) rest)
    in
    go [] 0.0 sources
  in
  let fetched =
    match shipped_plan () with
    | Some (base, side, step) when count_of base <> count_of side ->
      Metrics.incr (m t) Metrics.Cluster_joins_shipped;
      let base_smaller = count_of base < count_of side in
      let small, small_attr, big, big_attr =
        if base_smaller then
          (base, step.View_def.left_attr, side, step.View_def.right_attr)
        else (side, step.View_def.right_attr, base, step.View_def.left_attr)
      in
      (match fetch_from t None (all_nodes t) (sub small) with
      | Error e -> Error e
      | Ok (small_tuples, ms1) -> (
        let keys = Hashtbl.create 64 in
        List.iter
          (fun tu -> Hashtbl.replace keys (Tuple.get tu small_attr) ())
          small_tuples;
        let key_list = Hashtbl.fold (fun k () acc -> k :: acc) keys [] in
        match
          probe_from t (all_nodes t) ~attr:big_attr ~stmt:(sub big) key_list
        with
        | Error e -> Error e
        | Ok (big_tuples, ms2) ->
          let per_source =
            if base_smaller then [ small_tuples; big_tuples ]
            else [ big_tuples; small_tuples ]
          in
          Ok (per_source, Float.max ms1 ms2)))
    | _ ->
      Metrics.incr (m t) Metrics.Cluster_joins_broadcast;
      fetch_all ()
  in
  match fetched with
  | Error e -> fail "%s" e
  | Ok (per_source, ms) ->
    let tuples = eval_join def projection per_source in
    tuple_result t ?suffix tuples ms

(* A retrieve (or proc body) routed as tuples.  Single-source retrieves
   ship the original statement verbatim — each node restricts and
   projects its own partition; multi-source ones take the join path,
   which a transaction refuses. *)
let retrieve_tuples t cx line (r : Ast.retrieve) ~suffix =
  match Interp.bind_retrieve_projected t.scratch r with
  | exception Interp.Runtime_error msg -> fail "%s" msg
  | def, projection -> (
    match View_def.sources def with
    | [ _ ] -> (
      let rel = Relation.name (List.hd (View_def.relations def)) in
      match fetch_from t cx (target_nodes t rel r.Ast.quals) line with
      | Error e -> fail "%s" e
      | Ok (tuples, ms) -> tuple_result t ?suffix tuples ms)
    | _ when Option.is_some cx ->
      fail "cross-shard joins are not supported inside a distributed transaction"
    | _ -> join_retrieve t r def projection ~suffix)

(* ------------------------------------------------- per-command routing *)

let scan_count fmt output =
  try Scanf.sscanf output fmt (fun n _ -> Some n) with
  | Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let scratch_exec t cmd =
  Interp.result_of_answer
    (Interp.exec_stmt t.scratch ~client:0 { Stmt_cache.cmd; prepared = None })

(* DDL and strategy changes run on the scratch binder first (catching
   semantic errors with single-node parity, before any node state
   changes), then broadcast to every node.  The scratch output doubles as
   the cluster output — these outputs are data-independent. *)
let route_ddl t line cmd ~on_success =
  match scratch_exec t cmd with
  | Error msg -> fail "%s" msg
  | Ok output ->
    Metrics.incr (m t) Metrics.Cluster_stmts_broadcast;
    let rec go = function
      | [] ->
        on_success ();
        ok_out output
      | i :: rest -> (
        match mutate t None i line with Error e -> fail "%s" e | Ok _ -> go rest)
    in
    go (all_nodes t)

let exec_on_nodes t cx nodes line ~parse ~describe =
  let rec go total = function
    | [] -> Ok total
    | i :: rest -> (
      match mutate t cx i line with
      | Error e -> Error e
      | Ok out -> (
        match parse out with
        | Some n -> go (total + n) rest
        | None -> Error (Printf.sprintf "unparseable %s output from node %d" describe i)))
  in
  go 0 nodes

(* Replace that assigns the partition attribute re-homes tuples: fetch
   the victims, delete them where they live, re-append the rewritten
   tuples to their new owners. *)
let rehome_replace t rel (values : (string * Ast.literal) list) quals info =
  let nodes = target_nodes t rel quals in
  match fetch_from t None nodes (sub_retrieve rel quals) with
  | Error e -> fail "%s" e
  | Ok (victims, _ms) -> (
    match
      exec_on_nodes t None nodes (Ast.to_string (Ast.Delete { rel; quals }))
        ~parse:(scan_count "deleted %d tuples from %s")
        ~describe:"delete"
    with
    | Error e -> fail "%s" e
    | Ok deleted -> (
      info.count <- info.count - deleted;
      let rewrite tuple =
        List.mapi
          (fun i (name, _ty) ->
            match List.assoc_opt name values with
            | Some lit -> (name, lit)
            | None -> (name, Ast.literal_of_value (Tuple.get tuple i)))
          info.attrs
      in
      let rec put = function
        | [] ->
          ok_out (Printf.sprintf "replaced %d tuples in %s" deleted rel)
        | tuple :: rest -> (
          let values = rewrite tuple in
          let dest = owner t (Ast.value_of_literal (snd (List.hd values))) in
          match mutate t None dest (Ast.to_string (Ast.Append { rel; values })) with
          | Ok _ ->
            info.count <- info.count + 1;
            put rest
          | Error e -> fail "%s" e)
      in
      put victims))

(* The cluster's session dump, replayable into one session: the scratch
   binder's dump (it runs every DDL statement and holds no data, so it
   prints the schema, indexes, strategy and procedures once), then every
   node's appends in turn.  [Ast.to_string] prints an append on one line
   that starts [append to ].  A slot that is down fails the dump rather
   than print part of the data. *)
let cluster_script t =
  match scratch_exec t (Ast.Show `Script) with
  | Error msg -> fail "%s" msg
  | Ok schema ->
    Metrics.incr (m t) Metrics.Cluster_stmts_broadcast;
    let buf = Buffer.create 4096 in
    Buffer.add_string buf schema;
    let add_append line =
      if String.starts_with ~prefix:"append to " line then begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      end
    in
    let rec go = function
      | [] -> ok_out (Buffer.contents buf)
      | i :: rest -> (
        match call t i (Protocol.Exec_line (Ast.to_string (Ast.Show `Script))) with
        | Ok (Protocol.Output dump) ->
          List.iter add_append (String.split_on_char '\n' dump);
          go rest
        | Ok (Protocol.Failed msg) -> fail "%s" msg
        | Ok _ -> fail "unexpected response from node %d" i
        | Error e -> fail "%s" e)
    in
    go (all_nodes t)

(* What a distributed transaction cannot run, refused before any node is
   contacted: DDL, and introspection, which a node answers from its own
   partition. *)
let txn_refusal cmd =
  match Ast.classify cmd with
  | Ast.Ddl -> Some "DDL is not supported inside a distributed transaction"
  | Ast.Introspection -> Some "not supported inside a distributed transaction"
  | Ast.Read | Ast.Write | Ast.Session_file | Ast.Txn_control -> None

(* Dispatch one statement.  [cx] is the client's open distributed
   transaction ([None] for autocommit).  It picks only the transport, in
   [mutate] and [fetch_from]. *)
let dispatch t cx line (cmd : Ast.command) =
  let in_txn = Option.is_some cx in
  let with_rel rel k =
    match Hashtbl.find_opt t.rels rel with
    | None -> fail "unknown relation %S" rel
    | Some info -> k info
  in
  (* cardinality change, remembered for a transaction's rollback *)
  let count rel info d =
    info.count <- info.count + d;
    Option.iter (fun cx -> cx.deltas <- (rel, d) :: cx.deltas) cx
  in
  (* A delete or replace, summing the nodes' counts.  Inside a transaction
     it must pin one owner: a broadcast write could not be undone
     exactly-once across promotions. *)
  let write what rel quals fmt =
    if in_txn && point_node t rel quals = None then
      Error
        (Printf.sprintf
           "a %s inside a distributed transaction must pin %s's partition attribute \
            with '='"
           what rel)
    else
      exec_on_nodes t cx (target_nodes t rel quals) line ~parse:(scan_count fmt)
        ~describe:what
  in
  match cmd with
  | Ast.Create { rel; attrs } ->
    route_ddl t line cmd ~on_success:(fun () ->
        Hashtbl.replace t.rels rel { count = 0; attrs })
  | Ast.Index _ | Ast.Strategy _ ->
    route_ddl t line cmd ~on_success:(fun () -> ())
  | Ast.Define_proc { name; body } ->
    route_ddl t line cmd ~on_success:(fun () -> Hashtbl.replace t.procs name body)
  | Ast.Append { rel; values } ->
    with_rel rel (fun info ->
        let dest =
          match partition_attr t rel with
          | Some pattr -> (
            match List.assoc_opt pattr values with
            | Some lit -> owner t (Ast.value_of_literal lit)
            | None -> 0 (* node 0 reports the missing-attribute error *))
          | None -> 0
        in
        Metrics.incr (m t) Metrics.Cluster_stmts_routed;
        match mutate t cx dest line with
        | Error e -> fail "%s" e
        | Ok _ ->
          count rel info 1;
          ok_out (Printf.sprintf "appended 1 tuple to %s (%d total)" rel info.count))
  | Ast.Delete { rel; quals } ->
    with_rel rel (fun info ->
        if not (List.for_all (local_qual rel) quals) then
          fail "delete restriction must reference only %s" rel
        else
          match write "delete" rel quals "deleted %d tuples from %s" with
          | Error e -> fail "%s" e
          | Ok n ->
            count rel info (-n);
            ok_out (Printf.sprintf "deleted %d tuples from %s" n rel))
  | Ast.Replace { rel; values; quals } ->
    with_rel rel (fun info ->
        let rehomes =
          match partition_attr t rel with
          | Some pattr -> List.mem_assoc pattr values
          | None -> false
        in
        if not (List.for_all (local_qual rel) quals) then
          fail "replace restriction must reference only %s" rel
        else if rehomes && in_txn then
          fail
            "replacing the partition attribute inside a distributed transaction is \
             not supported"
        else if rehomes then rehome_replace t rel values quals info
        else
          match write "replace" rel quals "replaced %d tuples in %s" with
          | Error e -> fail "%s" e
          | Ok n -> ok_out (Printf.sprintf "replaced %d tuples in %s" n rel))
  | Ast.Retrieve r -> retrieve_tuples t cx line r ~suffix:None
  | Ast.Exec name -> (
    match Hashtbl.find_opt t.procs name with
    | None -> fail "unknown procedure %S" name
    | Some body ->
      (* a single-relation proc is served by every node's own manager, so
         the paper's strategies (and their caches) do the work *)
      retrieve_tuples t cx line body ~suffix:(Some (Interp.strategy_name t.scratch)))
  | Ast.Show `Script -> cluster_script t
  | Ast.Explain _ | Ast.Show _ | Ast.Help -> (
    (* node 0's local view stands in for the cluster *)
    Metrics.incr (m t) Metrics.Cluster_stmts_routed;
    match call t 0 (Protocol.Exec_line line) with
    | Ok (Protocol.Output out) -> ok_out out
    | Ok (Protocol.Failed msg) -> fail "%s" msg
    | Ok (Protocol.Blocked s) -> raise (Stmt_blocked (parse_holders s))
    | Ok (Protocol.Aborted msg) -> raise (Stmt_aborted msg)
    | Ok _ -> fail "unexpected response from node 0"
    | Error e -> fail "%s" e)
  | Ast.Reset_cost ->
    Metrics.incr (m t) Metrics.Cluster_stmts_broadcast;
    let rec go = function
      | [] -> ok_out "cost counters reset"
      | i :: rest -> (
        match call t i (Protocol.Exec_line line) with
        | Ok (Protocol.Output _) -> go rest
        | Ok (Protocol.Failed msg) -> fail "%s" msg
        | Ok _ -> fail "unexpected response from node %d" i
        | Error e -> fail "%s" e)
    in
    go (all_nodes t)
  | Ast.Save _ -> fail "%s" Node.save_refused
  | Ast.Begin | Ast.Commit | Ast.Abort ->
    (* handled by [exec_client] before routing; reaching here means a
       caller bypassed the transaction layer *)
    fail "internal: transaction control escaped the 2PC layer"

(* Route one statement: what a transaction cannot do is refused before
   any node is contacted, everything else is dispatched. *)
let route t cx line cmd =
  match Option.bind cx (fun _ -> txn_refusal cmd) with
  | Some msg -> fail "%s" msg
  | None -> dispatch t cx line cmd

(* ------------------------------------------ distributed transactions *)

(* 2PC over the nodes' 2PL branches.  The coordinator is the transaction
   manager: it allocates global ids, tracks the participant set as
   statements route, runs presumed-abort two-phase commit, and resolves
   in-doubt transactions off its decision log when a replica is
   promoted.  Gtid order doubles as age order — larger is younger, which
   is what the deadlock victim choice keys on. *)

(* Global abort: fan [Txn_abort] to every participant (presumed abort —
   a node that never enlisted, or already dropped the branch, aborts
   trivially), roll the coordinator's cardinality cache back, and forget
   the transaction. *)
let abort_ctxn t cx =
  let gtid = string_of_int cx.gtid in
  List.iter
    (fun i ->
      let slot = t.slots.(i) in
      if not slot.down then ignore (slot.primary (Protocol.Txn_abort gtid)))
    (List.rev cx.participants);
  List.iter
    (fun (rel, d) ->
      match Hashtbl.find_opt t.rels rel with
      | Some info -> info.count <- info.count - d
      | None -> ())
    cx.deltas;
  Hashtbl.remove t.ctxns cx.owner_client;
  Hashtbl.remove t.waits cx.gtid;
  Metrics.incr (m t) Metrics.Txn2pc_aborts

(* A committed participant is durable once its log tail has shipped to
   its replica.  If the pull fails the primary is gone: promote now, so
   the in-doubt sweep re-applies the branch on the replica. *)
let settle t d i =
  if ship_slot t i then d.d_durable <- i :: d.d_durable
  else ignore (promote_replica t i)

(* Two-phase commit, presumed abort.  Phase one sends [Txn_prepare] to
   every participant: yes iff the local branch is still live.  All-yes
   logs the decision (the commit point) and registers the decision
   record; phase two fans [Txn_commit] out and ships each node's
   replication log.  A participant lost after the decision is repaired
   on promotion by [resolve_in_doubt] — the classic in-doubt window the
   seeded kill points exercise. *)
let commit_ctxn t cx =
  let gtid = string_of_int cx.gtid in
  let participants = List.rev cx.participants in
  Hashtbl.remove t.waits cx.gtid;
  (match t.injector with
  | Some inj -> (
    match Injector.note_2pc ~metrics:(m t) inj ~phase:`Prepare with
    | Some node -> kill_node t node
    | None -> ())
  | None -> ());
  match cx.doomed with
  | Some reason ->
    abort_ctxn t cx;
    aborted_result ("transaction aborted: " ^ reason)
  | None ->
    let vote_yes i =
      let slot = t.slots.(i) in
      if slot.down then false
      else begin
        Metrics.incr (m t) Metrics.Txn2pc_prepares;
        match slot.primary (Protocol.Txn_prepare gtid) with
        | Ok (Protocol.Output _) -> true
        | Ok _ -> false
        | Error _ ->
          ignore (promote_replica t i);
          false
      end
    in
    if not (List.for_all vote_yes participants) then begin
      abort_ctxn t cx;
      aborted_result "transaction aborted: a participant voted no"
    end
    else begin
      (* the commit point: decision logged, outcome fixed *)
      ignore (Wal.append t.dlog ("commit " ^ gtid));
      let d =
        {
          d_gtid = cx.gtid;
          d_participants = participants;
          d_stmts = List.rev cx.tstmts;
          d_durable = [];
        }
      in
      t.decisions <- d :: t.decisions;
      Metrics.incr (m t) Metrics.Txn2pc_commits;
      Hashtbl.remove t.ctxns cx.owner_client;
      (match t.injector with
      | Some inj -> (
        match Injector.note_2pc ~metrics:(m t) inj ~phase:`Commit with
        | Some node -> kill_node t node
        | None -> ())
      | None -> ());
      List.iter
        (fun i ->
          if not (List.mem i d.d_durable) then begin
            let slot = t.slots.(i) in
            if not slot.down then
              match slot.primary (Protocol.Txn_commit gtid) with
              | Ok (Protocol.Output _) -> settle t d i
              | Ok _ ->
                (* a promoted primary with no branch: repair in place *)
                reapply t d i;
                settle t d i
              | Error _ ->
                (* promotion resolves this decision via the in-doubt sweep *)
                ignore (promote_replica t i)
          end)
        participants;
      ok_out "committed"
    end

(* Coordinator-side deadlock handling over the blocked statement's holder
   gtids: maintain a waits-for graph, and on a cycle abort the youngest
   transaction on it globally.  Holders outside any distributed
   transaction (gtid -1) have no edges — a cycle through them cannot be
   broken here and the statement just parks. *)
let find_ctxn_by_gtid t g =
  Hashtbl.fold
    (fun _ cx acc -> if cx.gtid = g then Some cx else acc)
    t.ctxns None

let detect_cycle t start =
  let visited = Hashtbl.create 8 in
  let rec dfs g path =
    if g = start && path <> [] then Some path
    else if Hashtbl.mem visited g then None
    else begin
      Hashtbl.add visited g ();
      match Hashtbl.find_opt t.waits g with
      | None -> None
      | Some holders -> List.find_map (fun h -> dfs h (h :: path)) holders
    end
  in
  dfs start []

let resolve_blocked t cx holders =
  let holders = List.filter (fun h -> h >= 0 && h <> cx.gtid) holders in
  Hashtbl.replace t.waits cx.gtid holders;
  match detect_cycle t cx.gtid with
  | None -> `Park
  | Some cycle ->
    Metrics.incr (m t) Metrics.Deadlock_cycles;
    let victim = List.fold_left max cx.gtid cycle in
    Metrics.incr (m t) Metrics.Deadlock_victims;
    if victim = cx.gtid then `Self_abort
    else (
      match find_ctxn_by_gtid t victim with
      | Some vcx ->
        abort_ctxn t vcx;
        (* the victim's owner is parked elsewhere: leave a tombstone so
           its next statement reports the abort (single-node sessions
           learn the same way, via the doomed flag) *)
        Hashtbl.replace t.victims vcx.owner_client
          "deadlock: transaction aborted (victim)";
        `Retry
      | None -> `Park)

(* The transaction-aware entry point.  [client] is the caller's session
   identity (a server passes its connection id); each client has at most
   one open distributed transaction.  [`Park] means the statement blocked
   on live transactions and should be retried verbatim — exactly the
   single-node server's parking contract, lifted to the cluster. *)
let exec_client t ~client line =
  (match t.injector with
  | Some inj -> (
    match Injector.note_op ~metrics:(m t) inj with
    | Some node -> kill_node t node
    | None -> ())
  | None -> ());
  match Parser.parse_command line with
  | exception Parser.Parse_error msg -> `Done (fail "%s" msg)
  | exception Lexer.Lex_error msg -> `Done (fail "%s" msg)
  | cmd -> (
    match Hashtbl.find_opt t.ctxns client with
    | None when Hashtbl.mem t.victims client ->
      (* the transaction was aborted from under this client (deadlock
         victim chosen while it was parked): report that once *)
      let reason = Hashtbl.find t.victims client in
      Hashtbl.remove t.victims client;
      `Done (aborted_result reason)
    | None -> (
      match cmd with
      | Ast.Begin ->
        let gtid = t.next_gtid in
        t.next_gtid <- gtid + 1;
        Hashtbl.replace t.ctxns client
          {
            gtid;
            owner_client = client;
            participants = [];
            tstmts = [];
            deltas = [];
            doomed = None;
          };
        Metrics.incr (m t) Metrics.Txn2pc_begins;
        `Done (ok_out "transaction started")
      | Ast.Commit | Ast.Abort -> `Done (fail "no open transaction")
      | _ -> (
        match route t None line cmd with
        | r -> `Done r
        | exception Stmt_blocked holders -> `Park holders
        | exception Stmt_aborted msg -> `Done (aborted_result msg)))
    | Some cx -> (
      match cx.doomed with
      | Some reason ->
        abort_ctxn t cx;
        `Done (aborted_result ("transaction aborted: " ^ reason))
      | None -> (
        match cmd with
        | Ast.Begin -> `Done (fail "a transaction is already open")
        | Ast.Commit -> `Done (commit_ctxn t cx)
        | Ast.Abort ->
          abort_ctxn t cx;
          `Done (ok_out "aborted")
        | _ ->
          (* bounded victim-abort retries: each round either makes
             progress or parks; the bound only guards surprises *)
          let rec attempt budget =
            match route t (Some cx) line cmd with
            | r ->
              Hashtbl.remove t.waits cx.gtid;
              `Done r
            | exception Stmt_blocked holders -> (
              match resolve_blocked t cx holders with
              | `Park -> `Park holders
              | `Retry -> if budget = 0 then `Park holders else attempt (budget - 1)
              | `Self_abort ->
                abort_ctxn t cx;
                `Done (aborted_result "deadlock: transaction aborted (victim)"))
            | exception Stmt_aborted msg ->
              (* the local branch died (node-side deadlock victim or a
                 lost participant): finish the global abort *)
              abort_ctxn t cx;
              `Done (aborted_result msg)
          in
          attempt 8)))

(* Single-driver compatibility entry point: everything runs as client 0.
   A park here means waiting on a transaction only this same driver could
   finish, so it surfaces as an error rather than spinning. *)
let exec t line =
  match exec_client t ~client:0 line with
  | `Done r -> r
  | `Park _ -> fail "blocked on a concurrent transaction"

let disconnect_client t ~client =
  Hashtbl.remove t.victims client;
  match Hashtbl.find_opt t.ctxns client with
  | Some cx -> abort_ctxn t cx
  | None -> ()

(* -------------------------------------------------------- cluster view *)

let counter_of_name =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun c -> Hashtbl.replace tbl (Metrics.counter_name c) c)
    Metrics.all_counters;
  fun name -> Hashtbl.find_opt tbl name

let gauge_of_name =
  let tbl = Hashtbl.create 17 in
  List.iter (fun g -> Hashtbl.replace tbl (Metrics.gauge_name g) g) Metrics.all_gauges;
  fun name -> Hashtbl.find_opt tbl name

let is_net_counter name =
  String.length name >= 4 && String.sub name 0 4 = "net."

(* One cluster view: the coordinator's own context (cluster.* counters,
   scratch-binder charges) plus every live node's exported counters and
   gauges, folded in by name.  Node [net.*] counters are skipped — node
   traffic is coordinator-internal, and the serving tier's own net
   counters are what a load generator reconciles against.  Node
   histograms are not merged (quantiles cannot be re-merged from
   exports); the coordinator's own histograms survive. *)
let snapshot t =
  let copy = Ctx.create () in
  Ctx.merge_into ~into:copy t.ctx;
  let mc = Ctx.metrics copy in
  Array.iteri
    (fun i slot ->
      if not slot.down then
        match call t i Protocol.Stats with
        | Ok (Protocol.Output body) -> (
          match Export.parse body with
          | Error _ -> ()
          | Ok json ->
            (match Export.member "counters" json with
            | Some (Export.Obj kvs) ->
              List.iter
                (fun (name, v) ->
                  match v with
                  | Export.Int n when n > 0 && not (is_net_counter name) -> (
                    match counter_of_name name with
                    | Some c -> Metrics.incr ~n mc c
                    | None -> ())
                  | _ -> ())
                kvs
            | _ -> ());
            (match Export.member "gauges" json with
            | Some (Export.Obj kvs) ->
              List.iter
                (fun (name, v) ->
                  match v with
                  | Export.Int n when n <> 0 -> (
                    match gauge_of_name name with
                    | Some g -> Metrics.add_gauge ~n mc g
                    | None -> ())
                  | _ -> ())
                kvs
            | _ -> ())
          )
        | Ok _ | Error _ -> ())
    t.slots;
  copy

(* --------------------------------------------------- in-process cluster *)

(* An in-process link answers through the node's one handler as client
   0.  Its caller cannot wait, so a park answers [Blocked]. *)
let node_link node =
  let dead = ref false in
  let link req =
    if !dead then Error "node killed"
    else match Node.handle node ~client:0 req with `Resp resp | `Park resp -> Ok resp
  in
  (link, fun () -> dead := true)

type local = { coord : t; nodes : Node.t array; kill_switches : (unit -> unit) array }

let create_local ?ctx ?key_domain ?injector ?(replicas = true) ~nodes:n () =
  if n < 1 then invalid_arg "Coordinator.create_local: nodes must be >= 1";
  let primaries = Array.init n (fun _ -> Node.create ()) in
  let replicas_arr =
    if replicas then Array.init n (fun _ -> Some (Node.create ())) else Array.make n None
  in
  let prim_links = Array.map node_link primaries in
  let repl_links =
    Array.map (function Some nd -> Some (node_link nd) | None -> None) replicas_arr
  in
  let links =
    Array.init n (fun i ->
        (fst prim_links.(i), Option.map fst repl_links.(i)))
  in
  (* [cur_switch] always kills the node *currently serving* as slot i's
     primary, [rep_switch] its current replica — so a second kill of the
     same slot takes down the promoted node, not the corpse. *)
  let cur_switch = Array.map snd prim_links in
  let rep_switch =
    Array.map (function Some (_, k) -> Some k | None -> None) repl_links
  in
  let spawn_replica i =
    match rep_switch.(i) with
    | None -> None
    | Some promoted_switch ->
      cur_switch.(i) <- promoted_switch;
      let nd = Node.create () in
      let link, switch = node_link nd in
      rep_switch.(i) <- Some switch;
      Some link
  in
  let coord =
    create ?ctx ?key_domain ?injector
      ~on_kill:(fun i -> cur_switch.(i) ())
      ~spawn_replica ~links ()
  in
  { coord; nodes = primaries; kill_switches = cur_switch }

let coordinator l = l.coord
let local_node l i = l.nodes.(i)
