(* ------------------------------------------------------- node processes *)

type proc = {
  pid : int;
  port : int;
  mutable conn : Client.t option;  (* lazily (re)opened *)
  mutable reaped : bool;
}

(* Fork one node server.  The child binds inside the fork (so the parent
   knows the port up front), runs the select loop until a Shutdown frame
   or a signal, and leaves with [Unix._exit] — never running the
   parent's at_exit machinery.  One shard: a cluster node is one
   partition, and the coordinator is its only client. *)
let spawn_node ?(shards = 1) ~port () =
  match Unix.fork () with
  | 0 ->
    (try
       let config =
         {
           Server.default_config with
           host = "127.0.0.1";
           port;
           shards;
           idle_timeout = 0.0;
         }
       in
       let srv = Server.create ~config () in
       Server.run srv
     with _ -> ());
    Unix._exit 0
  | pid -> { pid; port; conn = None; reaped = false }

let connect_proc p =
  match p.conn with
  | Some c -> Some c
  | None -> (
    match Client.connect ~host:"127.0.0.1" ~port:p.port () with
    | c ->
      p.conn <- Some c;
      Some c
    | exception _ -> None)

let drop_conn p =
  (match p.conn with
  | Some c -> ( try Client.close c with _ -> ())
  | None -> ());
  p.conn <- None

(* Wait until the node answers a ping (its listener is up and a shard is
   serving).  Polls with small sleeps; [false] after [timeout] seconds. *)
let wait_ready ?(timeout = 10.0) p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let ok =
      match connect_proc p with
      | None -> false
      | Some c -> (
        match Client.call c Protocol.Ping with
        | Protocol.Pong -> true
        | _ -> false
        | exception _ ->
          drop_conn p;
          false)
    in
    if ok then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      ignore (Unix.select [] [] [] 0.02);
      go ()
    end
  in
  go ()

(* A socket-backed coordinator link.  Transport failures surface as
   [Error] — the coordinator's failover logic decides what they mean;
   the connection is dropped so a later call does not read a stale
   stream. *)
let proc_link p : Coordinator.link =
 fun req ->
  match connect_proc p with
  | None -> Error (Printf.sprintf "node on port %d unreachable" p.port)
  | Some c -> (
    match Client.call c req with
    | resp -> Ok resp
    | exception e ->
      drop_conn p;
      Error
        (Printf.sprintf "node on port %d: %s" p.port
           (match e with
           | Client.Closed -> "connection closed"
           | Client.Protocol_error msg -> "protocol error: " ^ msg
           | Unix.Unix_error (err, _, _) -> Unix.error_message err
           | e -> Printexc.to_string e)))

let reap p =
  if not p.reaped then begin
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    p.reaped <- true
  end

(* The fault injector's idea of a node crash: SIGKILL, no drain, no
   flush — the process version of yanking the plug. *)
let kill p =
  drop_conn p;
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap p

(* Graceful stop for teardown paths (not a fault). *)
let stop p =
  (match connect_proc p with
  | Some c -> (
    (try ignore (Client.call c Protocol.Shutdown) with _ -> ());
    try Client.close c with _ -> ())
  | None -> ());
  p.conn <- None;
  (* If the drain never finishes, don't hang the parent. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    if p.reaped then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then kill p
        else begin
          ignore (Unix.select [] [] [] 0.02);
          wait ()
        end
      | _ -> p.reaped <- true
      | exception Unix.Unix_error _ -> p.reaped <- true
  in
  wait ()

(* ------------------------------------------------------ process cluster *)

type t = {
  primaries : proc array;  (* current primary per slot (rotated on failover) *)
  replicas : proc option array;  (* current replica per slot *)
  mutable spares : proc list;  (* warm standbys for re-replication *)
  mutable all : proc list;  (* every process ever spawned, for teardown *)
}

(* Spares are forked here, up front, because [Unix.fork] is illegal once
   the caller has spawned domains — and the callers that matter (a
   self-hosted loadgen, [cluster serve]) put the coordinator behind a
   multi-domain {!Server}.  A warm standby pool sidesteps the
   restriction and matches how real clusters re-replicate anyway. *)
let launch ?(base_port = 7500) ?(replicas = true) ?spares ~nodes () =
  if nodes < 1 then invalid_arg "Cluster.launch: nodes must be >= 1";
  let spares = Option.value spares ~default:(if replicas then nodes else 0) in
  let primaries =
    Array.init nodes (fun i -> spawn_node ~port:(base_port + (2 * i)) ())
  in
  let replica_procs =
    Array.init nodes (fun i ->
        if replicas then Some (spawn_node ~port:(base_port + (2 * i) + 1) ())
        else None)
  in
  let spare_procs =
    List.init spares (fun k -> spawn_node ~port:(base_port + (2 * nodes) + k) ())
  in
  let all =
    Array.to_list primaries
    @ List.filter_map Fun.id (Array.to_list replica_procs)
    @ spare_procs
  in
  if not (List.for_all wait_ready all) then begin
    List.iter kill all;
    failwith "Cluster.launch: a node server never became ready"
  end;
  { primaries; replicas = replica_procs; spares = spare_procs; all }

let links t =
  Array.init (Array.length t.primaries) (fun i ->
      (proc_link t.primaries.(i), Option.map proc_link t.replicas.(i)))

(* Killing "node i" always hits the process *currently serving* as the
   slot's primary — after a failover plus re-replication that is the
   promoted ex-replica, so a double kill genuinely loses two machines. *)
let kill_primary t i = kill t.primaries.(i)

(* Re-replication over processes: slot [i]'s replica was just promoted,
   so rotate it into the primary seat and hand the slot a warm standby
   from the spare pool.  [None] (replica-less slot, or the pool ran dry)
   leaves the slot running unreplicated. *)
let spawn_replica t i =
  match t.replicas.(i) with
  | None -> None
  | Some promoted ->
    t.primaries.(i) <- promoted;
    (match t.spares with
    | [] ->
      t.replicas.(i) <- None;
      None
    | p :: rest ->
      t.spares <- rest;
      t.replicas.(i) <- Some p;
      Some (proc_link p))

let shutdown t = List.iter stop t.all

(* ------------------------------------------- coordinator as a backend *)

(* Run a whole cluster behind one {!Server}: the factory builds the
   coordinator inside the (single) shard domain so the shard context is
   the coordinator context and [Stats] returns the merged cluster view.
   The serving tier's own [net.*] counters live in the event loop's
   context and merge into the same snapshot, exactly as for a node
   server — so a load generator's [--strict] reconciliation works
   unchanged against a cluster.

   The coordinator-internal tags are not entry points here: a client of
   the cluster speaks lines, and the coordinator speaks {!Protocol} to
   the node tier on its own connections. *)
let coordinator_backend ?key_domain ?injector ?(on_kill = fun _ -> ())
    ?(spawn_replica = fun _ -> None) ~links:mk_links () ctx =
  let coord =
    Coordinator.create ~ctx ?key_domain ?injector ~on_kill ~spawn_replica
      ~links:(mk_links ()) ()
  in
  let resp_of (r : Coordinator.result) =
    if r.Coordinator.ok then Protocol.Output r.Coordinator.output
    else if r.Coordinator.aborted then Protocol.Aborted r.Coordinator.output
    else Protocol.Failed r.Coordinator.output
  in
  let exec_line ~client line =
    match Coordinator.exec_client coord ~client line with
    | `Done r -> `Resp (resp_of r)
    | `Park _ -> `Park
  in
  (* A script runs on behalf of its connection, inside its transaction
     if it has one open. *)
  let exec_script ~client script =
    let exec line =
      match Coordinator.exec_client coord ~client line with
      | `Done r when r.Coordinator.ok -> Dbproc_lang.Interp.O_ok r.Coordinator.output
      | `Done r -> Dbproc_lang.Interp.O_error r.Coordinator.output
      | `Park holders -> Dbproc_lang.Interp.O_blocked holders
    in
    match Dbproc_lang.Interp.run_script exec script with
    | Ok out -> Protocol.Output out
    | Error msg -> Protocol.Failed msg
  in
  let b_request ~client (req : Protocol.request) =
    match req with
    | Protocol.Ping -> `Resp Protocol.Pong
    | Protocol.Exec_line line -> exec_line ~client line
    (* transaction control rides the same per-client line path, exactly
       as on a single node — [begin] opens a distributed transaction *)
    | Protocol.Begin -> exec_line ~client "begin"
    | Protocol.Commit -> exec_line ~client "commit"
    | Protocol.Abort -> exec_line ~client "abort"
    | Protocol.Exec_script script -> `Resp (exec_script ~client script)
    | Protocol.Stats | Protocol.Shutdown ->
      `Resp (Protocol.Failed "handled by the event loop")
    | Protocol.Fetch _ | Protocol.Join_probe _ | Protocol.Wal_pull _
    | Protocol.Wal_push _ | Protocol.Promote | Protocol.Txn_exec _
    | Protocol.Txn_prepare _ | Protocol.Txn_commit _ | Protocol.Txn_abort _ ->
      `Resp (Protocol.Failed "node-tier request sent to a coordinator")
  in
  {
    Server.b_request;
    b_disconnect = (fun ~client -> Coordinator.disconnect_client coord ~client);
    b_snapshot = (fun () -> Coordinator.snapshot coord);
    b_sim_ms = (fun () -> Coordinator.sim_ms coord);
  }

let serve_config ?(config = Server.default_config) () =
  (* One shard: one coordinator, one scratch binder, one route table. *)
  { config with Server.shards = 1 }
