open Dbproc_obs
module Chan = Dbproc_workload.Parallel.Chan

type config = {
  host : string;
  port : int;
  shards : int;
  max_conns : int;
  max_inflight : int;
  conn_inflight : int;
  max_buffered_out : int;
  idle_timeout : float;
  drain_grace : float;
  max_frame : int;
  trace : bool;
  plan_cache : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7411;
    shards = 2;
    max_conns = 64;
    max_inflight = 256;
    conn_inflight = 32;
    max_buffered_out = 1 lsl 20;
    idle_timeout = 30.0;
    drain_grace = 5.0;
    max_frame = Protocol.max_frame_default;
    trace = false;
    plan_cache = true;
  }

(* Deliver one whole small frame on a socket that is about to be closed.
   The fd is nonblocking, so a single [write] may land short and the peer
   would decode a truncated frame; loop until every byte is out, retrying
   EINTR and waiting (bounded) for writability on EAGAIN.  Gives up after
   [max_waits] waits or on any hard error — the peer is gone, and the
   caller closes the fd either way. *)
let write_frame_before_close ?(max_waits = 50) fd s =
  let len = String.length s in
  let waits = ref 0 in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if !waits < max_waits then begin
          incr waits;
          (match Unix.select [] [ fd ] [] 0.02 with
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off
        end
      | exception Unix.Unix_error _ -> ()
  in
  go 0

(* ------------------------------------------------------------ backends *)

type backend = {
  b_request :
    client:int -> Protocol.request -> [ `Resp of Protocol.response | `Park ];
  b_disconnect : client:int -> unit;
  b_snapshot : unit -> Ctx.t;
  b_sim_ms : unit -> float;
}

(* The default backend: one {!Node.t} per shard — an interpreter session
   plus the replication machinery, so any node server can act as a
   cluster primary or replica with no extra configuration.  The node
   answers every request; a statement that blocked on local contention
   parks. *)
let node_backend ~plan_cache ctx =
  let node = Node.create ~ctx ~plan_cache () in
  {
    b_request =
      (fun ~client req ->
        match Node.handle node ~client req with
        | `Resp resp -> `Resp resp
        | `Park _ -> `Park);
    b_disconnect = (fun ~client -> Node.disconnect node ~client);
    b_snapshot =
      (fun () ->
        let copy = Ctx.create () in
        Ctx.merge_into ~into:copy ctx;
        copy);
    b_sim_ms = (fun () -> Node.sim_ms node);
  }

(* ------------------------------------------------------- shard workers *)

type work = W_req of Protocol.request

type job =
  | Exec of { conn_id : int; req_id : int; work : work }
  | Snapshot of { conn_id : int; req_id : int }
  | Disconnect of { conn_id : int }
  | Quit

type completion =
  | Done of { conn_id : int; req_id : int; resp : Protocol.response }
  | Parked of { conn_id : int; req_id : int; work : work }
      (** the statement blocked on another connection's transaction before
          executing anything — the event loop re-queues it after the next
          completion on the same shard instead of stalling the shard *)
  | Freed of { conn_id : int }
      (** a disconnect cleanup ran (any open transaction was aborted, its
          locks released) — parked requests should be retried *)
  | Snap of { conn_id : int; req_id : int; ctx : Ctx.t }

(* One shard = one domain owning one backend and one engine context.
   Jobs arrive FIFO, so the backend — and therefore every response — is a
   deterministic function of the job sequence.  The shard never touches a
   socket; it talks to the event loop only through the two channels and
   the wake callback.

   Requests execute on behalf of the connection, so each connection gets
   its own transaction state in the shard's shared backend.  A blocked
   statement has executed nothing (locks come first) and is parked —
   [`Park] — to be retried verbatim; the shard itself never waits. *)
let shard_worker ~trace ~make_backend ~jobs ~completions ~wake () =
  let ctx = Ctx.create () in
  if trace then Trace.set_enabled (Ctx.trace ctx) true;
  let b : backend = make_backend ctx in
  let request_ms = Histogram.named (Ctx.histograms ctx) "net.request.sim_ms" in
  let exec ~conn_id (W_req req) =
    match b.b_request ~client:conn_id req with
    | result -> result
    | exception e -> `Resp (Protocol.Failed ("internal error: " ^ Printexc.to_string e))
  in
  let rec loop () =
    match Chan.pop jobs with
    | Quit -> ()
    | Snapshot { conn_id; req_id } ->
      (* The backend hands the event loop a private copy so it never
         reads a context a shard domain is still charging. *)
      Chan.push completions (Snap { conn_id; req_id; ctx = b.b_snapshot () });
      wake ();
      loop ()
    | Disconnect { conn_id } ->
      b.b_disconnect ~client:conn_id;
      Chan.push completions (Freed { conn_id });
      wake ();
      loop ()
    | Exec { conn_id; req_id; work } ->
      let t0 = b.b_sim_ms () in
      let result =
        Trace.with_span (Ctx.trace ctx) "net.request" (fun () -> exec ~conn_id work)
      in
      Histogram.observe request_ms (b.b_sim_ms () -. t0);
      (match result with
      | `Resp resp -> Chan.push completions (Done { conn_id; req_id; resp })
      | `Park -> Chan.push completions (Parked { conn_id; req_id; work }));
      wake ();
      loop ()
  in
  loop ()

(* ---------------------------------------------------------- connections *)

type conn = {
  fd : Unix.file_descr;
  conn_id : int;
  shard : int;
  dec : Protocol.Decoder.t;
  out : Buffer.t;
  mutable out_pos : int;  (** consumed prefix of [out] *)
  mutable inflight : int;
  mutable last_activity : float;
  mutable closing : bool;  (** flush pending output, then close *)
  mutable drop_responses : bool;  (** poisoned: discard late shard replies *)
}

let pending_out c = Buffer.length c.out - c.out_pos

(* ---------------------------------------------------------------- server *)

type t = {
  config : config;
  backend : Ctx.t -> backend;
  listen_fd : Unix.file_descr;
  bound_port : int;
  sctx : Ctx.t;
  stop : bool Atomic.t;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  completions : completion Chan.t;
}

let port t = t.bound_port

let resolve host port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  with
  | { Unix.ai_addr; _ } :: _ -> ai_addr
  | [] | (exception _) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let create ?(config = default_config) ?backend () =
  if config.shards < 1 then invalid_arg "Server.create: shards must be >= 1";
  let backend =
    match backend with
    | Some b -> b
    | None -> node_backend ~plan_cache:config.plan_cache
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = resolve config.host config.port in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  {
    config;
    backend;
    listen_fd = fd;
    bound_port;
    sctx = Ctx.create ();
    stop = Atomic.make false;
    wake_rd;
    wake_wr;
    completions = Chan.create ();
  }

let wake_byte = Bytes.make 1 '!'

let wake t () =
  try ignore (Unix.write t.wake_wr wake_byte 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
  -> ()

let shutdown t =
  Atomic.set t.stop true;
  wake t ()

let run t =
  let cfg = t.config in
  let m = Ctx.metrics t.sctx in
  (* shards *)
  let shard_jobs = Array.init cfg.shards (fun _ -> Chan.create ()) in
  let shard_domains =
    Array.map
      (fun jobs ->
        Domain.spawn
          (shard_worker ~trace:cfg.trace ~make_backend:t.backend ~jobs
             ~completions:t.completions ~wake:(wake t)))
      shard_jobs
  in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  (* stats fan-out in progress: (conn_id, req_id) -> (#replies, accumulator) *)
  let pending_stats : (int * int, int ref * Ctx.t) Hashtbl.t = Hashtbl.create 4 in
  (* per-shard FIFO of lock-blocked requests waiting to be retried *)
  let parked_q : (int * int * work) Queue.t array =
    Array.init cfg.shards (fun _ -> Queue.create ())
  in
  let conn_counter = ref 0 in
  let global_inflight = ref 0 in
  let draining = ref false in
  let listen_open = ref true in
  let drain_started = ref 0.0 in
  let rbuf = Bytes.create 65536 in

  let respond c ~id resp =
    if not c.drop_responses then Protocol.write_response c.out ~id resp
  in
  let close_conn c =
    Hashtbl.remove conns c.conn_id;
    (* drop its parked requests (their in-flight slots with them) and tell
       the shard to abort any open transaction so its locks release *)
    let q = parked_q.(c.shard) in
    let n = Queue.length q in
    for _ = 1 to n do
      let ((cid, _, _) as entry) = Queue.pop q in
      if cid = c.conn_id then decr global_inflight else Queue.push entry q
    done;
    Chan.push shard_jobs.(c.shard) (Disconnect { conn_id = c.conn_id });
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  (* Retry every request parked on a shard: a completion there may mean a
     commit, abort or disconnect released locks.  A retry that blocks
     again simply re-parks (counted each time), so there is no spinning —
     retries are driven by completions, never by the clock. *)
  let retry_parked shard =
    let q = parked_q.(shard) in
    let n = Queue.length q in
    for _ = 1 to n do
      let conn_id, req_id, work = Queue.pop q in
      if Hashtbl.mem conns conn_id then
        Chan.push shard_jobs.(shard) (Exec { conn_id; req_id; work })
      else decr global_inflight
    done
  in
  let begin_drain () =
    if not !draining then begin
      draining := true;
      drain_started := Unix.gettimeofday ();
      if !listen_open then begin
        listen_open := false;
        try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
      end
    end
  in

  let dispatch c ~id (req : Protocol.request) =
    Metrics.incr m Metrics.Net_requests;
    let admit work =
      if !draining then begin
        Metrics.incr m Metrics.Net_rejected;
        respond c ~id (Protocol.Rejected "server draining")
      end
      else if !global_inflight >= cfg.max_inflight then begin
        Metrics.incr m Metrics.Net_rejected;
        respond c ~id (Protocol.Rejected "server busy (in-flight limit)")
      end
      else begin
        incr global_inflight;
        c.inflight <- c.inflight + 1;
        Chan.push shard_jobs.(c.shard) (Exec { conn_id = c.conn_id; req_id = id; work })
      end
    in
    match req with
    | Protocol.Stats ->
      Hashtbl.replace pending_stats (c.conn_id, id) (ref 0, Ctx.create ());
      Array.iter
        (fun jobs -> Chan.push jobs (Snapshot { conn_id = c.conn_id; req_id = id }))
        shard_jobs
    | Protocol.Shutdown ->
      respond c ~id (Protocol.Output "draining");
      begin_drain ()
    | req -> admit (W_req req)
  in

  let poison_conn c msg =
    Metrics.incr m Metrics.Net_frames_bad;
    respond c ~id:0 (Protocol.Failed ("protocol error: " ^ msg));
    c.closing <- true;
    c.drop_responses <- true
  in

  let process_input c =
    let rec go () =
      match Protocol.Decoder.next_request c.dec with
      | Protocol.Awaiting -> ()
      | Protocol.Corrupt msg -> if not c.drop_responses then poison_conn c msg
      | Protocol.Msg (id, req) ->
        dispatch c ~id req;
        go ()
    in
    go ()
  in

  let read_conn c =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
      (* EOF mid-frame is a truncated frame; on a boundary it is a clean
         close. *)
      if Protocol.Decoder.buffered c.dec > 0 then
        Metrics.incr m Metrics.Net_frames_bad;
      close_conn c
    | n ->
      Metrics.incr ~n m Metrics.Net_bytes_in;
      c.last_activity <- Unix.gettimeofday ();
      Protocol.Decoder.feed c.dec rbuf ~off:0 ~len:n;
      process_input c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in

  let write_conn c =
    let avail = pending_out c in
    if avail > 0 then begin
      let chunk = min avail 65536 in
      let s = Buffer.sub c.out c.out_pos chunk in
      match Unix.write_substring c.fd s 0 chunk with
      | n ->
        Metrics.incr ~n m Metrics.Net_bytes_out;
        c.out_pos <- c.out_pos + n;
        c.last_activity <- Unix.gettimeofday ();
        if c.out_pos = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_pos <- 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_conn c
    end
  in

  let accept_loop () =
    let rec go () =
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _addr ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        if Hashtbl.length conns >= cfg.max_conns then begin
          Metrics.incr m Metrics.Net_rejected;
          let s = Protocol.response_to_string ~id:0 (Protocol.Rejected "too many connections") in
          write_frame_before_close fd s;
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          Metrics.incr m Metrics.Net_accepted;
          let conn_id = !conn_counter in
          incr conn_counter;
          let c =
            {
              fd;
              conn_id;
              shard = conn_id mod cfg.shards;
              dec = Protocol.Decoder.create ~max_frame:cfg.max_frame ();
              out = Buffer.create 1024;
              out_pos = 0;
              inflight = 0;
              last_activity = Unix.gettimeofday ();
              closing = false;
              drop_responses = false;
            }
          in
          Hashtbl.replace conns conn_id c
        end;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in

  let finish_stats key (acc : Ctx.t) =
    let conn_id, req_id = fst key, snd key in
    (* Server-side counters join the shard merge last, as of now. *)
    Ctx.merge_into ~into:acc t.sctx;
    let body =
      Export.to_string
        (Export.snapshot
           ~extra:
             [
               ("shards", Export.Int cfg.shards);
               ("connections", Export.Int (Hashtbl.length conns));
               ("draining", Export.Bool !draining);
             ]
           acc)
    in
    match Hashtbl.find_opt conns conn_id with
    | Some c -> respond c ~id:req_id (Protocol.Output body)
    | None -> ()
  in

  let drain_completions () =
    let rec go () =
      match Chan.try_pop t.completions with
      | None -> ()
      | Some (Done { conn_id; req_id; resp }) ->
        decr global_inflight;
        (match Hashtbl.find_opt conns conn_id with
        | Some c ->
          c.inflight <- c.inflight - 1;
          Metrics.incr m Metrics.Net_requests_served;
          respond c ~id:req_id resp
        | None -> ());
        (* the finished request may have released locks *)
        retry_parked (conn_id mod cfg.shards);
        go ()
      | Some (Parked { conn_id; req_id; work }) ->
        Metrics.incr m Metrics.Net_parked;
        (match Hashtbl.find_opt conns conn_id with
        | Some c -> Queue.push (conn_id, req_id, work) parked_q.(c.shard)
        | None ->
          (* connection died while its request was in flight; the queued
             Disconnect job will release any locks *)
          decr global_inflight);
        go ()
      | Some (Freed { conn_id }) ->
        retry_parked (conn_id mod cfg.shards);
        go ()
      | Some (Snap { conn_id; req_id; ctx = shard_ctx }) ->
        (match Hashtbl.find_opt pending_stats (conn_id, req_id) with
        | None -> ()
        | Some (count, acc) ->
          Ctx.merge_into ~into:acc shard_ctx;
          incr count;
          if !count = cfg.shards then begin
            Hashtbl.remove pending_stats (conn_id, req_id);
            finish_stats (conn_id, req_id) acc
          end);
        go ()
    in
    go ()
  in

  let drain_wake_pipe () =
    let b = Bytes.create 256 in
    let rec go () =
      match Unix.read t.wake_rd b 0 256 with
      | 256 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
    in
    go ()
  in

  let all_flushed () =
    Hashtbl.fold (fun _ c acc -> acc && pending_out c = 0) conns true
  in

  let finished () =
    !draining && !global_inflight = 0 && Hashtbl.length pending_stats = 0
    && all_flushed ()
  in

  let rec loop () =
    if Atomic.get t.stop then begin_drain ();
    if not (finished ()) then begin
      let now = Unix.gettimeofday () in
      (* idle timeout: no traffic and nothing in flight *)
      if cfg.idle_timeout > 0.0 then begin
        let victims =
          Hashtbl.fold
            (fun _ c acc ->
              if
                c.inflight = 0 && pending_out c = 0
                && now -. c.last_activity > cfg.idle_timeout
              then c :: acc
              else acc)
            conns []
        in
        List.iter close_conn victims
      end;
      (* drain grace: force-close connections we cannot flush *)
      if !draining && now -. !drain_started > cfg.drain_grace then begin
        let victims = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
        List.iter close_conn victims
      end;
      let reads =
        Hashtbl.fold
          (fun _ c acc ->
            if
              (not c.closing)
              && c.inflight < cfg.conn_inflight
              && pending_out c <= cfg.max_buffered_out
            then c.fd :: acc
            else acc)
          conns []
      in
      let reads = if !listen_open then t.listen_fd :: reads else reads in
      let reads = t.wake_rd :: reads in
      let writes =
        Hashtbl.fold
          (fun _ c acc -> if pending_out c > 0 then c.fd :: acc else acc)
          conns []
      in
      let readable, writable, _ =
        match Unix.select reads writes [] 0.25 with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem t.wake_rd readable then drain_wake_pipe ();
      drain_completions ();
      if !listen_open && List.mem t.listen_fd readable then accept_loop ();
      (* snapshot the table: handlers mutate it *)
      let by_fd fd =
        Hashtbl.fold
          (fun _ c acc -> match acc with Some _ -> acc | None -> if c.fd = fd then Some c else None)
          conns None
      in
      List.iter
        (fun fd ->
          if fd <> t.wake_rd && (not !listen_open || fd <> t.listen_fd) then
            match by_fd fd with Some c -> read_conn c | None -> ())
        readable;
      List.iter
        (fun fd -> match by_fd fd with Some c -> write_conn c | None -> ())
        writable;
      (* close flushed connections marked for closing *)
      let victims =
        Hashtbl.fold
          (fun _ c acc ->
            if c.closing && pending_out c = 0 && c.inflight = 0 then c :: acc
            else acc)
          conns []
      in
      List.iter close_conn victims;
      loop ()
    end
  in
  (try loop ()
   with e ->
     (* Tear down shards before re-raising so domains never leak. *)
     Array.iter (fun jobs -> Chan.push jobs Quit) shard_jobs;
     Array.iter Domain.join shard_domains;
     raise e);
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  Array.iter (fun jobs -> Chan.push jobs Quit) shard_jobs;
  Array.iter Domain.join shard_domains;
  if !listen_open then (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_rd with Unix.Unix_error _ -> ());
  try Unix.close t.wake_wr with Unix.Unix_error _ -> ()
