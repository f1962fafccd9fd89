(** A non-blocking [Unix.select] event-loop server exposing the
    procedure engine over {!Protocol}.

    One event-loop thread owns every socket and the server's own
    observability context (the [net.*] counters); engine work runs on
    [shards] session shards — each shard is one OCaml domain owning one
    {!Dbproc_lang.Interp} session bound to its own
    {!Dbproc_obs.Ctx.t}.  Connections are assigned to a shard when
    accepted (round-robin on the accept index) and every request from
    that connection executes on that shard, in arrival order, so each
    shard's session evolves deterministically: the same frames over one
    connection produce the same outputs as feeding the same lines to a
    local interpreter.

    Flow control:
    - at most [max_conns] connections; beyond that an accept is answered
      with a {!Protocol.Rejected} frame (id 0) and closed;
    - at most [max_inflight] requests executing or queued on shards;
      beyond that requests get {!Protocol.Rejected} instead of queueing;
    - a connection with [conn_inflight] unanswered requests, or more than
      [max_buffered_out] bytes of pending responses, stops being read
      until it drains (pipelining backpressure);
    - connections idle longer than [idle_timeout] seconds (no bytes, no
      in-flight work) are closed;
    - malformed frames poison the connection: one final
      {!Protocol.Failed} frame (id 0) is sent and the connection is
      closed, counted under [net.frames_bad].

    Shutdown ({!shutdown}, SIGINT/SIGTERM in [procsim serve], or a
    {!Protocol.Shutdown} request) drains gracefully: the listener closes,
    new requests are rejected, in-flight work finishes and flushes, then
    shards are joined.  Connections that cannot be flushed within
    [drain_grace] seconds are force-closed. *)

type config = {
  host : string;
  port : int;  (** [0] picks an ephemeral port — read it back with {!port} *)
  shards : int;
  max_conns : int;
  max_inflight : int;
  conn_inflight : int;
  max_buffered_out : int;
  idle_timeout : float;  (** seconds; [<= 0.] disables *)
  drain_grace : float;  (** seconds to flush on shutdown *)
  max_frame : int;
  trace : bool;  (** enable span tracing on every shard context *)
  plan_cache : bool;  (** per-shard statement cache (on by default) *)
}

val default_config : config
(** 127.0.0.1:7411, 2 shards, 64 connections, 256 in flight (32 per
    connection), 1 MiB write buffer and frame cap, 30 s idle timeout,
    5 s drain grace, tracing off. *)

type backend = {
  b_request :
    client:int -> Protocol.request -> [ `Resp of Protocol.response | `Park ];
      (** Serve one request on behalf of connection [client].  [`Park]
          means the statement blocked on another connection's transaction
          before executing anything; the event loop re-queues it after
          the next completion on the same shard. *)
  b_disconnect : client:int -> unit;
      (** Connection closed: abort its open transaction, if any. *)
  b_snapshot : unit -> Dbproc_obs.Ctx.t;
      (** A {e private copy} of the shard's observability state, safe for
          the event loop to read while the shard keeps charging. *)
  b_sim_ms : unit -> float;
      (** Simulated-milliseconds clock, sampled around each request for
          the [net.request.sim_ms] histogram. *)
}
(** What a shard domain hosts.  The default backend wraps a {!Node.t}
    (interpreter session + replication machinery) and answers through
    {!Node.handle}; a cluster coordinator front-end plugs in its own. *)

val node_backend : plan_cache:bool -> Dbproc_obs.Ctx.t -> backend
(** The default backend factory, exposed so wrappers can delegate. *)

type t

val create : ?config:config -> ?backend:(Dbproc_obs.Ctx.t -> backend) -> unit -> t
(** Bind and listen (does not accept yet).  [backend] is called once per
    shard, in that shard's domain, with the shard's fresh context
    (default: {!node_backend} with the config's [plan_cache]).  Raises
    [Unix.Unix_error] if the address is unavailable. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val run : t -> unit
(** Serve until {!shutdown} is called or a {!Protocol.Shutdown} request
    arrives, then drain and return.  Spawns the shard domains; they are
    joined before returning. *)

val shutdown : t -> unit
(** Request a graceful drain.  Callable from any thread, domain or signal
    handler. *)
