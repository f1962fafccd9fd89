(** The wire protocol: length-prefixed frames carrying tagged requests
    and responses.

    Every message is one frame:

    {v
      +------------------+---------------------------------------+
      | u32 BE  length   | payload (exactly [length] bytes)      |
      +------------------+---------------------------------------+
      payload = | u32 BE request id | u8 tag | body ... |
    v}

    [length] counts the payload only, and a well-formed payload is at
    least 5 bytes (id + tag).  Request and response tags live in disjoint
    ranges so a stream fed to the wrong-side decoder is rejected rather
    than misread.  Bodies are raw bytes (the language is line-oriented
    ASCII/UTF-8; the protocol itself is 8-bit clean).

    The decoder is incremental and strict: bytes arrive in arbitrary
    chunks, complete frames are handed out one at a time, and any
    malformed input — a frame shorter than 5 bytes, longer than
    [max_frame], an unknown tag, a body on a body-less tag — poisons the
    decoder with a clean error instead of raising.  Framing cannot be
    resynchronized after corruption, so a poisoned decoder stays
    poisoned; the connection must be dropped. *)

type request =
  | Ping  (** liveness probe, answered by {!Pong} *)
  | Exec_line of string  (** one shell command for the shard's session *)
  | Exec_script of string  (** a whole script, one command per line *)
  | Stats  (** merged observability snapshot as JSON *)
  | Shutdown  (** ask the server to drain gracefully and exit *)
  | Begin  (** open an explicit transaction on this connection *)
  | Commit  (** commit the connection's transaction *)
  | Abort  (** roll the connection's transaction back *)
  | Fetch of string
      (** coordinator-facing: execute a [retrieve]/[exec] line and reply
          {!Tuples} — raw result tuples instead of formatted output, so
          partitions can be merged ({!Wire} defines the body format) *)
  | Join_probe of string
      (** coordinator-facing semijoin probe: a local retrieve plus a
          shipped key set; the node replies {!Tuples} restricted to
          tuples whose join attribute is in the set *)
  | Wal_pull of string
      (** coordinator-facing: body is a decimal LSN; the primary replies
          {!Wal_records} with its replication-log tail from that LSN *)
  | Wal_push of string
      (** coordinator-facing: shipped replication records for a replica's
          received log (idempotent by LSN) *)
  | Promote
      (** coordinator-facing: a replica replays its received log and
          becomes a primary *)
  | Txn_exec of string
      (** coordinator-facing 2PC: body is ["<gtid> <line>"] — execute
          [line] on this node under distributed transaction [gtid],
          opening the local branch lazily on first touch.  Retrieves
          reply {!Tuples}; mutations reply {!Output}; lock conflicts
          reply {!Blocked} *)
  | Txn_prepare of string
      (** coordinator-facing 2PC phase one: body is the gtid; the node
          votes yes ({!Output} ["prepared"], decision-logged) iff the
          local branch is still live, else {!Failed} *)
  | Txn_commit of string
      (** coordinator-facing 2PC phase two: commit the local branch,
          decision-log it, and re-log its statements for replication *)
  | Txn_abort of string
      (** coordinator-facing 2PC: roll the local branch back (presumed
          abort — unknown gtids succeed trivially) *)

type response =
  | Pong
  | Output of string  (** successful execution output *)
  | Failed of string  (** command-level error (parse / runtime) *)
  | Rejected of string
      (** admission control: connection or in-flight limit, or draining *)
  | Aborted of string
      (** the connection's transaction was aborted as a deadlock victim
          and rolled back; the request did not execute *)
  | Tuples of string
      (** raw result tuples for {!Fetch}/{!Join_probe} ({!Wire} format:
          a simulated-ms line, then one serialized tuple per line) *)
  | Wal_records of string
      (** replication-log tail for {!Wal_pull}: LSN-stamped statement
          records, one per line *)
  | Blocked of string
      (** the statement blocked on locks held by concurrent transactions;
          body is a space-separated list of holder gtids ([-1] for a
          holder with no global id).  The statement did not execute and
          may be retried *)

val max_frame_default : int
(** Default frame-size cap, 1 MiB — bounds decoder memory per
    connection. *)

val response_tag : response -> int

(** {2 Encoding}

    Ids are masked to 32 bits.  Encoders append one complete frame to the
    buffer. *)

val write_request : Buffer.t -> id:int -> request -> unit
val write_response : Buffer.t -> id:int -> response -> unit

val request_to_string : id:int -> request -> string
val response_to_string : id:int -> response -> string

(** {2 Decoding} *)

type 'a next =
  | Msg of int * 'a  (** a complete, well-formed message: (id, message) *)
  | Awaiting  (** no complete frame buffered yet — feed more bytes *)
  | Corrupt of string
      (** the stream is malformed; the decoder is poisoned and every
          subsequent call returns the same error *)

module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] caps the payload length field (default
      {!max_frame_default}); anything larger is rejected without
      buffering it. *)

  val feed : t -> bytes -> off:int -> len:int -> unit
  (** Append a chunk of raw bytes.  Never fails; validation happens in
      {!next_request}/{!next_response}. *)

  val feed_string : t -> string -> unit

  val next_request : t -> request next
  (** Decode the next buffered frame as a request. *)

  val next_response : t -> response next
  (** Decode the next buffered frame as a response. *)

  val corrupt : t -> string option
  (** The poisoning error, if any. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by a decoded frame.  [0] means the
      stream ends on a clean frame boundary — an EOF with [buffered > 0]
      is a truncated frame. *)
end
