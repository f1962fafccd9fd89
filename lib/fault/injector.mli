(** Deterministic, seed-driven fault injection over the simulated disk.

    An injector installs itself as the {!Dbproc_storage.Io.set_touch_hook}
    of an I/O layer and then sees every {e charged} page touch — and only
    those: touches deduplicated by [with_touch_dedup], served by the buffer
    pool, or issued under [Cost.with_disabled] never reach it.  Per touch it
    can inject two kinds of fault:

    - {b transient failures}: with [read_fail_prob]/[write_fail_prob] the
      touch fails at the device and is re-issued until it succeeds.  Every
      re-issue is charged one [C2] on the paper's simulated clock — that
      charge {e is} the retry's simulated time — and an exponential-backoff
      sample (capped, base doubling per attempt) is recorded in the
      ["fault.backoff_ms"] histogram.  Counters: ["fault.injected"] per
      failure, ["fault.retries"] per re-issue.
    - {b crashes}: a schedule of absolute touch counts; when the running
      touch counter reaches the next point, {!Crash} is raised {e before}
      the touch is charged (a torn write: the page never made it).  Each
      point fires once.  Counter: ["fault.crashes"].

    Both draws come from a private SplitMix64 stream, so a given
    [(seed, config, schedule)] triple replays exactly, independent of the
    workload's own randomness. *)

type config = {
  read_fail_prob : float;  (** per-read failure probability, in [[0, 1)] *)
  write_fail_prob : float;  (** per-write failure probability, in [[0, 1)] *)
  backoff_base_ms : float;  (** backoff after the first failure *)
  backoff_cap_ms : float;  (** backoff ceiling *)
}

val no_faults : config
(** Zero failure probabilities: the injector still counts touches and obeys
    its crash schedule, but injects no transient faults.  Installing it
    must cause zero cost drift — the bench's [ablation-faults] checks. *)

val default_config : config
(** 2% read and write failure probability, 1 ms base backoff, 1024 ms cap. *)

exception Crash of { touch : int }
(** Raised at a scheduled crash point, before the touch is charged.
    [touch] is the value of the touch counter when it fired. *)

type t

val create : ?config:config -> seed:int -> unit -> t
(** Fresh injector with its own PRNG stream.  [config] defaults to
    {!default_config}.
    @raise Invalid_argument if a probability is outside [[0, 1)]. *)

val install : t -> Dbproc_storage.Io.t -> unit
(** Hook the injector into an I/O layer (replacing any previous hook). *)

val uninstall : Dbproc_storage.Io.t -> unit
(** Remove whatever hook is installed. *)

val schedule_crashes : t -> int list -> unit
(** Replace the crash schedule.  Points are absolute charged-touch counts;
    duplicates and points at or below the current counter are dropped. *)

val touches : t -> int
(** Charged touches seen so far (including re-issued retries). *)

val injected : t -> int
(** Transient failures injected. *)

val retries : t -> int
(** Re-issues attempted (equals {!injected} unless a crash point cut a
    retry loop short). *)

val crashes : t -> int
(** Crash points fired. *)

(** {2 Node kills}

    Whole-node failures for the cluster layer.  These run on a separate
    logical clock — operations routed by a {!Dbproc_net.Coordinator}
    rather than page touches — because the unit being killed is a node
    process, not a device.  The coordinator calls {!note_op} once per
    routed statement; when the counter reaches the next scheduled point
    the kill fires (once) and the coordinator takes the node down and
    fails over to its replica. *)

type node_kill = { node : int; at_op : int }
(** Kill [node] when the routed-operation counter reaches [at_op]
    (1-based: [at_op = 1] fires on the first operation). *)

val schedule_node_kills : t -> node_kill list -> unit
(** Replace the node-kill schedule.  Points are absolute operation
    counts; duplicates and points at or below the current counter are
    dropped.  At most one kill fires per operation. *)

val note_op : ?metrics:Dbproc_obs.Metrics.t -> t -> int option
(** Count one routed operation; [Some node] when a scheduled kill fires
    (counted as ["fault.node_kills"] in [metrics] when given). *)

val ops : t -> int
(** Routed operations counted so far. *)

val node_kills : t -> int
(** Node kills fired (including 2PC-window kills). *)

(** {2 2PC-window kills}

    Kill points inside the two-phase-commit window, on a third logical
    clock: distributed commit rounds.  The coordinator calls
    {!note_2pc}[ ~phase:`Prepare] when it enters phase one of a commit
    (which advances the round counter) and [~phase:`Commit] after the
    commit decision is logged but before the commit fan-out — so a
    [`Prepare] kill loses a participant before it can vote (the
    transaction aborts globally) and a [`Commit] kill opens the classic
    in-doubt window (the decision log must drive the promoted replica to
    the committed state). *)

type txn_phase = [ `Prepare | `Commit ]

type txn_kill = { tk_node : int; phase : txn_phase; at_commit : int }
(** Kill [tk_node] when commit round [at_commit] (1-based) reaches
    [phase]. *)

val schedule_txn_kills : t -> txn_kill list -> unit
(** Replace the 2PC kill schedule.  Duplicates and rounds at or below
    the current counter are dropped; at most one kill fires per phase
    entry. *)

val note_2pc :
  ?metrics:Dbproc_obs.Metrics.t -> t -> phase:txn_phase -> int option
(** Note a 2PC phase entry; [Some node] when a scheduled kill fires
    (counted as ["fault.node_kills"] in [metrics] when given). *)
