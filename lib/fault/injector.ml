module Prng = Dbproc_util.Prng
module Cost = Dbproc_storage.Cost
module Io = Dbproc_storage.Io
module Metrics = Dbproc_obs.Metrics
module Histogram = Dbproc_obs.Histogram

type config = {
  read_fail_prob : float;
  write_fail_prob : float;
  backoff_base_ms : float;
  backoff_cap_ms : float;
}

let no_faults =
  {
    read_fail_prob = 0.0;
    write_fail_prob = 0.0;
    backoff_base_ms = 1.0;
    backoff_cap_ms = 1024.0;
  }

let default_config =
  { no_faults with read_fail_prob = 0.02; write_fail_prob = 0.02 }

exception Crash of { touch : int }

type node_kill = { node : int; at_op : int }

type txn_phase = [ `Prepare | `Commit ]

type txn_kill = { tk_node : int; phase : txn_phase; at_commit : int }

type t = {
  config : config;
  prng : Prng.t;
  mutable crash_points : int list; (* ascending, each consumed once *)
  mutable touches : int;
  mutable injected : int;
  mutable retries : int;
  mutable crashes : int;
  mutable kill_points : node_kill list; (* ascending by at_op, each once *)
  mutable ops : int;
  mutable node_kills : int;
  mutable txn_kill_points : txn_kill list; (* each consumed once *)
  mutable commit_rounds : int;
}

let create ?(config = default_config) ~seed () =
  if
    config.read_fail_prob < 0.0
    || config.read_fail_prob >= 1.0
    || config.write_fail_prob < 0.0
    || config.write_fail_prob >= 1.0
  then invalid_arg "Injector.create: fail probabilities must be in [0, 1)";
  {
    config;
    prng = Prng.create seed;
    crash_points = [];
    touches = 0;
    injected = 0;
    retries = 0;
    crashes = 0;
    kill_points = [];
    ops = 0;
    node_kills = 0;
    txn_kill_points = [];
    commit_rounds = 0;
  }

let schedule_crashes t points =
  t.crash_points <-
    List.sort_uniq compare (List.filter (fun p -> p > t.touches) points)

let touches t = t.touches
let injected t = t.injected
let retries t = t.retries
let crashes t = t.crashes

(* Node kills are scheduled on a separate logical clock — coordinator-routed
   operations rather than page touches — because the thing being killed is
   a whole node process, not a device.  Same determinism contract as the
   crash schedule: absolute points, each fires once, stale points dropped. *)
let schedule_node_kills t kills =
  t.kill_points <-
    List.sort_uniq compare (List.filter (fun k -> k.at_op > t.ops) kills)

let note_op ?metrics t =
  t.ops <- t.ops + 1;
  match t.kill_points with
  | k :: rest when t.ops >= k.at_op ->
    t.kill_points <- rest;
    t.node_kills <- t.node_kills + 1;
    (match metrics with
    | Some m -> Metrics.incr m Metrics.Fault_node_kills
    | None -> ());
    Some k.node
  | _ -> None

let ops t = t.ops
let node_kills t = t.node_kills

(* 2PC-window kills run on a third clock: distributed commit rounds.  A
   round starts when the coordinator enters phase one; [`Prepare] points
   fire there (before any prepare is sent), [`Commit] points fire after
   the commit decision is logged but before the commit fan-out — the
   classic in-doubt window. *)
let schedule_txn_kills t kills =
  t.txn_kill_points <-
    List.sort_uniq compare (List.filter (fun k -> k.at_commit > t.commit_rounds) kills)

let note_2pc ?metrics t ~(phase : txn_phase) =
  (match phase with `Prepare -> t.commit_rounds <- t.commit_rounds + 1 | `Commit -> ());
  let fires, rest =
    List.partition
      (fun k -> k.phase = phase && k.at_commit <= t.commit_rounds)
      t.txn_kill_points
  in
  match fires with
  | [] -> None
  | k :: dropped ->
    (* at most one kill per phase entry; later duplicates are dropped *)
    ignore dropped;
    t.txn_kill_points <- rest;
    t.node_kills <- t.node_kills + 1;
    (match metrics with
    | Some m -> Metrics.incr m Metrics.Fault_node_kills
    | None -> ());
    Some k.tk_node

let backoff_ms config ~attempt =
  Float.min config.backoff_cap_ms
    (config.backoff_base_ms *. Float.of_int (1 lsl min attempt 30))

(* Account one device touch and fire the crash schedule.  Crash points are
   counted in charged touches (including the re-issued I/Os below), so a
   schedule position is deterministic for a given workload seed. *)
let count_touch t io =
  t.touches <- t.touches + 1;
  match t.crash_points with
  | p :: rest when t.touches >= p ->
    t.crash_points <- rest;
    t.crashes <- t.crashes + 1;
    Metrics.incr (Io.metrics io) Metrics.Fault_crashes;
    raise (Crash { touch = t.touches })
  | _ -> ()

let fail_prob t (tch : Io.touch) =
  match tch.op with
  | `Read -> t.config.read_fail_prob
  | `Write -> t.config.write_fail_prob

let on_touch t io (tch : Io.touch) =
  count_touch t io;
  let p = fail_prob t tch in
  if p > 0.0 && Prng.float t.prng < p then begin
    (* This I/O failed at the device.  The retry policy re-issues it until
       it succeeds; every re-issue is a real page transfer, charged C2 like
       the original (the charge below *is* the simulated retry time on the
       paper's clock, plus a backoff observation for the latency view), and
       counts as a touch of its own — so the crash schedule and further
       transient failures see retries too. *)
    t.injected <- t.injected + 1;
    Metrics.incr (Io.metrics io) Metrics.Faults_injected;
    let metrics = Io.metrics io in
    let backoff =
      Histogram.named (Dbproc_obs.Ctx.histograms (Io.ctx io)) "fault.backoff_ms"
    in
    let attempt = ref 0 in
    let again = ref true in
    while !again do
      incr attempt;
      t.retries <- t.retries + 1;
      Metrics.incr metrics Metrics.Fault_retries;
      Histogram.observe backoff (backoff_ms t.config ~attempt:!attempt);
      count_touch t io;
      (match tch.op with
      | `Read -> Cost.page_read (Io.cost io)
      | `Write -> Cost.page_write (Io.cost io));
      if Prng.float t.prng < p then begin
        t.injected <- t.injected + 1;
        Metrics.incr metrics Metrics.Faults_injected
      end
      else again := false
    done
  end

let install t io = Io.set_touch_hook io (Some (fun tch -> on_touch t io tch))
let uninstall io = Io.set_touch_hook io None
