(* engine-read / engine-write: the paper's model-1 database at full size
   (Params.default) under each of the five strategies, in process.  Every
   strategy replays the same seeded operation sequence against its own
   freshly built copy of the database, so the base tables evolve
   identically and each access must return the same number of tuples
   under every strategy.  All five copies stay live and take turns one
   block of the sequence at a time, so a slow spell of the host falls on
   every strategy alike. *)

open Dbproc
module Manager = Proc.Manager
module Metrics = Obs.Metrics

let model = Costmodel.Model.Model1
let params = Costmodel.Params.default
let kinds = Manager.all_kinds
let short kind = Costmodel.Strategy.short_name (Manager.strategy_of_kind kind)
let setup_reps = 3

(* One strategy's copy of the database, and what its run recorded. *)
type strategy_run = {
  tag : string;
  ctx : Obs.Ctx.t;
  db : Workload.Database.t;
  m : Manager.t;
  ids : Manager.proc_id array;
  update_prng : Util.Prng.t;
  lat : float array;  (** latency of each operation, ms *)
  id_access : int;
  id_maintain : int;
  build_s : float;  (** median over the setup repetitions *)
  register_s : float;
}

(* [ops_per_s] operations per strategy per second of [seconds]. *)
let run ~update_p ~ops_per_s ~seed ~seconds ~trace =
  let nops = ops_per_s * seconds in
  let nprocs = int_of_float (params.Costmodel.Params.n1 +. params.Costmodel.Params.n2) in
  (* The operation sequence: -1 is an update transaction, anything else
     the index of the procedure to access. *)
  let ops =
    let prng = Util.Prng.create seed in
    Array.init nops (fun _ ->
        if Util.Prng.float prng < update_p then -1 else Util.Prng.int prng nprocs)
  in
  let is_read i = ops.(i) >= 0 in
  let n_reads = Array.fold_left (fun n op -> if op >= 0 then n + 1 else n) 0 ops in
  let spans = Spans.create ~enabled:trace ~capacity:(List.length kinds * nops * 2) in
  let span_id = Spans.intern spans in
  let id_update = span_id "op.update" in
  let id_gen = span_id "workload.random_update" in
  let id_batch = span_id "relation.update_batch" in
  let builds = Array.make (List.length kinds) [] in
  let registers = Array.make (List.length kinds) [] in
  let setup () =
    List.mapi
      (fun k kind ->
        let ctx = Obs.Ctx.create () in
        let t0 = Spans.now () in
        let db = Workload.Database.build ~seed ~ctx ~model params in
        let t1 = Spans.now () in
        let m =
          Manager.create kind ~io:db.Workload.Database.io
            ~record_bytes:(int_of_float params.Costmodel.Params.s) ()
        in
        let ids = Array.of_list (List.map (Manager.register m) (Workload.Database.all_defs db)) in
        let t2 = Spans.now () in
        builds.(k) <- (float_of_int (t1 - t0) /. 1e9) :: builds.(k);
        registers.(k) <- (float_of_int (t2 - t1) /. 1e9) :: registers.(k);
        (kind, ctx, db, m, ids))
      kinds
  in
  let live, setup_s = Outcome.repeat_setup ~reps:setup_reps ~discard:ignore setup in
  let runs =
    List.mapi
      (fun k (kind, ctx, db, m, ids) ->
        let tag = short kind in
        (* Only the run is measured: setup charges are wiped, as the
           paper's driver does. *)
        Storage.Cost.reset db.Workload.Database.cost;
        Metrics.reset (Obs.Ctx.metrics ctx);
        {
          tag;
          ctx;
          db;
          m;
          ids;
          update_prng = Util.Prng.create (seed + 1);
          lat = Array.make nops 0.0;
          id_access = span_id ("proc.access." ^ tag);
          id_maintain = span_id ("proc.maintain." ^ tag);
          build_s = Quantile.median (Array.of_list builds.(k));
          register_s = Quantile.median (Array.of_list registers.(k));
        })
      live
  in
  let cardinalities = Array.make nops (-1) in
  let mismatches = ref [] in
  let mismatch msg =
    if List.length !mismatches < 10 then mismatches := msg :: !mismatches
  in
  let first = (List.hd runs).tag in
  let step r i =
    Spans.set_op spans i;
    let op = ops.(i) in
    let t0 = Spans.now () in
    if op >= 0 then begin
      let result = Spans.with_span spans r.id_access (fun () -> Manager.access r.m r.ids.(op)) in
      r.lat.(i) <- Outcome.ms_of_ns (Spans.now () - t0);
      let card = List.length result in
      if cardinalities.(i) < 0 then cardinalities.(i) <- card
      else if cardinalities.(i) <> card then
        mismatch
          (Printf.sprintf "%s: op %d returned %d tuples, %s returned %d" r.tag i card first
             cardinalities.(i))
    end
    else begin
      let db = r.db in
      Spans.with_span spans id_update (fun () ->
          let changes =
            Spans.with_span spans id_gen (fun () ->
                Workload.Database.random_update db r.update_prng)
          in
          (* the base-table write costs every strategy the same and is
             not part of the paper's per-access cost *)
          let old_new =
            Spans.with_span spans id_batch (fun () ->
                Storage.Cost.with_disabled db.Workload.Database.cost (fun () ->
                    Relation.update_batch db.Workload.Database.r1 changes))
          in
          Spans.with_span spans r.id_maintain (fun () ->
              Manager.on_update r.m ~rel:db.Workload.Database.r1 ~changes:old_new));
      r.lat.(i) <- Outcome.ms_of_ns (Spans.now () - t0)
    end
  in
  let throughput = Array.make Outcome.blocks 0.0 in
  let wall_ns = ref 0 in
  for b = 0 to Outcome.blocks - 1 do
    let lo = Outcome.block_start ~n:nops b and hi = Outcome.block_start ~n:nops (b + 1) in
    let t0 = Spans.now () in
    List.iter
      (fun r ->
        for i = lo to hi - 1 do
          step r i
        done)
      runs;
    let ns = Spans.now () - t0 in
    wall_ns := !wall_ns + ns;
    throughput.(b) <- Outcome.rate ~ops:((hi - lo) * List.length runs) ~ns
  done;
  let wall_ns = !wall_ns in
  let t_oracle = Spans.now () in
  List.iter
    (fun r ->
      Array.iteri
        (fun i id ->
          if not (Manager.matches_recompute r.m id) then
            mismatch (Printf.sprintf "%s: procedure %d differs from its recompute" r.tag i))
        r.ids)
    runs;
  let oracle_ns = Spans.now () - t_oracle in
  let classes keep label =
    List.map
      (fun r -> (label ^ " " ^ r.tag, Outcome.by_block ~n:nops ~keep (Array.get r.lat)))
      runs
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let n_runs = float_of_int (List.length runs) in
  let sim_ms_per_read r =
    Storage.Cost.total_ms Storage.Cost.default_charges r.db.Workload.Database.cost
    /. float_of_int (Int.max 1 n_reads)
  in
  let metrics, notes =
    (* sim_ms_per_read is the mean over strategies of each one's simulated
       cost per access *)
    Outcome.end_to_end ~throughput
      ~reads:(classes is_read "access")
      ~writes:(classes (fun i -> not (is_read i)) "update")
      ~sim_ms:(sum sim_ms_per_read /. n_runs *. float_of_int n_reads)
      ~n_reads ~setup_s ~heap_mb:(Outcome.heap_peak_mb ())
  in
  let layers =
    if not trace then []
    else begin
      let self = Spans.by_name spans in
      let layer name =
        [
          (name ^ ".share", Outcome.share ~wall_ns (self name));
          (name ^ ".p50_us", Outcome.q (self name) 0.5);
          (name ^ ".p99_us", Outcome.q (self name) 0.99);
        ]
      in
      let counters r = Obs.Ctx.metrics r.ctx in
      let count c = sum (fun r -> float_of_int (Metrics.get (counters r) c)) in
      let count_of tag c =
        float_of_int (Metrics.get (counters (List.find (fun r -> r.tag = tag) runs)) c)
      in
      (* every strategy replays the same updates *)
      let updates_each = float_of_int (nops - n_reads) in
      let n_ops = n_runs *. float_of_int nops in
      let n_reads = n_runs *. float_of_int n_reads in
      List.concat_map
        (fun r ->
          layer ("proc.access." ^ r.tag)
          @ layer ("proc.maintain." ^ r.tag)
          @ [ ("proc.register." ^ r.tag ^ "_s", r.register_s) ])
        runs
      @ [
          ("relation.update_batch.share", Outcome.share ~wall_ns (self "relation.update_batch"));
          ("relation.update_batch.p50_us", Outcome.q (self "relation.update_batch") 0.5);
          ( "workload.build_s",
            Quantile.median (Array.of_list (List.map (fun r -> r.build_s) runs)) );
          ("storage.pages_read_per_op", count Metrics.Pages_read /. n_ops);
          ("storage.pages_written_per_op", count Metrics.Pages_written /. n_ops);
          ("relation.tuples_scanned_per_access", count Metrics.Tuples_scanned /. n_reads);
          ("query.batches_per_access", count Metrics.Batches_emitted /. n_reads);
          ("index.hash_probes_per_op", count Metrics.Hash_probes /. n_ops);
          ( "proc.ci_hit_ratio",
            Outcome.ratio
              (count_of "CI" Metrics.Cache_hits)
              (count_of "CI" Metrics.Cache_hits +. count_of "CI" Metrics.Cache_misses) );
          ( "rete.tokens_per_update",
            Outcome.ratio (count_of "RVM" Metrics.Rete_tokens) updates_each );
          ( "avm.delta_ops_per_update",
            Outcome.ratio (count_of "AVM" Metrics.Delta_set_ops) updates_each );
          ( "hoivm.delta_applies_per_update",
            Outcome.ratio (count_of "HOIVM" Metrics.Hoivm_delta_applies) updates_each );
          ("trace.coverage", Spans.coverage spans ~wall_ns);
        ]
    end
  in
  ( {
      Outcome.correct = !mismatches = [];
      attempted = List.length runs * nops;
      failed = 0;
      metrics = metrics @ layers;
      notes =
        (if trace then [] else Outcome.phases ~setup_s ~wall_ns ~oracle_ns :: notes)
        @ List.rev !mismatches;
    },
    spans )
