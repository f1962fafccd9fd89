(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (analytic model), runs the engine-measured counterparts
   (the sim- targets), prints the ablations called out in DESIGN.md, and times one
   Bechamel micro-benchmark per experiment.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig5 fig18   -- selected experiments
     dune exec bench/main.exe -- --no-bechamel
     dune exec bench/main.exe -- --quota 1.0  -- seconds per bechamel test
     dune exec bench/main.exe -- --seed 7     -- workload PRNG seed (default 42)
     dune exec bench/main.exe -- --jobs 4     -- domains for the sim sweeps (default 1)
     dune exec bench/main.exe -- --json FILE  -- machine-readable snapshot per experiment

   An id names a figure, an experiment or a bechamel test.  An unknown
   id or flag, a flag without its value, or a malformed number prints
   one line and exits 2. *)

open Dbproc
open Dbproc.Costmodel

let sim_p_sweep = [ 0.0; 0.2; 0.5; 0.8 ]

(* --seed / --jobs / --json state, set once by the arg parser before any
   experiment runs. *)
let the_seed = ref 42
let the_jobs = ref 1

(* --strategies comma-list filter (None = all five).  Restricts the fixed
   columns of ext-winregion so CI can run a cheap HOIVM-vs-AVM slice. *)
let the_strategies : Strategy.t list option ref = ref None
let json_out : string option ref = ref None
let experiments : (string * Obs.Export.json) list ref = ref []

(* Each experiment runs against its own engine context(s) and hands back
   the context its snapshot should come from — nothing is read from any
   shared registry, so concurrent experiments cannot cross-pollute an
   export.  The snapshot is taken right as the experiment finishes,
   before the bechamel section runs (whose quota-driven iteration counts
   would make it nondeterministic). *)
let record id (f : unit -> Obs.Ctx.t) =
  let ctx = f () in
  if !json_out <> None && not (List.mem_assoc id !experiments) then
    experiments := (id, Obs.Export.snapshot ctx) :: !experiments

(* ------------------------------------------------- Simulation sections *)

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let row, rest = take n [] l in
    row :: chunks n rest

let print_sim_comparison ?(label = "") ?(params = Workload.Driver.default_sim_params) ~model ()
    =
  let name =
    match model with Model.Model1 -> "model1" | Model.Model2 -> "model2"
  in
  Printf.printf "== sim-%s%s: engine-measured vs analytic (scaled: N=%g, N1=%g, N2=%g, q=%g)\n"
    (if label = "" then name else label)
    (if label = "" then "" else Printf.sprintf " [%s]" name)
    params.Params.n params.Params.n1 params.Params.n2 params.Params.q;
  Printf.printf
    "paper: who wins and the crossovers should match the analytic curves; absolute numbers \
     within ~2x.\n\n";
  let table =
    Util.Ascii_table.create
      ~header:
        (("P"
         :: List.concat_map
              (fun s ->
                let n = Strategy.short_name s in
                [ n ^ " meas"; n ^ " model" ])
              Strategy.all)
        @ [ "ok" ])
      ()
  in
  (* Every (P, strategy) point is independent — fan them all out at once
     and regroup per P afterwards.  The jobs=1 path goes through the same
     code, so the table and the merged snapshot are byte-identical at any
     job count. *)
  let tasks =
    List.concat_map (fun p -> List.map (fun s -> (p, s)) Strategy.all) sim_p_sweep
  in
  let results =
    Workload.Parallel.map ~jobs:!the_jobs
      (fun (p, s) ->
        let params = Params.with_update_probability params p in
        Workload.Driver.run_strategy ~seed:!the_seed ~model ~params s)
      tasks
  in
  List.iter2
    (fun p row ->
      let cells =
        List.concat_map
          (fun (r : Workload.Driver.result) ->
            [
              Printf.sprintf "%.0f" r.measured_ms_per_query;
              Printf.sprintf "%.0f" r.analytic_ms_per_query;
            ])
          row
      in
      let consistent =
        List.for_all (fun (r : Workload.Driver.result) -> r.consistent) row
      in
      Util.Ascii_table.add_row table
        ((Printf.sprintf "%.2f" p :: cells) @ [ (if consistent then "yes" else "NO") ]))
    sim_p_sweep
    (chunks (List.length Strategy.all) results);
  Util.Ascii_table.print table;
  print_newline ();
  Workload.Parallel.merge_obs results

let print_ablation_buffer () =
  print_endline "== ablation: buffer pool (paper assumes none; LRU buffer added)";
  let params = Workload.Driver.default_sim_params in
  let probe buffer_pages =
    let db = Workload.Database.build ~seed:11 ?buffer_pages ~model:Model.Model1 params in
    Storage.Cost.reset db.Workload.Database.cost;
    for _ = 1 to 3 do
      List.iter
        (fun def -> ignore (Query.Executor.run (Query.Planner.compile def)))
        (Workload.Database.all_defs db)
    done;
    Storage.Cost.page_reads db.Workload.Database.cost
  in
  let table =
    Util.Ascii_table.create ~header:[ "configuration"; "page reads (3x all procs)" ] ()
  in
  Util.Ascii_table.add_row table [ "direct (paper model)"; string_of_int (probe None) ];
  Util.Ascii_table.add_row table [ "LRU 200 pages"; string_of_int (probe (Some 200)) ];
  Util.Ascii_table.add_row table [ "LRU 100k pages"; string_of_int (probe (Some 100_000)) ];
  Util.Ascii_table.print table;
  print_newline ()

let print_ablation_yao () =
  print_endline "== ablation: Appendix-A approximation vs exact Yao vs Cardenas";
  let table =
    Util.Ascii_table.create ~header:[ "n"; "m"; "k"; "exact"; "paper approx"; "cardenas" ] ()
  in
  List.iter
    (fun (n, m, k) ->
      Util.Ascii_table.add_row table
        [
          string_of_int n;
          string_of_int m;
          string_of_int k;
          Printf.sprintf "%.3f" (Util.Yao.exact ~n ~m ~k);
          Printf.sprintf "%.3f"
            (Util.Yao.paper ~n:(float_of_int n) ~m:(float_of_int m) ~k:(float_of_int k));
          Printf.sprintf "%.3f" (Util.Yao.cardenas ~m:(float_of_int m) ~k:(float_of_int k));
        ])
    [
      (10_000, 250, 1);
      (10_000, 250, 10);
      (10_000, 250, 100);
      (10_000, 250, 1000);
      (100, 3, 2);
      (40, 2, 5);
    ];
  Util.Ascii_table.print table;
  print_newline ()

let print_ablation_rete_shape () =
  print_endline "== ablation: Rete join-tree shape, model 2 (right-deep = paper's network)";
  let params = Workload.Driver.default_sim_params in
  let run shape =
    Workload.Driver.run_strategy ~seed:!the_seed ~rvm_shape:shape ~model:Model.Model2
      ~params Strategy.Update_cache_rvm
  in
  let right = run `Right_deep and left = run `Left_deep in
  let table =
    Util.Ascii_table.create ~header:[ "shape"; "measured ms/query"; "consistent" ] ()
  in
  Util.Ascii_table.add_row table
    [
      "right-deep (paper)";
      Printf.sprintf "%.1f" right.measured_ms_per_query;
      (if right.consistent then "yes" else "NO");
    ];
  Util.Ascii_table.add_row table
    [
      "left-deep";
      Printf.sprintf "%.1f" left.measured_ms_per_query;
      (if left.consistent then "yes" else "NO");
    ];
  Util.Ascii_table.print table;
  print_newline ()

let print_ablation_obs_overhead () =
  print_endline "== ablation: observability overhead (registry enabled vs disabled)";
  print_endline
    "counters are int-array bumps behind one flag test; the two wall-clock times\n\
     should agree within noise (~1%).\n";
  let params = Workload.Driver.default_sim_params in
  (* One shared context whose registry the toggle acts on; every timed
     run charges it. *)
  let ctx = Obs.Ctx.create () in
  let timed () =
    let t0 = Sys.time () in
    for _ = 1 to 10 do
      ignore
        (Workload.Driver.run_strategy ~seed:!the_seed ~check_consistency:false ~ctx
           ~model:Model.Model1 ~params Strategy.Update_cache_avm)
    done;
    Sys.time () -. t0
  in
  ignore (timed ());
  (* warm-up, then interleave the arms and keep each arm's best time —
     min-of-N suppresses scheduler and GC noise far below the per-run
     variance *)
  let on = ref Float.infinity and off = ref Float.infinity in
  for _ = 1 to 4 do
    Obs.Metrics.set_enabled (Obs.Ctx.metrics ctx) true;
    on := Float.min !on (timed ());
    Obs.Metrics.set_enabled (Obs.Ctx.metrics ctx) false;
    off := Float.min !off (timed ())
  done;
  Printf.printf "enabled: %.3f s   disabled: %.3f s   delta: %+.1f%%\n\n" !on !off
    (if !off > 0.0 then 100.0 *. (!on -. !off) /. !off else 0.0)

(* Figures 3 and 16 of the paper are network diagrams; emit the same
   structures as Graphviz dot from a small live population. *)
let print_network_figure label model =
  let params =
    { Workload.Driver.default_sim_params with Params.n = 1000.0; n1 = 1.0; n2 = 1.0 }
  in
  let db = Workload.Database.build ~seed:3 ~model params in
  let builder = Rete.Builder.create ~io:db.Workload.Database.io ~record_bytes:100 () in
  List.iter
    (fun def -> ignore (Rete.Builder.add_view builder def))
    (Workload.Database.all_defs db);
  Printf.printf "== %s: Rete network for one P1 + one P2 procedure (Graphviz dot)\n" label;
  print_string (Rete.Network.to_dot (Rete.Builder.network builder));
  print_newline ()

let print_crossovers () =
  print_endline "== headline anchors";
  (match Figures.crossover_sf Model.Model2 Params.default with
  | Some sf -> Printf.printf "model 2 AVM/RVM crossover: SF = %.3f (paper: ~0.47)\n" sf
  | None -> print_endline "model 2 AVM/RVM crossover: none found");
  (match Figures.crossover_sf Model.Model1 Params.default with
  | Some sf -> Printf.printf "model 1 AVM/RVM crossover: SF = %.3f (paper: near 1)\n" sf
  | None -> print_endline "model 1 AVM/RVM crossover: none (RVM never cheaper)");
  let p7 = Params.with_update_probability { Params.default with Params.f = 0.0001 } 0.1 in
  let ar = Model.cost Model.Model1 p7 Strategy.Always_recompute in
  let ci = Model.cost Model.Model1 p7 Strategy.Cache_invalidate in
  let uc = Model.cost Model.Model1 p7 Strategy.Update_cache_avm in
  Printf.printf
    "fig7 anchor (f=0.0001, P=0.1): AR/CI = %.1fx, AR/UC = %.1fx (paper: ~5x and ~7x)\n\n"
    (ar /. ci) (ar /. uc)

(* ----------------------------------------------- Extension experiments *)

let print_ext_update_mix () =
  print_endline "== ext-update-mix: updates against R2 as well as R1 (model 2)";
  print_endline
    "extension: the paper's Section 8 flags update frequency per relation as unanalyzed.\n\
     Expect UC to deteriorate as R2 churns (RVM worst: its precomputed beta-memory must\n\
     be maintained), while AR and CI barely move.\n";
  let params = Workload.Driver.default_sim_params in
  let table =
    Util.Ascii_table.create
      ~header:
        (("R2 fraction" :: List.map Strategy.short_name Strategy.all)
        @ [ "RVM-opt"; "ok" ])
      ()
  in
  let all_runs = ref [] in
  List.iter
    (fun mix ->
      let results =
        Workload.Driver.run_all ~seed:!the_seed ~r2_update_fraction:mix ~model:Model.Model2
          ~params ()
      in
      (* The statically optimized network: shape chosen per the update
         profile (Section 8's "statistics on relative update frequency"). *)
      let opt =
        Workload.Driver.run_strategy ~seed:!the_seed
          ~rvm_shape:(`Auto [ ("R1", 1.0 -. mix); ("R2", mix) ])
          ~r2_update_fraction:mix ~model:Model.Model2 ~params Strategy.Update_cache_rvm
      in
      all_runs := (opt :: List.rev results) @ !all_runs;
      let cells =
        List.map
          (fun (r : Workload.Driver.result) -> Printf.sprintf "%.0f" r.measured_ms_per_query)
          results
        @ [ Printf.sprintf "%.0f" opt.measured_ms_per_query ]
      in
      let ok =
        opt.consistent
        && List.for_all (fun (r : Workload.Driver.result) -> r.consistent) results
      in
      Util.Ascii_table.add_row table
        ((Printf.sprintf "%.2f" mix :: cells) @ [ (if ok then "yes" else "NO") ]))
    [ 0.0; 0.25; 0.5; 1.0 ];
  Util.Ascii_table.print table;
  print_newline ();
  Workload.Parallel.merge_obs (List.rev !all_runs)

let print_ext_wal () =
  print_endline "== ext-wal: cost per invalidation under the Section-3 recording schemes";
  print_endline
    "extension: drive one invalidation/revalidation workload through each scheme and\n\
     price it; the effective C_inval is what fig4 vs fig5 parameterizes.\n";
  let procs = 200 in
  let transitions = 2_000 in
  let ctx = Obs.Ctx.create () in
  let table =
    Util.Ascii_table.create
      ~header:[ "scheme"; "effective C_inval (ms)"; "recovery I/Os"; "recovered ok" ]
      ()
  in
  List.iter
    (fun scheme ->
      let cost = Storage.Cost.create ~ctx () in
      let io = Storage.Io.direct cost ~page_bytes:4000 in
      let tbl = Proc.Inval_table.create ~io ~scheme ~procs in
      let prng = Util.Prng.create 17 in
      for _ = 1 to transitions do
        let proc = Util.Prng.int prng procs in
        if Proc.Inval_table.is_valid tbl proc then Proc.Inval_table.set_invalid tbl proc
        else Proc.Inval_table.set_valid tbl proc;
        if Util.Prng.int prng 25 = 0 then Proc.Inval_table.end_of_transaction tbl
      done;
      Proc.Inval_table.end_of_transaction tbl;
      let work_ms = Storage.Cost.total_ms Storage.Cost.default_charges cost in
      let per_inval = work_ms /. float_of_int (Proc.Inval_table.invalidations_recorded tbl) in
      Storage.Cost.reset cost;
      let recovered = Proc.Inval_table.crash_and_recover tbl in
      let recovery_ios = Storage.Cost.page_reads cost + Storage.Cost.page_writes cost in
      let ok =
        List.for_all
          (fun p -> Proc.Inval_table.is_valid recovered p = Proc.Inval_table.is_valid tbl p)
          (List.init procs Fun.id)
      in
      Util.Ascii_table.add_row table
        [
          Proc.Inval_table.scheme_name scheme;
          Printf.sprintf "%.2f" per_inval;
          string_of_int recovery_ios;
          (if ok then "yes" else "NO");
        ])
    [
      Proc.Inval_table.Page_flag;
      Proc.Inval_table.Nvram;
      Proc.Inval_table.Wal_logged { checkpoint_every = 500 };
      Proc.Inval_table.Wal_logged { checkpoint_every = 50 };
    ];
  Util.Ascii_table.print table;
  print_newline ();
  ctx

let print_ext_faults () =
  print_endline "== ext-faults: fault-injection ablation (model 1)";
  print_endline
    "extension: three arms per strategy through the crash harness.  'off' runs with no\n\
     injector installed; 'disabled' installs one with zero fault probability and must\n\
     charge exactly the same (the fault layer is free when idle); 'faulted' injects\n\
     transient failures plus three crash points and must still reproduce the oracle's\n\
     result digest, paying for retries and recovery in simulated time.\n";
  let params = Workload.Driver.default_sim_params in
  let table =
    Util.Ascii_table.create
      ~header:
        [ "strategy"; "off ms"; "disabled ms"; "drift"; "faulted ms"; "crashes"; "faults"; "ok" ]
      ()
  in
  let merged = Obs.Ctx.create () in
  let all_ok = ref true in
  List.iter
    (fun strategy ->
      let run ?fault_config ?(crash_points = []) () : Workload.Driver.crash_result =
        Workload.Driver.run_with_crashes ~seed:!the_seed ?fault_config ~crash_points
          ~model:Model.Model1 ~params strategy
      in
      let off = run () in
      let disabled = run ~fault_config:Fault.Injector.no_faults () in
      let touches = disabled.cr_stats.cs_touches in
      let faulted =
        run ~fault_config:Fault.Injector.default_config
          ~crash_points:[ touches / 4; touches / 2; 3 * touches / 4 ]
          ()
      in
      List.iter
        (fun (r : Workload.Driver.crash_result) -> Obs.Ctx.merge_into ~into:merged r.cr_obs)
        [ off; disabled; faulted ];
      let drift_free =
        disabled.cr_total_ms = off.cr_total_ms
        && disabled.cr_page_reads = off.cr_page_reads
        && disabled.cr_page_writes = off.cr_page_writes
      in
      let oracle_digest = Workload.Driver.result_digest off in
      let digest_ok =
        Workload.Driver.result_digest disabled = oracle_digest
        && Workload.Driver.result_digest faulted = oracle_digest
        && faulted.cr_consistent
      in
      if not (drift_free && digest_ok) then all_ok := false;
      Util.Ascii_table.add_row table
        [
          Strategy.name strategy;
          Printf.sprintf "%.0f" off.cr_total_ms;
          Printf.sprintf "%.0f" disabled.cr_total_ms;
          (if drift_free then "none" else "DRIFT");
          Printf.sprintf "%.0f" faulted.cr_total_ms;
          string_of_int faulted.cr_stats.cs_crashes;
          string_of_int faulted.cr_stats.cs_faults_injected;
          (if digest_ok then "yes" else "NO");
        ])
    Strategy.all;
  Util.Ascii_table.print table;
  print_newline ();
  Printf.printf "verdict: %s\n\n"
    (if !all_ok then "disabled arm drift-free, faulted arms match the oracle"
     else "ABLATION FAILED — see table");
  merged

let print_ext_aggregates () =
  print_endline "== ext-aggregates: differentially maintained aggregate procedures";
  print_endline
    "extension: intro feature (5).  A COUNT/SUM/MAX rollup over a P1-style selection is\n\
     maintained per update and compared with recomputation.\n";
  let params = Workload.Driver.default_sim_params in
  let ctx = Obs.Ctx.create () in
  let db = Workload.Database.build ~seed:23 ~ctx ~model:Model.Model1 params in
  let def = List.hd db.Workload.Database.p1_defs in
  let schema = Query.View_def.schema def in
  let agg =
    Avm.Aggregate_view.create ~record_bytes:100
      ~group_by:[ Schema.index_of schema "R1.a" ]
      ~aggs:[ Avm.Aggregate_view.Count; Avm.Aggregate_view.Sum (Schema.index_of schema "R1.sel") ]
      def
  in
  let prng = Util.Prng.create 29 in
  let charges = Storage.Cost.default_charges in
  let maint = ref 0.0 and recompute = ref 0.0 in
  let screen (d : Query.View_def.t) tuples =
    List.filter (Predicate.eval d.Query.View_def.base.restriction) tuples
  in
  for _ = 1 to 20 do
    let changes = Workload.Database.random_update db prng in
    let old_new =
      Storage.Cost.with_disabled db.Workload.Database.cost (fun () ->
          Relation.update_batch db.Workload.Database.r1 changes)
    in
    let olds = List.map fst old_new and news = List.map snd old_new in
    Storage.Cost.reset db.Workload.Database.cost;
    Avm.Aggregate_view.apply_base_delta agg ~inserted:(screen def news)
      ~deleted:(screen def olds);
    maint := !maint +. Storage.Cost.total_ms charges db.Workload.Database.cost;
    Storage.Cost.reset db.Workload.Database.cost;
    ignore (Query.Executor.run (Query.Planner.compile def));
    recompute := !recompute +. Storage.Cost.total_ms charges db.Workload.Database.cost
  done;
  Printf.printf "20 update transactions: maintain rollup %.0f ms total; recompute the\n" !maint;
  Printf.printf "underlying selection each time instead: %.0f ms; groups kept: %d; stored\n"
    !recompute (Avm.Aggregate_view.group_count agg);
  Printf.printf "state matches recompute: %b\n\n" (Avm.Aggregate_view.matches_recompute agg);
  ctx

(* Drive a TREAT engine through the driver's workload shape. *)
let run_treat ~ctx ~model ~params ~mix ~seed =
  let db = Workload.Database.build ~seed ~ctx ~model params in
  let treat =
    Rete.Treat.create ~io:db.Workload.Database.io ~record_bytes:100 ()
  in
  let ids = List.map (Rete.Treat.add_view treat) (Workload.Database.all_defs db) in
  let arr = Array.of_list ids in
  let q = int_of_float params.Params.q and k = int_of_float params.Params.k in
  let prng = Util.Prng.create (seed + 1) in
  let ops = Array.init (q + k) (fun i -> if i < q then `Q else `U) in
  Util.Prng.shuffle prng ops;
  Storage.Cost.reset db.Workload.Database.cost;
  Array.iter
    (fun op ->
      match op with
      | `Q -> ignore (Rete.Treat.read treat arr.(Util.Prng.int prng (Array.length arr)))
      | `U ->
        let target_r2 = mix > 0.0 && Util.Prng.float prng < mix in
        let rel, changes =
          if target_r2 then
            (db.Workload.Database.r2, Workload.Database.random_update_r2 db prng)
          else (db.Workload.Database.r1, Workload.Database.random_update db prng)
        in
        let old_new =
          Storage.Cost.with_disabled db.Workload.Database.cost (fun () ->
              Relation.update_batch rel changes)
        in
        Rete.Treat.apply_delta treat ~rel:(Relation.name rel)
          ~inserted:(List.map snd old_new)
          ~deleted:(List.map fst old_new))
    ops;
  let ms =
    Storage.Cost.total_ms Storage.Cost.default_charges db.Workload.Database.cost
    /. float_of_int q
  in
  let ok = List.for_all (fun id -> Rete.Treat.matches_recompute treat id) ids in
  (ms, ok)

let print_ext_treat () =
  print_endline "== ext-treat: TREAT (alpha-memories only) vs AVM and RVM (model 2)";
  print_endline
    "extension: TREAT (Miranker 1987) is the contemporaneous no-beta-memory alternative\n\
     the production-system literature set against Rete.  No beta upkeep means R2 churn\n\
     hurts less than RVM; probing selected alphas beats AVM's base-relation probes.\n";
  let params = Workload.Driver.default_sim_params in
  let ctx = Obs.Ctx.create () in
  let table =
    Util.Ascii_table.create ~header:[ "R2 fraction"; "AVM"; "TREAT"; "RVM"; "ok" ] ()
  in
  List.iter
    (fun mix ->
      let avm =
        Workload.Driver.run_strategy ~seed:!the_seed ~r2_update_fraction:mix
          ~model:Model.Model2 ~params Strategy.Update_cache_avm
      in
      let rvm =
        Workload.Driver.run_strategy ~seed:!the_seed ~r2_update_fraction:mix
          ~model:Model.Model2 ~params Strategy.Update_cache_rvm
      in
      Obs.Ctx.merge_into ~into:ctx avm.Workload.Driver.obs;
      Obs.Ctx.merge_into ~into:ctx rvm.Workload.Driver.obs;
      let treat_ms, treat_ok =
        run_treat ~ctx ~model:Model.Model2 ~params ~mix ~seed:!the_seed
      in
      Util.Ascii_table.add_row table
        [
          Printf.sprintf "%.2f" mix;
          Printf.sprintf "%.0f" avm.measured_ms_per_query;
          Printf.sprintf "%.0f" treat_ms;
          Printf.sprintf "%.0f" rvm.measured_ms_per_query;
          (if treat_ok && avm.consistent && rvm.consistent then "yes" else "NO");
        ])
    [ 0.0; 0.5; 1.0 ];
  Util.Ascii_table.print table;
  print_newline ();
  ctx

let print_ext_latency () =
  print_endline "== ext-latency: access-cost distribution per strategy (P = 0.3, model 1)";
  print_endline
    "extension: the paper compares means only.  Per-access distributions differ sharply:\n\
     CI is bimodal (cheap hits vs recompute-priced misses), UC is uniform cheap reads\n\
     with the cost shifted into updates, AR is uniformly expensive.\n";
  let params =
    Params.with_update_probability
      { Workload.Driver.default_sim_params with Params.q = 120.0 }
      0.3
  in
  let table =
    Util.Ascii_table.create
      ~header:[ "strategy"; "mean"; "p50"; "p95"; "max"; "update-side mean" ]
      ()
  in
  let results =
    Workload.Driver.run_all ~seed:!the_seed ~check_consistency:false ~model:Model.Model1
      ~params ()
  in
  List.iter
    (fun (r : Workload.Driver.result) ->
      let query_ms =
        List.filter_map (fun (k, ms) -> if k = `Query then Some ms else None) r.per_op
      in
      let update_ms =
        List.filter_map (fun (k, ms) -> if k = `Update then Some ms else None) r.per_op
      in
      let s = Util.Stats.summarize query_ms in
      Util.Ascii_table.add_row table
        [
          Strategy.short_name r.strategy;
          Printf.sprintf "%.0f" s.Util.Stats.mean;
          Printf.sprintf "%.0f" s.Util.Stats.p50;
          Printf.sprintf "%.0f" s.Util.Stats.p95;
          Printf.sprintf "%.0f" s.Util.Stats.max;
          (if update_ms = [] then "-" else Printf.sprintf "%.0f" (Util.Stats.mean update_ms));
        ])
    results;
  Util.Ascii_table.print table;
  print_newline ();
  Workload.Parallel.merge_obs results

let print_ext_sensitivity () =
  print_endline "== ext-sensitivity: cost elasticity per parameter (model 1, defaults)";
  print_endline
    "extension: elasticity = %change in cost per %change in parameter at the Figure-2\n\
     operating point.  Expect: AR insensitive to everything but f and N; UC driven by k\n\
     and the object-count parameters; CI spiked by C_inval; only RVM responds to SF.\n";
  let table =
    Util.Ascii_table.create
      ~header:("parameter" :: List.map Strategy.short_name Strategy.all)
      ()
  in
  List.iter
    (fun (name, cells) ->
      Util.Ascii_table.add_row table
        (name :: List.map (fun (_, e) -> Printf.sprintf "%+.2f" e) cells))
    (Sensitivity.table Model.Model1 Params.default);
  Util.Ascii_table.print table;
  print_newline ();
  (* analytic only: nothing charged, snapshot an empty context *)
  Obs.Ctx.create ()

let print_ext_nway () =
  print_endline "== ext-nway: AVM vs RVM as the join chain grows";
  print_endline
    "extension: Section 8 argues precomputed subexpressions let RVM 'limit the total\n\
     number of joins' for chains of 3+ relations.  Updates hit C1 only; f2 = 1 so delta\n\
     tuples traverse the whole chain.  Expect AVM maintenance to grow with chain length\n\
     and RVM's to stay flat (one probe into the precomputed spine).\n";
  let params =
    {
      Workload.Driver.default_sim_params with
      Params.f = 0.005;
      f2 = 1.0;
      k = 100.0;
      q = 50.0;
      n2 = 10.0;
    }
  in
  let ctx = Obs.Ctx.create () in
  let results = Workload.Nway.sweep ~seed:!the_seed ~ctx ~max_length:6 ~params () in
  let table =
    Util.Ascii_table.create
      ~header:
        [ "chain length"; "AVM meas"; "AVM model"; "RVM meas"; "RVM model"; "ok" ]
      ()
  in
  let rec pair = function
    | (a : Workload.Nway.result) :: (r : Workload.Nway.result) :: rest ->
      let model s = Nway_model.maintenance_per_update params ~chain_length:a.chain_length s in
      Util.Ascii_table.add_row table
        [
          string_of_int a.chain_length;
          Printf.sprintf "%.0f" a.maintenance_ms_per_update;
          Printf.sprintf "%.0f" (model Strategy.Update_cache_avm);
          Printf.sprintf "%.0f" r.maintenance_ms_per_update;
          Printf.sprintf "%.0f" (model Strategy.Update_cache_rvm);
          (if a.consistent && r.consistent then "yes" else "NO");
        ];
      pair rest
    | _ -> ()
  in
  pair results;
  Util.Ascii_table.print table;
  print_newline ();
  ctx

let print_ext_adaptive () =
  print_endline "== ext-adaptive: per-procedure strategy selection (Section 8's decision problem)";
  print_endline
    "extension: the manager's runtime selector, started from CI, migrates a procedure\n\
     when the closed-form model, fed online P and f estimates, predicts a cheaper\n\
     strategy.  Adaptive should roughly track the cheapest fixed strategy.\n";
  let params = Workload.Driver.default_sim_params in
  let ctx = Obs.Ctx.create () in
  let table =
    Util.Ascii_table.create
      ~header:[ "P"; "best fixed (measured)"; "adaptive"; "migrations"; "ok" ]
      ()
  in
  List.iter
    (fun p ->
      let params = Params.with_update_probability params p in
      let fixed =
        Workload.Driver.run_all ~seed:!the_seed ~check_consistency:false ~model:Model.Model1
          ~params ()
      in
      List.iter
        (fun (r : Workload.Driver.result) ->
          Obs.Ctx.merge_into ~into:ctx r.Workload.Driver.obs)
        fixed;
      let best =
        List.fold_left
          (fun acc (r : Workload.Driver.result) ->
            match acc with
            | Some (_, c) when c <= r.measured_ms_per_query -> acc
            | _ -> Some (Strategy.short_name r.strategy, r.measured_ms_per_query))
          None fixed
      in
      let adaptive =
        Workload.Driver.run_strategy ~seed:!the_seed ~adaptive:true ~model:Model.Model1
          ~params Strategy.Cache_invalidate
      in
      Obs.Ctx.merge_into ~into:ctx adaptive.Workload.Driver.obs;
      let best_name, best_ms = Option.get best in
      Util.Ascii_table.add_row table
        [
          Printf.sprintf "%.2f" p;
          Printf.sprintf "%s %.0f" best_name best_ms;
          Printf.sprintf "%.0f" adaptive.measured_ms_per_query;
          string_of_int
            (Obs.Metrics.get
               (Obs.Ctx.metrics adaptive.Workload.Driver.obs)
               Obs.Metrics.Adaptive_migrations);
          (if adaptive.consistent then "yes" else "NO");
        ])
    [ 0.0; 0.2; 0.5; 0.8 ];
  Util.Ascii_table.print table;
  print_newline ();
  ctx

(* Steady-state cost per access over the second half of the op sequence:
   all strategy work in the window (query costs plus update-side
   maintenance, the paper's accounting) divided by the window's accesses.
   Trimming the first half excludes one-time convergence work (adaptive
   migrations, first cold misses) from the comparison. *)
let steady_state_ms (r : Workload.Driver.result) =
  let ops = r.Workload.Driver.per_op in
  let n = List.length ops in
  let tail = List.filteri (fun i _ -> i >= n / 2) ops in
  let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 tail in
  let queries =
    List.length (List.filter (function `Query, _ -> true | `Update, _ -> false) tail)
  in
  if queries = 0 then 0.0 else total /. float_of_int queries

let print_ext_winregion () =
  print_endline
    "== ext-winregion: adaptive selector vs fixed strategies across the (P, f, skew) grid";
  print_endline
    "extension: at every grid point the manager-level selector (model placement at\n\
     the nominal P, online mix/selectivity estimates -> closed-form model -> charged\n\
     migration) should land within 10% of the best fixed strategy's steady-state\n\
     cost per access.  The sweep samples the paper's three win regions along their\n\
     curved boundaries: AVM-win (P <= 0.5), the crossover band (P = 0.9, f <= 0.01,\n\
     where a mixed population can beat every uniform strategy), and AR-win.  The\n\
     AR-win sample at f = 0.05 sits at P = 0.97 because the closed form prices P2\n\
     differential maintenance below the engine's measured cost at high update\n\
     rates, so right on the crossover curve a model-driven selector can sit on the\n\
     wrong side; the criterion targets points where a region has a clear winner.\n\
     skew > 0 points draw update victims from a hot/cold model (that fraction of\n\
     R1's tuples takes the rest of the updates) -- the frontier beyond the paper,\n\
     where HOIVM's heavy-key fast path and deferred coalesced flush should beat\n\
     all four paper strategies.  --strategies ar,ci,avm,rvm,hoivm restricts the\n\
     fixed columns (the adaptive row runs only with the full set).\n";
  let base =
    { Workload.Driver.default_sim_params with Params.q = 240.0; k = 240.0 }
  in
  let ctx = Obs.Ctx.create () in
  let fixed_strategies =
    match !the_strategies with Some ss -> ss | None -> Strategy.all
  in
  let with_adaptive = !the_strategies = None in
  let table =
    Util.Ascii_table.create
      ~header:
        ([ "P"; "f"; "skew" ]
        @ List.map Strategy.short_name fixed_strategies
        @ (if with_adaptive then [ "adaptive"; "final mix"; "migr"; "vs best"; "ok" ]
           else [])
        @ [ "winner" ])
      ()
  in
  let mix (r : Workload.Driver.result) =
    let count s =
      List.length (List.filter (fun (_, s') -> s' = s) r.Workload.Driver.final_strategies)
    in
    Printf.sprintf "ar:%d ci:%d avm:%d rvm:%d ho:%d"
      (count Strategy.Always_recompute)
      (count Strategy.Cache_invalidate)
      (count Strategy.Update_cache_avm)
      (count Strategy.Update_cache_rvm)
      (count Strategy.Update_cache_hoivm)
  in
  let all_ok = ref true in
  let hoivm_wins_skewed = ref 0 in
  List.iter
    (fun (p, f, skew) ->
      let params = Params.with_update_probability { base with Params.f } p in
      let runs =
        Workload.Parallel.map ~jobs:!the_jobs
          (fun (s, ad) ->
            Workload.Driver.run_strategy ~seed:!the_seed ~check_consistency:false
              ~update_skew:skew ~adaptive:ad ~adaptive_window:4 ~model:Model.Model1
              ~params s)
          (List.map (fun s -> (s, false)) fixed_strategies
          @ (if with_adaptive then [ (Strategy.Always_recompute, true) ] else []))
      in
      List.iter
        (fun (r : Workload.Driver.result) ->
          Obs.Ctx.merge_into ~into:ctx r.Workload.Driver.obs)
        runs;
      let fixed_ms =
        List.map steady_state_ms
          (List.filteri (fun i _ -> i < List.length fixed_strategies) runs)
      in
      let best = List.fold_left Float.min (List.hd fixed_ms) (List.tl fixed_ms) in
      let winner =
        fst
          (List.fold_left2
             (fun (ws, wc) s c -> if c < wc then (Strategy.short_name s, c) else (ws, wc))
             ("?", Float.infinity) fixed_strategies fixed_ms)
      in
      (if skew > 0.0 && winner = "HOIVM" then incr hoivm_wins_skewed);
      let adaptive_cells =
        if not with_adaptive then []
        else begin
          let adaptive_run = List.nth runs (List.length fixed_strategies) in
          let ad = steady_state_ms adaptive_run in
          let ratio = if best > 0.0 then ad /. best else 1.0 in
          let ok = ratio <= 1.10 +. 1e-9 in
          if not ok then all_ok := false;
          let migrations =
            Obs.Metrics.get
              (Obs.Ctx.metrics adaptive_run.Workload.Driver.obs)
              Obs.Metrics.Adaptive_migrations
          in
          [
            Printf.sprintf "%.0f" ad;
            mix adaptive_run;
            string_of_int migrations;
            Printf.sprintf "%.2fx" ratio;
            (if ok then "yes" else "NO");
          ]
        end
      in
      Util.Ascii_table.add_row table
        ([ Printf.sprintf "%.2f" p; Printf.sprintf "%g" f; Printf.sprintf "%g" skew ]
        @ List.map (Printf.sprintf "%.0f") fixed_ms
        @ adaptive_cells @ [ winner ]))
    [
      (0.1, 0.001, 0.0);
      (0.1, 0.01, 0.0);
      (0.1, 0.05, 0.0);
      (0.5, 0.001, 0.0);
      (0.5, 0.01, 0.0);
      (0.5, 0.05, 0.0);
      (0.9, 0.001, 0.0);
      (0.9, 0.01, 0.0);
      (0.97, 0.05, 0.0);
      (0.5, 0.01, 0.05);
      (0.5, 0.05, 0.05);
      (0.8, 0.01, 0.05);
      (0.8, 0.05, 0.05);
    ];
  Util.Ascii_table.print table;
  if with_adaptive then
    Printf.printf "\nadaptive within 10%% of best fixed at every grid point: %s\n"
      (if !all_ok then "yes" else "NO");
  if
    List.mem Strategy.Update_cache_hoivm fixed_strategies
    && List.length fixed_strategies > 1
  then
    Printf.printf "HOIVM wins at %d skewed grid point%s: %s\n" !hoivm_wins_skewed
      (if !hoivm_wins_skewed = 1 then "" else "s")
      (if !hoivm_wins_skewed > 0 then "yes" else "NO");
  print_newline ();
  ctx

let print_ext_evict () =
  print_endline "== ext-evict: strategy cost under shared result-cache budget pressure";
  print_endline
    "extension: CI/AVM stored results share one page budget; evictions drop entries\n\
     (charged one directory write) and evicted entries recompute on access.  The\n\
     peak never exceeds the budget, and budget 0 degrades both to AR pricing.\n";
  let params = Workload.Driver.default_sim_params in
  let ctx = Obs.Ctx.create () in
  let run ?cache_budget ?cache_policy strategy =
    let r =
      Workload.Driver.run_strategy ~seed:!the_seed ~check_consistency:false ?cache_budget
        ?cache_policy ~model:Model.Model1 ~params strategy
    in
    Obs.Ctx.merge_into ~into:ctx r.Workload.Driver.obs;
    r
  in
  let ar = run Strategy.Always_recompute in
  let table =
    Util.Ascii_table.create
      ~header:
        [ "strategy"; "policy"; "budget"; "ms/query"; "peak"; "evictions"; "fallbacks"; "ok" ]
      ()
  in
  let all_ok = ref true in
  List.iter
    (fun strategy ->
      (* the unbudgeted footprint calibrates the pressure points *)
      let full = run ~cache_budget:max_int strategy in
      let w = full.Workload.Driver.cache_peak_pages in
      List.iter
        (fun policy ->
          List.iter
            (fun budget ->
              let r = run ~cache_budget:budget ~cache_policy:policy strategy in
              let m = Obs.Ctx.metrics r.Workload.Driver.obs in
              let within = r.Workload.Driver.cache_peak_pages <= budget in
              let degraded_to_ar =
                budget > 0
                || r.Workload.Driver.measured_ms_per_query
                   = ar.Workload.Driver.measured_ms_per_query
              in
              let ok = within && degraded_to_ar in
              if not ok then all_ok := false;
              Util.Ascii_table.add_row table
                [
                  Strategy.short_name strategy;
                  Cache.Policy.name policy;
                  string_of_int budget;
                  Printf.sprintf "%.1f" r.Workload.Driver.measured_ms_per_query;
                  string_of_int r.Workload.Driver.cache_peak_pages;
                  string_of_int (Obs.Metrics.get m Obs.Metrics.Cache_evictions);
                  string_of_int (Obs.Metrics.get m Obs.Metrics.Cache_fallback_recomputes);
                  (if ok then "yes" else "NO");
                ])
            [ w; max 1 (w / 2); max 1 (w / 4); 0 ])
        Cache.Policy.all)
    [ Strategy.Cache_invalidate; Strategy.Update_cache_avm ];
  Util.Ascii_table.print table;
  Printf.printf
    "\npeak <= budget everywhere, and budget 0 matches Always Recompute: %s\n\n"
    (if !all_ok then "yes" else "NO");
  ctx

let print_ext_contention () =
  print_endline
    "== ext-contention: N writers x M readers over one shared database (model 1)";
  print_endline
    "extension: the measurement the paper never made.  8 sessions interleave under a\n\
     seeded scheduler over ONE database: writer sessions scan-then-rewrite R1 sel\n\
     values (S locks upgraded to X points, breaking reader i-locks), reader sessions\n\
     access procedures under the strategy.  Strict 2PL blocks, upgrade stand-offs\n\
     deadlock, the youngest victim aborts via WAL rollback and restarts.  Sweeping\n\
     the writer share maps the writer-vs-cached-reader frontier: blocked-time\n\
     p50/p99, deadlock/victim counts, i-locks broken per committed writer txn.\n";
  let params =
    {
      Workload.Driver.default_sim_params with
      Params.n = 2000.0;
      n1 = 4.0;
      n2 = 4.0;
      q = 10.0;
      k = 10.0;
    }
  in
  let manager_kind = Proc.Manager.kind_of_strategy in
  let n_sessions = 8 and txns_per_session = 6 in
  let writer_counts = [ 1; 2; 4 ] in
  let cells =
    List.concat_map (fun s -> List.map (fun w -> (s, w)) writer_counts) Strategy.all
  in
  let run_cell cell_ix (strategy, writers) =
    let seed = Workload.Parallel.split_seed ~seed:!the_seed ~index:cell_ix in
    let ctx = Obs.Ctx.create () in
    let db = Workload.Database.build ~seed ~ctx ~model:Model.Model1 params in
    let record_bytes = int_of_float (Float.round params.Params.s) in
    let mgr =
      Proc.Manager.create (manager_kind strategy) ~io:db.Workload.Database.io ~record_bytes ()
    in
    let defs = Workload.Database.all_defs db in
    let pids = List.map (Proc.Manager.register mgr) defs in
    let tm =
      Txn.Manager.create ~record_bytes ~cost:db.Workload.Database.cost
        ~io:db.Workload.Database.io
        ~notify_delta:(fun ~rel ~inserted ~deleted ->
          Proc.Manager.on_delta mgr ~rel ~inserted ~deleted)
        ~notify_update:(fun ~rel ~changes -> Proc.Manager.on_update mgr ~rel ~changes)
        ()
    in
    (* Each procedure pins one i-lock per source region, owner = proc id.
       Writers' X grants break them; a commit re-pins the owner's set, as
       the next access to the invalidated procedure would. *)
    let ilock_regions =
      List.map2
        (fun pid def ->
          ( pid,
            List.map
              (fun (s : Query.View_def.source) ->
                Proc.Lock_manager.region_of_restriction
                  ~rel:(Relation.name s.Query.View_def.rel)
                  s.Query.View_def.restriction)
              (Query.View_def.sources def) ))
        pids defs
    in
    let pin_ilocks (pid, regions) =
      List.iteri (fun i r -> Txn.Manager.set_ilock tm ~owner:pid ~tag:i r) regions
    in
    List.iter pin_ilocks ilock_regions;
    let sprng = Util.Prng.create (Workload.Parallel.split_seed ~seed ~index:1) in
    let sel_attr = Schema.index_of (Relation.schema db.Workload.Database.r1) "sel" in
    let r1 = db.Workload.Database.r1 in
    (* Writer transaction: scan the interval spanning its rewrites under
       S, then upgrade to an X point per rewrite — the upgrade stand-off
       two writers can reach is exactly the deadlock the detector must
       break.  Locks are fixed at spec-build time so the interleaving is
       a pure function of the seed. *)
    let writer_txn () =
      let upds = Workload.Database.random_update db sprng in
      let sel_of tuple = Tuple.get tuple sel_attr in
      let points =
        List.concat_map
          (fun (rid, newt) -> [ sel_of (Relation.get r1 rid); sel_of newt ])
          upds
      in
      let lo = List.fold_left min (List.hd points) points in
      let hi = List.fold_left max (List.hd points) points in
      let scan =
        {
          Txn.Sim.locks =
            [
              ( `S,
                Proc.Lock_manager.Interval
                  {
                    rel = Relation.name r1;
                    attr = sel_attr;
                    lo = Index.Btree.Inclusive lo;
                    hi = Index.Btree.Inclusive hi;
                  } );
            ];
          exec = (fun _ _ -> ());
        }
      in
      scan
      :: List.map
           (fun (rid, newt) ->
             {
               Txn.Sim.locks =
                 [
                   ( `X,
                     Proc.Lock_manager.point ~rel:(Relation.name r1) ~attr:sel_attr
                       (sel_of newt) );
                 ];
               exec =
                 (fun tm id ->
                   let before = Relation.get r1 rid in
                   ignore (Relation.update r1 rid newt);
                   Txn.Manager.log_update tm id ~rel:r1 ~rid ~before ~after:newt;
                   Proc.Manager.on_update mgr ~rel:r1 ~changes:[ (before, newt) ]);
             })
           upds
    in
    (* Reader transaction: take every source's S lock across separate
       steps (holding the base lock while waiting on the next is what
       lets readers sit inside writer stand-offs), then access. *)
    let pid_arr = Array.of_list pids in
    let reader_txn () =
      let pid = Util.Prng.pick sprng pid_arr in
      let regions = List.assoc pid ilock_regions in
      List.map (fun r -> { Txn.Sim.locks = [ (`S, r) ]; exec = (fun _ _ -> ()) }) regions
      @ [ { Txn.Sim.locks = []; exec = (fun _ _ -> ignore (Proc.Manager.access mgr pid)) } ]
    in
    let sessions =
      List.init n_sessions (fun s ->
          List.init txns_per_session (fun _ ->
              if s < writers then writer_txn () else reader_txn ()))
    in
    let on_commit ~session:_ ~txn:_ ~broken =
      List.sort_uniq compare
        (List.map (fun (b : Proc.Lock_manager.broken) -> b.Proc.Lock_manager.owner) broken)
      |> List.iter (fun owner ->
             Txn.Manager.drop_ilocks tm ~owner;
             pin_ilocks (owner, List.assoc owner ilock_regions))
    in
    let stats =
      Txn.Sim.run ~on_commit ~seed:(Workload.Parallel.split_seed ~seed ~index:2) tm sessions
    in
    let total_ms =
      Storage.Cost.total_ms Storage.Cost.default_charges db.Workload.Database.cost
    in
    (ctx, stats, Txn.Manager.live_count tm, total_ms)
  in
  let results =
    Workload.Parallel.map ~jobs:!the_jobs
      (fun (i, c) -> run_cell i c)
      (List.mapi (fun i c -> (i, c)) cells)
  in
  let merged = Obs.Ctx.create () in
  let table =
    Util.Ascii_table.create
      ~header:
        [
          "strategy"; "writers"; "committed"; "deadlocks"; "victims"; "restarts";
          "blk p50"; "blk p99"; "ilk/wtxn"; "ms/txn"; "ok";
        ]
      ()
  in
  let all_ok = ref true in
  List.iter2
    (fun (strategy, writers) (ctx, (stats : Txn.Sim.stats), live, total_ms) ->
      Obs.Ctx.merge_into ~into:merged ctx;
      let m = Obs.Ctx.metrics ctx in
      let cycles = Obs.Metrics.get m Obs.Metrics.Deadlock_cycles in
      let victims = Obs.Metrics.get m Obs.Metrics.Deadlock_victims in
      let blocked = Obs.Histogram.named (Obs.Ctx.histograms ctx) "txn.blocked_ms" in
      let q p =
        if Obs.Histogram.count blocked = 0 then "-"
        else Printf.sprintf "%.1f" (Obs.Histogram.quantile blocked p)
      in
      let committed_writers = writers * txns_per_session in
      (* every transaction must eventually commit (victims restart), and
         the scheduler's victim count must agree with the counter *)
      let ok =
        stats.Txn.Sim.committed = n_sessions * txns_per_session
        && stats.Txn.Sim.victim_aborts = victims
        && live = 0
      in
      if not ok then all_ok := false;
      Util.Ascii_table.add_row table
        [
          Strategy.short_name strategy;
          string_of_int writers;
          string_of_int stats.Txn.Sim.committed;
          string_of_int cycles;
          string_of_int victims;
          string_of_int stats.Txn.Sim.restarts;
          q 0.5;
          q 0.99;
          Printf.sprintf "%.1f" (float_of_int stats.Txn.Sim.broken_ilocks /. float_of_int committed_writers);
          Printf.sprintf "%.1f" (total_ms /. float_of_int stats.Txn.Sim.committed);
          (if ok then "yes" else "NO");
        ])
    cells results;
  Util.Ascii_table.print table;
  Printf.printf "\nevery transaction committed and victim counts reconcile: %s\n\n"
    (if !all_ok then "yes" else "NO");
  merged

let print_ext_failover () =
  print_endline
    "== ext-failover: request latency through a node kill and replica promotion (3-node cluster)";
  print_endline
    "extension: the cluster's headline scenario.  A seeded loadgen-style statement mix\n\
     (30% writes, point reads, a cross-shard join every 25th op) runs against a 3-node\n\
     range-partitioned cluster with WAL-shipping replicas; the fault injector kills\n\
     node 1's primary mid-run, the coordinator promotes its replica (replaying the\n\
     shipped log) and retries the in-flight statement.  Latency is the per-statement\n\
     simulated cost the server-side histogram records — p50/p99 before, during (the\n\
     20-op window from the crash), and after; every statement must still succeed and\n\
     the merged cluster counters must reconcile appends with acks.\n";
  let nodes = 3 and n_ops = 300 and before_ops = 150 and window = 20 in
  let setup =
    [ "create R (k = int, v = int)"; "create S (k = int, w = int)" ]
    @ List.init 45 (fun i ->
          Printf.sprintf "append to R (k = %d, v = %d)" (i * 21001 mod 1_000_000) i)
    @ List.init 15 (fun i ->
          Printf.sprintf "append to S (k = %d, w = %d)" (i * 42002 mod 1_000_000) (100 + i))
    @ [ "define proc PJ as retrieve (R.v, S.w) where R.k = S.k" ]
  in
  let injector = Fault.Injector.create ~seed:!the_seed () in
  Fault.Injector.schedule_node_kills injector
    [ { Fault.Injector.node = 1; at_op = List.length setup + before_ops + 1 } ];
  let local = Net.Coordinator.create_local ~injector ~nodes () in
  let c = Net.Coordinator.coordinator local in
  List.iter (fun line -> assert (Net.Coordinator.exec c line).Net.Coordinator.ok) setup;
  let prng = Util.Prng.create !the_seed in
  let acked_appends = ref 60 (* setup *) and all_ok = ref true in
  let latencies =
    List.init n_ops (fun i ->
        let line =
          if (i + 1) mod 25 = 0 then "exec PJ"
          else if Util.Prng.int prng 10 < 3 then begin
            incr acked_appends;
            Printf.sprintf "append to R (k = %d, v = %d)" (Util.Prng.int prng 1_000_000)
              (Util.Prng.int prng 1000)
          end
          else
            Printf.sprintf "retrieve (R.v) where R.k = %d" (Util.Prng.int prng 1_000_000)
        in
        let t0 = Net.Coordinator.sim_ms c in
        let r = Net.Coordinator.exec c line in
        if not r.Net.Coordinator.ok then all_ok := false;
        Net.Coordinator.sim_ms c -. t0)
  in
  let phase name ops =
    [
      name;
      string_of_int (List.length ops);
      Printf.sprintf "%.1f" (Util.Stats.mean ops);
      Printf.sprintf "%.1f" (Util.Stats.percentile 0.5 ops);
      Printf.sprintf "%.1f" (Util.Stats.percentile 0.99 ops);
      Printf.sprintf "%.1f" (List.fold_left max 0.0 ops);
    ]
  in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  let drop n xs = List.filteri (fun i _ -> i >= n) xs in
  let table =
    Util.Ascii_table.create ~header:[ "phase"; "ops"; "mean ms"; "p50"; "p99"; "max" ] ()
  in
  Util.Ascii_table.add_row table (phase "before kill" (take before_ops latencies));
  Util.Ascii_table.add_row table
    (phase "during (crash+promote)" (take window (drop before_ops latencies)));
  Util.Ascii_table.add_row table (phase "after" (drop (before_ops + window) latencies));
  Util.Ascii_table.print table;
  let merged = Net.Coordinator.snapshot c in
  let g k = Obs.Metrics.get (Obs.Ctx.metrics merged) k in
  let reconciled = g Obs.Metrics.Heap_appends = !acked_appends in
  if not reconciled then all_ok := false;
  Printf.printf
    "\nkills %d  failovers %d  retries %d  records shipped %d  statements replayed %d\n"
    (g Obs.Metrics.Fault_node_kills)
    (g Obs.Metrics.Cluster_failovers)
    (g Obs.Metrics.Cluster_retries)
    (g Obs.Metrics.Repl_records_shipped)
    (g Obs.Metrics.Repl_statements_replayed);
  Printf.printf
    "every statement succeeded and cluster heap appends (%d) match acked appends (%d): %s\n\n"
    (g Obs.Metrics.Heap_appends) !acked_appends
    (if !all_ok && reconciled then "yes" else "NO");
  merged

let print_ext_2pc () =
  print_endline
    "== ext-2pc: distributed commit latency and abort rate vs cross-shard fraction (3-node cluster)";
  print_endline
    "extension: two clients run transactions concurrently (statements interleaved in\n\
     lockstep) against a 3-node cluster; each transaction is begin + 3 appends +\n\
     commit.  A single-shard transaction keeps its keys inside one partition, a\n\
     cross-shard one spreads them over the key domain, so the cross-shard fraction\n\
     controls how many participants two-phase commit must coordinate — and how often\n\
     the two clients' whole-relation append locks collide across nodes (deadlock\n\
     victims).  Commit latency is the simulated-clock delta around the commit\n\
     statement: one prepare round-trip per participant plus the decision-log append\n\
     and commit fan-out.\n";
  let nodes = 3 and rounds = 40 in
  let slice = 1_000_000 / nodes in
  let fractions = [ 0.0; 0.25; 0.5; 1.0 ] in
  let table =
    Util.Ascii_table.create
      ~header:
        [
          "cross-shard"; "txns"; "committed"; "aborted"; "abort %"; "parts/txn";
          "mean commit ms"; "p99 commit ms";
        ]
      ()
  in
  let last = ref None in
  List.iter
    (fun frac ->
      let local = Net.Coordinator.create_local ~nodes () in
      let c = Net.Coordinator.coordinator local in
      assert (Net.Coordinator.exec c "create R (k = int, v = int)").Net.Coordinator.ok;
      let prng = Util.Prng.create !the_seed in
      let commit_ms = ref [] and committed = ref 0 and aborted = ref 0 in
      (* commit cost lands on the participants (prepare handling, local
         commit, WAL), so the commit latency sample is the delta of the
         whole cluster's simulated clock, not just the coordinator's *)
      let cluster_ms () =
        let acc = ref (Net.Coordinator.sim_ms c) in
        for i = 0 to nodes - 1 do
          acc :=
            !acc
            +. Lang.Interp.simulated_ms
                 (Net.Node.session (Net.Coordinator.local_node local i))
        done;
        !acc
      in
      let mk_script () =
        let cross = Util.Prng.float prng < frac in
        let home = Util.Prng.int prng nodes in
        let body =
          List.init 3 (fun _ ->
              let k =
                if cross then Util.Prng.int prng 1_000_000
                else (home * slice) + Util.Prng.int prng slice
              in
              Printf.sprintf "append to R (k = %d, v = %d)" k
                (Util.Prng.int prng 1000))
        in
        ("begin" :: body) @ [ "commit" ]
      in
      (* one transaction per client per round, statements interleaved in
         lockstep; a parked statement is retried after the peer moves *)
      for _ = 1 to rounds do
        let scripts = [| mk_script (); mk_script () |] in
        let parked = [| None; None |] and finished = [| false; false |] in
        let step cl =
          if not finished.(cl) then
            let line =
              match parked.(cl) with
              | Some l -> l
              | None -> (
                match scripts.(cl) with
                | l :: rest ->
                  scripts.(cl) <- rest;
                  l
                | [] -> assert false)
            in
            let t0 = if line = "commit" then cluster_ms () else 0.0 in
            match Net.Coordinator.exec_client c ~client:(cl + 1) line with
            | `Park _ -> parked.(cl) <- Some line
            | `Done r ->
              parked.(cl) <- None;
              if r.Net.Coordinator.aborted then begin
                incr aborted;
                finished.(cl) <- true;
                scripts.(cl) <- []
              end
              else if line = "commit" then begin
                commit_ms := (cluster_ms () -. t0) :: !commit_ms;
                incr committed;
                finished.(cl) <- true
              end
        in
        let guard = ref 0 in
        while not (finished.(0) && finished.(1)) do
          incr guard;
          if !guard > 1000 then failwith "ext-2pc: interleaving livelocked";
          step 0;
          step 1
        done
      done;
      let m = Obs.Ctx.metrics (Net.Coordinator.ctx c) in
      let g k = Obs.Metrics.get m k in
      let txns = (2 * rounds) in
      Util.Ascii_table.add_row table
        [
          Printf.sprintf "%.2f" frac;
          string_of_int txns;
          string_of_int !committed;
          string_of_int !aborted;
          Printf.sprintf "%.1f" (100.0 *. float_of_int !aborted /. float_of_int txns);
          Printf.sprintf "%.2f"
            (float_of_int (g Obs.Metrics.Txn2pc_participants)
            /. float_of_int (max 1 (g Obs.Metrics.Txn2pc_begins)));
          Printf.sprintf "%.1f" (Util.Stats.mean !commit_ms);
          Printf.sprintf "%.1f" (Util.Stats.percentile 0.99 !commit_ms);
        ];
      last := Some (Net.Coordinator.snapshot c))
    fractions;
  Util.Ascii_table.print table;
  (match !last with
  | Some merged ->
    let g k = Obs.Metrics.get (Obs.Ctx.metrics merged) k in
    Printf.printf
      "\nfull-cross run: prepares %d  commit decisions %d  aborts %d  deadlock cycles %d\n\n"
      (g Obs.Metrics.Txn2pc_prepares)
      (g Obs.Metrics.Txn2pc_commits)
      (g Obs.Metrics.Txn2pc_aborts)
      (g Obs.Metrics.Deadlock_cycles)
  | None -> ());
  match !last with Some s -> s | None -> assert false

(* ------------------------------------------------------------ Bechamel *)

let bechamel_tests () =
  let open Bechamel in
  let figure_tests =
    List.map
      (fun fig ->
        Test.make ~name:fig.Figures.id
          (Staged.stage (fun () -> ignore (fig.Figures.output ()))))
      Figures.all
  in
  let sim_params =
    {
      Workload.Driver.default_sim_params with
      Params.n = 4000.0;
      n1 = 5.0;
      n2 = 5.0;
      q = 10.0;
      k = 10.0;
    }
  in
  (* Micro-benchmarks: wall-clock of the core data structures themselves
     (the simulated-cost layer is bypassed; this measures the library). *)
  let micro_tests =
    let cost = Storage.Cost.create () in
    Storage.Cost.disable cost;
    let io = Storage.Io.direct cost ~page_bytes:4000 in
    let btree = Index.Btree.create ~io ~entry_bytes:20 ~compare:Int.compare () in
    for i = 0 to 9_999 do
      Index.Btree.insert btree ((i * 7919) mod 10_000) i
    done;
    let hash =
      Index.Hash_index.create ~io ~entry_bytes:20 ~expected_entries:10_000 ~equal:Int.equal ()
    in
    for i = 0 to 9_999 do
      Index.Hash_index.insert hash i i
    done;
    let module Ii = Util.Interval_index.Make (Int) in
    let stabber = Ii.create () in
    for i = 0 to 999 do
      Ii.add stabber ~lo:(Ii.Incl (i * 10)) ~hi:(Ii.Excl ((i * 10) + 50)) i
    done;
    ignore (Ii.stab stabber 0);
    (* force the build outside the timed region *)
    let counter = ref 0 in
    [
      Test.make ~name:"micro-btree-search"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Index.Btree.search btree (!counter * 37 mod 10_000))));
      Test.make ~name:"micro-btree-insert"
        (Staged.stage (fun () ->
             incr counter;
             Index.Btree.insert btree (!counter mod 10_000) !counter));
      Test.make ~name:"micro-hash-probe"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Index.Hash_index.search hash (!counter * 31 mod 10_000))));
      Test.make ~name:"micro-interval-stab"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Ii.stab stabber (!counter * 13 mod 10_000))));
      Test.make ~name:"micro-yao-paper"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Util.Yao.paper ~n:10_000.0 ~m:250.0 ~k:(float_of_int (!counter mod 1000)))));
      (* manager lookup on a populated procedure table (the hot path of
         every access/on_delta dispatch; used to be O(procedures)) *)
      Test.make ~name:"micro-manager-lookup"
        (let ctx = Obs.Ctx.create () in
         let db =
           Workload.Database.build ~seed:42 ~ctx ~model:Model.Model1
             {
               Workload.Driver.default_sim_params with
               Params.n = 2000.0;
               n1 = 60.0;
               n2 = 0.0;
             }
         in
         let mgr =
           Proc.Manager.create Proc.Manager.Always_recompute
             ~io:db.Workload.Database.io ~record_bytes:100 ()
         in
         let ids =
           Array.of_list
             (List.map
                (fun def -> Proc.Manager.register mgr def)
                (Workload.Database.all_defs db))
         in
         Staged.stage (fun () ->
             incr counter;
             ignore (Proc.Manager.def_of mgr ids.(!counter mod Array.length ids))));
      (* wire-protocol encode + strict decode of one request frame *)
      Test.make ~name:"micro-net-protocol"
        (let dec = Net.Protocol.Decoder.create () in
         Staged.stage (fun () ->
             incr counter;
             let frame =
               Net.Protocol.request_to_string ~id:!counter
                 (Net.Protocol.Exec_line "retrieve (EMP.all) where EMP.age < 32")
             in
             Net.Protocol.Decoder.feed_string dec frame;
             match Net.Protocol.Decoder.next_request dec with
             | Net.Protocol.Msg _ -> ()
             | Net.Protocol.Awaiting | Net.Protocol.Corrupt _ -> assert false));
    ]
  in
  (* Executor engines head to head: the same prepared plan run by the
     tuple-at-a-time interpreter and the compiled batch pipeline.  Cost
     accounting is disabled (wall-clock of the engine itself). *)
  let exec_tests =
    let cost = Storage.Cost.create () in
    Storage.Cost.disable cost;
    let io = Storage.Io.direct cost ~page_bytes:4000 in
    let r_schema = Schema.create [ ("k", Value.TInt); ("v", Value.TInt) ] in
    let s_schema = Schema.create [ ("b", Value.TInt); ("w", Value.TInt) ] in
    let r = Relation.create ~io ~name:"R" ~schema:r_schema ~tuple_bytes:100 in
    Relation.load r
      (List.init 20_000 (fun i -> Tuple.create [ Value.Int i; Value.Int (i mod 500) ]));
    let s = Relation.create ~io ~name:"S" ~schema:s_schema ~tuple_bytes:100 in
    Relation.load s
      (List.init 500 (fun b -> Tuple.create [ Value.Int b; Value.Int (b * 10) ]));
    Relation.add_hash_index ~primary:true s ~attr:"b" ~entry_bytes:20
      ~expected_entries:500;
    let scan_plan =
      Query.Executor.prepare
        (Query.Planner.compile
           (Query.View_def.select ~name:"scan" ~rel:r
              ~restriction:
                [ Predicate.term ~attr:1 ~op:Predicate.Lt ~value:(Value.Int 250) ]))
    in
    let join_plan =
      Query.Executor.prepare
        (Query.Planner.compile
           (Query.View_def.join
              (Query.View_def.select ~name:"join" ~rel:r
                 ~restriction:
                   [ Predicate.term ~attr:0 ~op:Predicate.Lt ~value:(Value.Int 4000) ])
              ~rel:s ~restriction:Predicate.always_true ~left:"R.v" ~op:Predicate.Eq
              ~right:"b"))
    in
    let engine_test name engine prepared =
      Test.make ~name
        (Staged.stage (fun () ->
             Query.Executor.set_engine engine;
             ignore (Query.Executor.run_prepared prepared)))
    in
    (* Statement-replay throughput: the same retrieve line through a
       session with and without the statement cache (parse + bind + plan
       skipped on every repeat when it is on). *)
    let stmt_test name plan_cache =
      let interp = Lang.Interp.create ~ctx:(Obs.Ctx.create ()) ~plan_cache () in
      List.iter
        (fun line ->
          match Lang.Interp.exec_line interp line with
          | Ok _ -> ()
          | Error msg -> failwith msg)
        ("create emp (name = string, age = int, dept = int)"
        :: List.init 200 (fun i ->
               Printf.sprintf "append to emp (name = \"e%d\", age = %d, dept = %d)" i
                 (20 + (i mod 40))
                 (i mod 8)));
      Test.make ~name
        (Staged.stage (fun () ->
             match
               Lang.Interp.exec_line interp
                 "retrieve (emp.name, emp.age) where emp.dept = 3 and emp.age < 32"
             with
             | Ok _ -> ()
             | Error msg -> failwith msg))
    in
    [
      engine_test "micro-exec-scan-interp" Query.Executor.Tuple_interp scan_plan;
      engine_test "micro-exec-scan-compiled" Query.Executor.Batch_compiled scan_plan;
      engine_test "micro-exec-join-interp" Query.Executor.Tuple_interp join_plan;
      engine_test "micro-exec-join-compiled" Query.Executor.Batch_compiled join_plan;
      stmt_test "micro-stmt-cache-on" true;
      stmt_test "micro-stmt-cache-off" false;
    ]
  in
  let micro_tests = micro_tests @ exec_tests in
  let sim_tests =
    [
      Test.make ~name:"sim-model1"
        (Staged.stage (fun () ->
             ignore
               (Workload.Driver.run_strategy ~check_consistency:false ~model:Model.Model1
                  ~params:sim_params Strategy.Update_cache_avm)));
      Test.make ~name:"sim-model2"
        (Staged.stage (fun () ->
             ignore
               (Workload.Driver.run_strategy ~check_consistency:false ~model:Model.Model2
                  ~params:sim_params Strategy.Update_cache_rvm)));
    ]
  in
  figure_tests @ sim_tests @ micro_tests

let run_bechamel ~quota tests =
  let open Bechamel in
  if tests <> [] then begin
    print_endline "== bechamel: wall-clock per experiment regeneration";
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
    in
    let grouped = Test.make_grouped ~name:"dbproc" tests in
    let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
    let ols =
      Analyze.all
        (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
        Toolkit.Instance.monotonic_clock raw
    in
    let table = Util.Ascii_table.create ~header:[ "experiment"; "time/run"; "r^2" ] () in
    let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) ols [] in
    List.iter
      (fun (name, ols) ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        let pretty =
          if Float.is_nan estimate then "-"
          else if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
          else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
          else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
          else Printf.sprintf "%.0f ns" estimate
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        Util.Ascii_table.add_row table [ name; pretty; r2 ])
      (List.sort compare rows);
    Util.Ascii_table.print table;
    print_newline ()
  end

(* -------------------------------------------------------------- CSV out *)

let write_csv dir (fig : Figures.t) =
  match fig.Figures.output () with
  | Figures.Series { x_label; columns; rows; _ } ->
    let path = Filename.concat dir (fig.Figures.id ^ ".csv") in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "%s,%s\n" x_label (String.concat "," columns);
        List.iter
          (fun (x, ys) ->
            Printf.fprintf oc "%g,%s\n" x (String.concat "," (List.map (Printf.sprintf "%g") ys)))
          rows);
    Printf.printf "wrote %s\n" path
  | Figures.Table { header; rows } ->
    let path = Filename.concat dir (fig.Figures.id ^ ".csv") in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "%s\n" (String.concat "," header);
        List.iter (fun row -> Printf.fprintf oc "%s\n" (String.concat "," row)) rows);
    Printf.printf "wrote %s\n" path
  | Figures.Region _ -> () (* region maps have no tabular form *)

(* ------------------------------------------------------------- Registry *)

let recorded id f = (id, fun () -> record id f)

(* Every runnable id, in run-everything order.  Selecting ids runs the
   matching entries in this order; [engine] entries charge the engine and
   are skipped by --no-sim. *)
let analytic =
  List.map
    (fun fig ->
      ( fig.Figures.id,
        fun () ->
          record fig.Figures.id (fun () ->
              print_string (Figures.render fig);
              print_newline ();
              print_newline ();
              (* analytic figures charge no engine context *)
              Obs.Ctx.create ());
          if fig.Figures.id = "fig18" then print_crossovers () ))
    Figures.all
  @ [
      ("fig3-network", fun () -> print_network_figure "fig3-network" Model.Model1);
      ("fig16-network", fun () -> print_network_figure "fig16-network" Model.Model2);
    ]

let engine =
  let base = Workload.Driver.default_sim_params in
  let sim label params = print_sim_comparison ~label ~params ~model:Model.Model1 in
  [
    recorded "sim-model1" (print_sim_comparison ~model:Model.Model1);
    recorded "sim-model2" (print_sim_comparison ~model:Model.Model2);
    recorded "sim-fig4" (sim "fig4" { base with Params.c_inval = 60.0 });
    recorded "sim-fig6" (sim "fig6" { base with Params.f = 0.01 });
    recorded "sim-fig7" (sim "fig7" { base with Params.f = 0.0005 });
    recorded "sim-fig9" (sim "fig9" { base with Params.z = 0.05 });
    ("ablation-buffer", print_ablation_buffer);
    ("ablation-yao", print_ablation_yao);
    ("ablation-rete-shape", print_ablation_rete_shape);
    ("ablation-obs", print_ablation_obs_overhead);
    recorded "ext-update-mix" print_ext_update_mix;
    recorded "ext-wal" print_ext_wal;
    recorded "ext-faults" print_ext_faults;
    recorded "ext-aggregates" print_ext_aggregates;
    recorded "ext-adaptive" print_ext_adaptive;
    recorded "ext-winregion" print_ext_winregion;
    recorded "ext-evict" print_ext_evict;
    recorded "ext-contention" print_ext_contention;
    recorded "ext-failover" print_ext_failover;
    recorded "ext-2pc" print_ext_2pc;
    recorded "ext-nway" print_ext_nway;
    recorded "ext-sensitivity" print_ext_sensitivity;
    recorded "ext-latency" print_ext_latency;
    recorded "ext-treat" print_ext_treat;
  ]

(* ----------------------------------------------------------------- Main *)

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let quota = ref 0.3
let csv_dir : string option ref = ref None

let set_flag flag v =
  match flag with
  | "--quota" -> (
    match float_of_string_opt v with
    | Some q when Float.is_finite q && q > 0.0 -> quota := q
    | _ -> usage_error "--quota expects a positive number of seconds, got %S" v)
  | "--csv" -> csv_dir := Some v
  | "--seed" -> (
    match int_of_string_opt v with
    | Some s -> the_seed := s
    | None -> usage_error "--seed expects an integer, got %S" v)
  | "--jobs" -> (
    match int_of_string_opt v with
    | Some j when j >= 1 -> the_jobs := j
    | _ -> usage_error "--jobs expects a positive integer, got %S" v)
  | "--json" -> json_out := Some v
  | _ (* --strategies *) ->
    the_strategies :=
      Some
        (List.map
           (fun name ->
             match Strategy.of_string (String.trim name) with
             | Some s -> s
             | None ->
               usage_error "--strategies: unknown strategy %S (ar|ci|avm|rvm|hoivm)" name)
           (String.split_on_char ',' v))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let bechamel = ref true and sim = ref true in
  let rec parse ids = function
    | [] -> List.rev ids
    | "--no-bechamel" :: rest ->
      bechamel := false;
      parse ids rest
    | "--no-sim" :: rest ->
      sim := false;
      parse ids rest
    | (("--quota" | "--csv" | "--seed" | "--jobs" | "--json" | "--strategies") as flag)
      :: rest -> (
      match rest with
      | v :: rest when not (String.starts_with ~prefix:"--" v) ->
        set_flag flag v;
        parse ids rest
      | _ -> usage_error "%s requires a value" flag)
    | flag :: _ when String.starts_with ~prefix:"--" flag -> usage_error "unknown flag %s" flag
    | id :: rest -> parse (id :: ids) rest
  in
  let ids = parse [] args in
  let registry = analytic @ engine in
  let selected id = ids = [] || List.mem id ids in
  (* bechamel tests build their fixtures eagerly: only when asked for *)
  let bechamel_all = lazy (bechamel_tests ()) in
  (match List.filter (fun id -> not (List.mem_assoc id registry)) ids with
  | [] -> ()
  | unknown -> (
    let micro =
      List.filter
        (fun name -> not (List.mem_assoc name registry))
        (List.map Bechamel.Test.name (Lazy.force bechamel_all))
    in
    match List.find_opt (fun id -> not (List.mem id micro)) unknown with
    | None -> ()
    | Some id ->
      usage_error "unknown id %S; valid ids: %s" id
        (String.concat " " (List.map fst registry @ micro))));
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter (write_csv dir)
        (List.filter (fun f -> selected f.Figures.id) Figures.all))
    !csv_dir;
  List.iter
    (fun (id, run) -> if selected id then run ())
    (analytic @ if !sim then engine else []);
  (match !json_out with
  | Some path ->
    let doc =
      Obs.Export.Obj
        [
          ("schema_version", Obs.Export.Int 1);
          ("seed", Obs.Export.Int !the_seed);
          ("experiments", Obs.Export.Obj (List.rev !experiments));
        ]
    in
    Obs.Export.write_file path (Obs.Export.to_string doc);
    Printf.printf "wrote %s\n" path
  | None -> ());
  if !bechamel then
    run_bechamel ~quota:!quota
      (List.filter
         (fun t -> selected (Bechamel.Test.name t))
         (Lazy.force bechamel_all))
