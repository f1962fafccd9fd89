(* procsim: command-line front end to the reproduction.

   Subcommands:
     figures [IDS...]   render the paper's tables and figures
     sim                run the engine-measured workload comparison
     cost               print a cost breakdown for one configuration
     advise             recommend a strategy for a workload (Section 8)
     params             print the Figure-2 parameter defaults *)

open Cmdliner
open Dbproc
open Dbproc.Costmodel

(* ------------------------------------------------------ shared options *)

let model_term =
  let parse = function
    | "1" | "model1" -> Ok Model.Model1
    | "2" | "model2" -> Ok Model.Model2
    | s -> Error (`Msg (Printf.sprintf "unknown model %S (use 1 or 2)" s))
  in
  let print ppf m = Format.pp_print_string ppf (Model.which_name m) in
  Arg.(
    value
    & opt (conv (parse, print)) Model.Model1
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Procedure model: 1 (2-way joins) or 2 (3-way).")

let float_opt_term names ~doc =
  Arg.(value & opt (some float) None & info names ~docv:"X" ~doc)

let apply_overrides params ~p ~f ~f2 ~sf ~z ~c_inval ~n1 ~n2 =
  let params = match f with Some f -> { params with Params.f } | None -> params in
  let params = match f2 with Some f2 -> { params with Params.f2 } | None -> params in
  let params = match sf with Some sf -> { params with Params.sf } | None -> params in
  let params = match z with Some z -> { params with Params.z } | None -> params in
  let params =
    match c_inval with Some c_inval -> { params with Params.c_inval } | None -> params
  in
  let params = match n1 with Some n1 -> { params with Params.n1 } | None -> params in
  let params = match n2 with Some n2 -> { params with Params.n2 } | None -> params in
  match p with Some p -> Params.with_update_probability params p | None -> params

let params_term =
  let p = float_opt_term [ "p" ] ~doc:"Update probability P = k/(k+q)." in
  let f = float_opt_term [ "f" ] ~doc:"Selectivity of C_f(R1) (object size)." in
  let f2 = float_opt_term [ "f2" ] ~doc:"Selectivity of C_f2(R2)." in
  let sf = float_opt_term [ "sf" ] ~doc:"Sharing factor." in
  let z = float_opt_term [ "z" ] ~doc:"Locality (fraction of hot procedures)." in
  let c_inval = float_opt_term [ "c-inval" ] ~doc:"Cost (ms) to record an invalidation." in
  let n1 = float_opt_term [ "n1" ] ~doc:"Number of P1 procedures." in
  let n2 = float_opt_term [ "n2" ] ~doc:"Number of P2 procedures." in
  Term.(
    const (fun p f f2 sf z c_inval n1 n2 ->
        apply_overrides Params.default ~p ~f ~f2 ~sf ~z ~c_inval ~n1 ~n2)
    $ p $ f $ f2 $ sf $ z $ c_inval $ n1 $ n2)

(* -------------------------------------------------------------- figures *)

let figures_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run ids =
    let selected =
      match ids with
      | [] -> Figures.all
      | ids ->
        List.iter
          (fun id ->
            if Figures.find id = None then (
              Printf.eprintf "unknown experiment %S; known ids:\n" id;
              List.iter (fun f -> Printf.eprintf "  %s\n" f.Figures.id) Figures.all;
              exit 1))
          ids;
        List.filter (fun f -> List.mem f.Figures.id ids) Figures.all
    in
    List.iter
      (fun fig ->
        print_string (Figures.render fig);
        print_newline ())
      selected
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Render the paper's tables and figures (all, or the given ids).")
    Term.(const run $ ids)

(* ------------------------------------------------------------------ sim *)

(* Numeric flags whose range the engine relies on: an out-of-range value
   is a usage error (exit 124), not an exception from deep inside a run. *)
let checked_conv ~expect parse ok print =
  Arg.conv
    ( (fun s ->
        match parse s with
        | Some x when ok x -> Ok x
        | _ -> Error (`Msg (Printf.sprintf "%S: expected %s" s expect))),
      print )

let scale_term =
  Arg.(
    value
    & opt (checked_conv ~expect:"a number > 0" float_of_string_opt (fun x -> x > 0.0)
             Format.pp_print_float) 10.0
    & info [ "scale" ] ~docv:"X" ~doc:"Scale-down factor applied to N, N1, N2, q, k.")

let sim_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Run the four strategies on up to $(docv) domains (results are identical).")
  in
  let faults =
    Arg.(
      value
      & opt (some int) None
      & info [ "faults" ] ~docv:"SEED"
          ~doc:
            "Enable fault injection: transient I/O failures plus crash points derived from \
             $(docv).  Results must still match a fault-free run.")
  in
  let results_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "results-json" ] ~docv:"FILE"
          ~doc:
            "Write the per-strategy access-result digests to $(docv).  The file depends \
             only on observable results — a faulted-then-recovered run produces a \
             byte-identical file to the oracle's (CI compares them with cmp).")
  in
  let cache_budget =
    Arg.(
      value
      & opt
          (some (checked_conv ~expect:"an integer >= 0" int_of_string_opt (fun b -> b >= 0)
                   Format.pp_print_int))
          None
      & info [ "cache-budget" ] ~docv:"PAGES"
          ~doc:
            "Place every strategy's stored results under a shared cache budget of $(docv) \
             pages: admissions/evictions are decided by $(b,--cache-policy), and evicted \
             entries fall back to recompute-on-access.  0 degrades CI and AVM to \
             Always-Recompute cost behavior.")
  in
  let cache_policy =
    let parse s =
      match Cache.Policy.of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown policy %S (lru|cost-aware)" s))
    in
    let pp ppf p = Format.pp_print_string ppf (Cache.Policy.name p) in
    Arg.(
      value
      & opt (some (conv (parse, pp))) None
      & info [ "cache-policy" ] ~docv:"POLICY"
          ~doc:"Eviction policy for $(b,--cache-budget): lru or cost-aware.")
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Also run the adaptive strategy selector (starting from Always Recompute, \
             migrating procedures when the cost model predicts a cheaper strategy) and \
             report it as a fifth row.")
  in
  (* Faulted runs go through Driver.run_with_crashes, strategy by strategy.
     Crash points are spread deterministically from the fault seed: a probe
     run with a disabled injector measures each strategy's touch count and
     the schedule is drawn as fractions of it. *)
  let run_crash_mode model params seed fault_seed results_json =
    let results =
      List.map
        (fun strategy ->
          let fault_config, crash_points =
            match fault_seed with
            | None -> (None, [])
            | Some fs ->
              let probe =
                Workload.Driver.run_with_crashes ~seed
                  ~fault_config:Fault.Injector.no_faults ~fault_seed:fs ~model ~params
                  strategy
              in
              let touches = probe.Workload.Driver.cr_stats.Workload.Driver.cs_touches in
              let prng = Util.Prng.create fs in
              let points =
                List.init 3 (fun _ -> 1 + Util.Prng.int prng (max 1 touches))
              in
              (Some Fault.Injector.default_config, points)
          in
          let r =
            Workload.Driver.run_with_crashes ~seed ?fault_config ~crash_points
              ?fault_seed ~model ~params strategy
          in
          Format.printf "%a@." Workload.Driver.pp_crash_result r;
          r)
        Strategy.all
    in
    match results_json with
    | None -> ()
    | Some file ->
      let open Obs.Export in
      let doc =
        Obj
          [
            ("schema_version", Int 1);
            ("kind", String "access-results");
            ("model", String (Model.which_name model));
            ("seed", Int seed);
            ( "strategies",
              Obj
                (List.map
                   (fun r ->
                     ( Strategy.short_name r.Workload.Driver.cr_strategy,
                       Obj
                         [
                           ("queries", Int r.Workload.Driver.cr_queries);
                           ("updates", Int r.Workload.Driver.cr_updates);
                           ("digest", String (Workload.Driver.result_digest r));
                         ] ))
                   results) );
          ]
      in
      write_file file (to_string doc);
      Printf.printf "wrote %s\n" file
  in
  (* The adaptive row has no single analytic prediction, so it gets its
     own line with migration/eviction telemetry instead of pp_result. *)
  let print_adaptive (r : Workload.Driver.result) =
    let open Workload.Driver in
    let m = Obs.Ctx.metrics r.obs in
    Printf.printf
      "%-22s q=%d u=%d measured=%.1f ms/query (reads=%d writes=%d screens=%d delta=%d \
       inval=%d migrations=%d)%s\n"
      "adaptive" r.queries r.updates r.measured_ms_per_query r.page_reads r.page_writes
      r.cpu_screens r.delta_ops r.invalidations
      (Obs.Metrics.get m Obs.Metrics.Adaptive_migrations)
      (if r.consistent then "" else " INCONSISTENT")
  in
  let run model params seed scale jobs faults results_json cache_budget cache_policy
      adaptive =
    if jobs < 1 then (
      Printf.eprintf "procsim: --jobs must be >= 1\n";
      exit 2);
    let params = Workload.Driver.scale_params params ~factor:scale in
    Printf.printf "simulating %s at N=%g, N1=%g, N2=%g, q=%g, k=%g (seed %d, jobs %d)\n\n"
      (Model.which_name model) params.Params.n params.Params.n1 params.Params.n2
      params.Params.q params.Params.k seed jobs;
    if faults <> None || results_json <> None then begin
      if cache_budget <> None || cache_policy <> None || adaptive then (
        Printf.eprintf
          "procsim: --cache-budget/--cache-policy/--adaptive cannot be combined with \
           --faults/--results-json\n";
        exit 2);
      run_crash_mode model params seed faults results_json
    end
    else begin
      let results =
        Workload.Parallel.run_all ~seed ~jobs ?cache_budget ?cache_policy ~adaptive ~model
          ~params ()
      in
      List.iteri
        (fun i r ->
          if adaptive && i = List.length results - 1 then print_adaptive r
          else Format.printf "%a@." Workload.Driver.pp_result r)
        results;
      if cache_budget <> None then begin
        let peak =
          List.fold_left
            (fun acc (r : Workload.Driver.result) ->
              max acc r.Workload.Driver.cache_peak_pages)
            0 results
        in
        Printf.printf "\ncache budget: %d pages (peak used across runs: %d)\n"
          (Option.get cache_budget) peak
      end
    end
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Run the update/access workload against the real engine under all four strategies \
          and report measured vs analytic ms/query.  With $(b,--faults) the run goes \
          through the fault-injection layer (crashes + transient failures + recovery); \
          with $(b,--results-json) the observable results are exported for oracle \
          comparison.  $(b,--cache-budget) bounds the pages the stored results may \
          occupy; $(b,--adaptive) adds the runtime strategy selector as a fifth row.")
    Term.(
      const run $ model_term $ params_term $ seed $ scale_term $ jobs $ faults $ results_json
      $ cache_budget $ cache_policy $ adaptive)

(* ----------------------------------------------------------------- cost *)

let strategy_term =
  let parse s =
    match Strategy.of_string s with
    | Some s -> Ok s
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S (ar|ci|avm|rvm|hoivm)" s))
  in
  Arg.(
    value
    & opt (some (conv (parse, Strategy.pp))) None
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Strategy to break down (default: all four).")

let cost_cmd =
  let run model params strategy =
    let strategies = match strategy with Some s -> [ s ] | None -> Strategy.all in
    List.iter
      (fun s ->
        Printf.printf "%s, %s: %.2f ms/query\n" (Strategy.name s) (Model.which_name model)
          (Model.cost model params s);
        List.iter
          (fun (name, v) -> Printf.printf "  %-42s %10.2f\n" name v)
          (Model.breakdown model params s);
        print_newline ())
      strategies
  in
  Cmd.v
    (Cmd.info "cost" ~doc:"Print the analytic cost breakdown at a parameter setting.")
    Term.(const run $ model_term $ params_term $ strategy_term)

(* --------------------------------------------------------------- advise *)

let advise_cmd =
  let run model params =
    let best = Regions.best model params in
    let costs = List.map (fun s -> (s, Model.cost model params s)) Strategy.all in
    Printf.printf "workload: P=%.2f f=%g f2=%g SF=%.2f Z=%.2f C_inval=%g (%s)\n\n"
      (Params.update_probability params)
      params.Params.f params.Params.f2 params.Params.sf params.Params.z
      params.Params.c_inval (Model.which_name model);
    List.iter
      (fun (s, c) ->
        Printf.printf "  %-24s %10.1f ms/query%s\n" (Strategy.name s) c
          (if s = best then "   <- recommended" else ""))
      costs;
    print_newline ();
    (* Section 8 guidance. *)
    let p = Params.update_probability params in
    if p > 0.7 then
      print_endline
        "High update probability: Update Cache degrades sharply here; Cache and Invalidate \
         is the safe second choice (its plateau sits just above Always Recompute)."
    else if params.Params.f >= 0.01 then
      print_endline
        "Large objects: incremental maintenance is much cheaper than recomputation, so \
         Update Cache wins when updates are not too frequent."
    else if Model.false_invalidation_probability params > 0.5 then
      Printf.printf
        "Note: %.0f%% of invalidations would be false (1 - f2); Update Cache avoids \
         recomputations that Cache and Invalidate triggers needlessly.\n"
        (100.0 *. Model.false_invalidation_probability params)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Recommend a processing strategy for a workload, per the paper's Section 8 \
          decision rules.")
    Term.(const run $ model_term $ params_term)

(* ---------------------------------------------------------- sensitivity *)

let sensitivity_cmd =
  let run model params =
    Printf.printf "cost elasticity per parameter at P=%.2f f=%g (%s)\n\n"
      (Params.update_probability params)
      params.Params.f (Model.which_name model);
    let table =
      Util.Ascii_table.create
        ~header:("parameter" :: List.map Strategy.short_name Strategy.all)
        ()
    in
    List.iter
      (fun (name, cells) ->
        Util.Ascii_table.add_row table
          (name :: List.map (fun (_, e) -> Printf.sprintf "%+.2f" e) cells))
      (Sensitivity.table model params);
    Util.Ascii_table.print table
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Print cost elasticities (% cost change per % parameter change) per strategy.")
    Term.(const run $ model_term $ params_term)

(* ------------------------------------------------------------- anchors *)

let anchors_cmd =
  let run () =
    (match Figures.crossover_sf Model.Model2 Params.default with
    | Some sf -> Printf.printf "model 2 AVM/RVM crossover: SF = %.3f (paper: ~0.47)\n" sf
    | None -> print_endline "model 2 AVM/RVM crossover: none");
    (match Figures.crossover_sf Model.Model1 Params.default with
    | Some sf -> Printf.printf "model 1 AVM/RVM crossover: SF = %.3f (paper: near 1)\n" sf
    | None -> print_endline "model 1 AVM/RVM crossover: none");
    let p7 =
      Params.with_update_probability { Params.default with Params.f = 0.0001 } 0.1
    in
    let cost s = Model.cost Model.Model1 p7 s in
    Printf.printf "fig7 anchor (f=0.0001, P=0.1): AR/CI = %.1fx, AR/UC = %.1fx (paper: ~5x, ~7x)\n"
      (cost Strategy.Always_recompute /. cost Strategy.Cache_invalidate)
      (cost Strategy.Always_recompute /. cost Strategy.Update_cache_avm);
    let p0 = Params.with_update_probability Params.default 0.0 in
    Printf.printf "P=0: CI = AVM = RVM = %.0f ms (C_read)\n"
      (Model.cost Model.Model1 p0 Strategy.Cache_invalidate)
  in
  Cmd.v
    (Cmd.info "anchors" ~doc:"Print the paper's headline quantitative anchors.")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- stats *)

let stats_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let spans =
    Arg.(
      value & opt int 12
      & info [ "spans" ] ~docv:"N" ~doc:"Number of trailing root spans to render.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the observability snapshot as JSON.")
  in
  let run model params strategy seed scale spans json =
    let strategy = Option.value strategy ~default:Strategy.Update_cache_rvm in
    let params = Workload.Driver.scale_params params ~factor:scale in
    (* The run gets a private engine context with tracing pre-enabled; all
       reporting below reads that context, never any global state. *)
    let ctx = Obs.Ctx.create () in
    Obs.Trace.set_enabled (Obs.Ctx.trace ctx) true;
    let r = Workload.Driver.run_strategy ~seed ~ctx ~model ~params strategy in
    Format.printf "%a@.@." Workload.Driver.pp_result r;
    let metrics = Obs.Ctx.metrics ctx in
    let counters =
      Util.Ascii_table.create ~aligns:[ Util.Ascii_table.Left ] ~header:[ "counter"; "value" ] ()
    in
    let zeros = ref 0 in
    List.iter
      (fun (k, v) ->
        if v = 0 then incr zeros
        else Util.Ascii_table.add_row counters [ k; string_of_int v ])
      (Obs.Metrics.counters metrics);
    List.iter
      (fun (k, v) -> Util.Ascii_table.add_row counters [ k ^ " (gauge)"; string_of_int v ])
      (Obs.Metrics.gauges metrics);
    Util.Ascii_table.print counters;
    if !zeros > 0 then Printf.printf "(%d zero counters omitted)\n" !zeros;
    print_newline ();
    let hists =
      Util.Ascii_table.create ~aligns:[ Util.Ascii_table.Left ]
        ~header:[ "histogram"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ] ()
    in
    List.iter
      (fun (name, h) ->
        if Obs.Histogram.count h > 0 then
          Util.Ascii_table.add_row hists
            [
              name;
              string_of_int (Obs.Histogram.count h);
              Printf.sprintf "%.1f" (Obs.Histogram.mean h);
              Printf.sprintf "%.0f" (Obs.Histogram.quantile h 0.5);
              Printf.sprintf "%.0f" (Obs.Histogram.quantile h 0.9);
              Printf.sprintf "%.0f" (Obs.Histogram.quantile h 0.99);
              Printf.sprintf "%.0f" (Obs.Histogram.max_value h);
            ])
      (Obs.Histogram.all_named (Obs.Ctx.histograms ctx));
    Util.Ascii_table.print hists;
    print_newline ();
    Printf.printf "last %d root spans (simulated ms):\n" spans;
    print_string (Obs.Trace.render ~limit:spans (Obs.Ctx.trace ctx));
    match json with
    | None -> ()
    | Some path ->
      Obs.Export.write_file path
        (Obs.Export.to_string
           (Obs.Export.snapshot
              ~extra:
                [
                  ("strategy", Obs.Export.String (Strategy.short_name strategy));
                  ("seed", Obs.Export.Int seed);
                ]
              ctx));
      Printf.printf "\nwrote %s\n" path
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the workload under one strategy (default rvm) with tracing on, then print the \
          engine's counters, gauges, latency histograms and a span tree of the most recent \
          procedure accesses and update propagations.")
    Term.(
      const run $ model_term $ params_term $ strategy_term $ seed $ scale_term $ spans $ json)

(* ----------------------------------------------------------- json-check *)

let json_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSON file produced by bench --json or stats --json.")
  in
  let run file =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Obs.Export.parse text with
    | Error msg -> `Error (false, Printf.sprintf "%s: invalid JSON: %s" file msg)
    | Ok doc ->
      let summary =
        (* bench documents carry schema_version/experiments; a bare stats
           snapshot carries counters directly.  Accept both. *)
        match (Obs.Export.member "experiments" doc, Obs.Export.member "counters" doc) with
        | Some (Obs.Export.Obj []), _ -> Error "\"experiments\" is empty"
        | Some (Obs.Export.Obj fields), _ ->
          Ok
            (Printf.sprintf "%d experiments (%s)" (List.length fields)
               (String.concat ", " (List.map fst fields)))
        | Some _, _ -> Error "\"experiments\" is not an object"
        | None, Some (Obs.Export.Obj fields) ->
          Ok (Printf.sprintf "snapshot with %d counters" (List.length fields))
        | None, _ -> Error "neither \"experiments\" nor \"counters\" present"
      in
      (match summary with
      | Ok s ->
        Printf.printf "%s: ok — %s\n" file s;
        `Ok ()
      | Error why -> `Error (false, Printf.sprintf "%s: %s" file why))
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:"Parse and validate an observability JSON file; exits nonzero if malformed.")
    Term.(ret (const run $ file))

(* ---------------------------------------------------------- shell / run *)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "%S: expected HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port_s = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port_s with
    | Some port when port > 0 && port < 65536 && host <> "" -> Ok (host, port)
    | _ -> Error (Printf.sprintf "%S: expected HOST:PORT" s))

let shell_cmd =
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Talk to a $(b,procsim serve) instance over the wire protocol instead of an \
                in-process engine.")
  in
  let run_remote host port =
    match Net.Client.connect ~host ~port () with
    | exception e ->
      `Error (false, Printf.sprintf "cannot connect to %s:%d (%s)" host port (Printexc.to_string e))
    | client ->
      Printf.printf "dbproc shell — connected to %s:%d; 'help' lists commands; ctrl-d exits.\n" host
        port;
      let rec loop () =
        Printf.printf "dbproc[%s:%d]> %!" host port;
        match In_channel.input_line stdin with
        | None -> print_newline ()
        | Some line when String.trim line = "" -> loop ()
        | Some line when String.trim line = "quit" || String.trim line = "exit" -> ()
        | Some line ->
          (* A server refuses [save]: the shell saves the server's
             [show script] reply here, on the client. *)
          let line, print_output =
            match Lang.Parser.parse_command line with
            | Lang.Ast.Save file ->
              ( Lang.Ast.to_string (Lang.Ast.Show `Script),
                fun script ->
                  match Lang.Interp.save_script ~file script with
                  | saved -> print_endline saved
                  | exception Lang.Interp.Runtime_error msg -> Printf.printf "error: %s\n" msg )
            | _ | (exception (Lang.Parser.Parse_error _ | Lang.Lexer.Lex_error _)) ->
              (line, print_endline)
          in
          (match Net.Client.call client (Net.Protocol.Exec_line line) with
          | Net.Protocol.Output output -> print_output output
          | Net.Protocol.Failed msg -> Printf.printf "error: %s\n" msg
          | Net.Protocol.Rejected msg -> Printf.printf "rejected: %s\n" msg
          | Net.Protocol.Aborted msg -> Printf.printf "aborted: %s\n" msg
          | Net.Protocol.Blocked holders ->
            Printf.printf "blocked on transaction(s) %s\n" holders
          | Net.Protocol.Tuples body | Net.Protocol.Wal_records body ->
            print_endline body
          | Net.Protocol.Pong -> ());
          loop ()
      in
      let result =
        match loop () with
        | () -> `Ok ()
        | exception Net.Client.Closed -> `Error (false, "server closed the connection")
        | exception Net.Client.Protocol_error msg ->
          `Error (false, Printf.sprintf "protocol error: %s" msg)
      in
      Net.Client.close client;
      result
  in
  let run connect =
    match connect with
    | Some target -> (
      match parse_host_port target with
      | Error msg -> `Error (true, msg)
      | Ok (host, port) -> run_remote host port)
    | None ->
      let session = Lang.Interp.create () in
      print_endline "dbproc shell — QUEL-flavored commands; 'help' lists them; ctrl-d exits.";
      let rec loop () =
        Printf.printf "dbproc[%s]> %!" (Lang.Interp.strategy_name session);
        match In_channel.input_line stdin with
        | None -> print_newline ()
        | Some line when String.trim line = "" -> loop ()
        | Some line when String.trim line = "quit" || String.trim line = "exit" -> ()
        | Some line ->
          (match Lang.Interp.exec_line session line with
          | Ok output -> print_endline output
          | Error msg -> Printf.printf "error: %s\n" msg);
          loop ()
      in
      loop ();
      `Ok ()
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive QUEL-flavored shell over the simulated engine, in-process or (with \
          $(b,--connect)) against a running server.")
    Term.(ret (const run $ connect))

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc:"Script file to run.")
  in
  let run file =
    let script = In_channel.with_open_text file In_channel.input_all in
    let session = Lang.Interp.create () in
    match Lang.Interp.exec_script session script with
    | Ok output ->
      print_string output;
      `Ok ()
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a script of shell commands (one per line).")
    Term.(ret (const run $ file))

(* ------------------------------------------------------ serve / loadgen *)

let serve_cmd =
  let host =
    Arg.(
      value
      & opt string Net.Server.default_config.host
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let port =
    Arg.(
      value
      & opt int Net.Server.default_config.port
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Port to bind (0 picks an ephemeral port).")
  in
  let shards =
    Arg.(
      value
      & opt int Net.Server.default_config.shards
      & info [ "shards" ] ~docv:"K" ~doc:"Session shards (engine domains).")
  in
  let max_conns =
    Arg.(
      value
      & opt int Net.Server.default_config.max_conns
      & info [ "max-conns" ] ~docv:"N" ~doc:"Connection limit; excess accepts are rejected.")
  in
  let max_inflight =
    Arg.(
      value
      & opt int Net.Server.default_config.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Global in-flight request limit; excess requests are rejected.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float Net.Server.default_config.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc:"Close idle connections after this long (<= 0 disables).")
  in
  let max_frame =
    Arg.(
      value
      & opt int Net.Server.default_config.max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Largest accepted frame payload.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Enable span tracing on every shard context.")
  in
  let no_plan_cache =
    Arg.(
      value & flag
      & info [ "no-plan-cache" ]
          ~doc:
            "Disable the per-shard statement cache (every request re-parses, re-binds,              re-plans and re-compiles its line).")
  in
  let run host port shards max_conns max_inflight idle_timeout max_frame trace no_plan_cache =
    if shards < 1 then `Error (true, "--shards must be >= 1")
    else if max_conns < 1 then `Error (true, "--max-conns must be >= 1")
    else if max_inflight < 1 then `Error (true, "--max-inflight must be >= 1")
    else begin
      let config =
        {
          Net.Server.default_config with
          host;
          port;
          shards;
          max_conns;
          max_inflight;
          idle_timeout;
          max_frame;
          trace;
          plan_cache = not no_plan_cache;
        }
      in
      match Net.Server.create ~config () with
      | exception Unix.Unix_error (err, _, _) ->
        `Error
          (false, Printf.sprintf "cannot bind %s:%d: %s" host port (Unix.error_message err))
      | server ->
        let stop _ = Net.Server.shutdown server in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        Printf.printf "procsim serve: listening on %s:%d (%d shard%s)\n%!" host
          (Net.Server.port server) shards
          (if shards = 1 then "" else "s");
        Net.Server.run server;
        print_endline "procsim serve: drained, bye.";
        `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the engine over the framed wire protocol: a non-blocking event loop in front of \
          K session-shard domains, each running its own interpreter.  SIGINT/SIGTERM or a \
          protocol shutdown request drains gracefully.")
    Term.(
      ret
        (const run $ host $ port $ shards $ max_conns $ max_inflight $ idle_timeout $ max_frame
       $ trace $ no_plan_cache))

(* "NODE:AT_OP" → a scheduled whole-node kill of one of [nodes] *)
let parse_kill ~nodes s =
  match String.split_on_char ':' s with
  | [ n; a ] -> (
    match (int_of_string_opt n, int_of_string_opt a) with
    | Some node, Some at_op when node >= 0 && node < nodes && at_op >= 1 ->
      Ok { Fault.Injector.node; at_op }
    | _ ->
      Error
        (Printf.sprintf "%S: expected NODE:AT_OP (0 <= node < %d, at_op >= 1)" s nodes))
  | _ -> Error (Printf.sprintf "%S: expected NODE:AT_OP" s)

let parse_kills ~nodes specs =
  List.fold_left
    (fun acc s ->
      match (acc, parse_kill ~nodes s) with
      | Error _, _ -> acc
      | Ok ks, Ok k -> Ok (k :: ks)
      | Ok _, Error msg -> Error msg)
    (Ok []) specs

let injector_of_kills ~seed = function
  | [] -> None
  | kills ->
    let inj = Fault.Injector.create ~seed () in
    Fault.Injector.schedule_node_kills inj kills;
    Some inj

let loadgen_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int 7411 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let conns =
    Arg.(
      value & opt int 8 & info [ "c"; "connections" ] ~docv:"C" ~doc:"Concurrent connections.")
  in
  let requests =
    Arg.(
      value & opt int 1000 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let pipeline =
    Arg.(
      value & opt int 8
      & info [ "pipeline" ] ~docv:"DEPTH" ~doc:"Outstanding requests per connection.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the request mix.") in
  let mode =
    let mode_conv =
      Arg.enum
        [ ("mixed", Net.Loadgen.Mixed); ("ping", Net.Loadgen.Ping_only); ("exec", Net.Loadgen.Exec_only) ]
    in
    Arg.(
      value & opt mode_conv Net.Loadgen.Mixed
      & info [ "mode" ] ~docv:"MODE" ~doc:"Request mix: $(b,mixed), $(b,ping) or $(b,exec).")
  in
  let write_frac =
    Arg.(
      value & opt float 0.0
      & info [ "write-frac" ] ~docv:"F"
          ~doc:
            "Fraction of requests that are writes (appends to a per-connection relation); the \
             post-run reconciliation checks every acknowledged write against the server's \
             $(b,heap_appends) counter.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit nonzero unless the run reconciles: zero drops, bad frames and failures, and \
             server counters matching what was sent.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a protocol shutdown request to the server after the run.")
  in
  let statement =
    Arg.(
      value
      & opt (some string) None
      & info [ "statement" ] ~docv:"LINE"
          ~doc:
            "Pin every engine-executing request to this one shell line (statement replay)              instead of the seeded mix.")
  in
  let setup =
    Arg.(
      value & opt_all string []
      & info [ "setup" ] ~docv:"LINE"
          ~doc:
            "Shell line each connection executes before its quota (repeatable; answers are              not counted, errors are tolerated) — use to create and populate the relations              a replayed $(b,--statement) reads.")
  in
  let cluster =
    Arg.(
      value
      & opt (some int) None
      & info [ "cluster" ] ~docv:"NODES"
          ~doc:
            "Self-host the target: fork NODES node servers (each with a WAL-shipping              replica), run a coordinator front end, and drive that instead of              $(b,--host)/$(b,--port).  Everything is torn down after the run.")
  in
  let cluster_kill =
    Arg.(
      value & opt_all string []
      & info [ "cluster-kill" ] ~docv:"NODE:AT_OP"
          ~doc:
            "With $(b,--cluster): SIGKILL node NODE's primary before the AT_OP-th statement              the coordinator routes; its replica is promoted and the run continues              (repeatable).")
  in
  let cluster_base_port =
    Arg.(
      value & opt int 7500
      & info [ "cluster-base-port" ] ~docv:"PORT"
          ~doc:"With $(b,--cluster): first node port (primaries on PORT+2i, replicas on              PORT+2i+1).")
  in
  let run host port conns requests pipeline seed mode write_frac strict shutdown statement
      setup cluster cluster_kill cluster_base_port =
    if conns < 1 then `Error (true, "--connections must be >= 1")
    else if requests < 1 then `Error (true, "--requests must be >= 1")
    else if pipeline < 1 then `Error (true, "--pipeline must be >= 1")
    else if not (write_frac >= 0.0 && write_frac <= 1.0) then
      `Error (true, "--write-frac must be in [0, 1]")
    else begin
      let drive ~host ~port =
        match
          Net.Loadgen.run ~host ~port ~pipeline ~seed ~mode ~write_frac ?statement ~setup
            ~conns ~requests ()
        with
        | Error msg -> `Error (false, msg)
        | Ok report ->
          Format.printf "%a@." Net.Loadgen.pp_report report;
          let reconciled = Net.Loadgen.reconciled report in
          Printf.printf "reconciled: %s\n" (if reconciled then "yes" else "NO");
          if shutdown then begin
            match Net.Client.connect ~host ~port () with
            | exception _ -> prerr_endline "loadgen: shutdown request failed (cannot connect)"
            | client ->
              (try ignore (Net.Client.call client Net.Protocol.Shutdown)
               with Net.Client.Closed | Net.Client.Protocol_error _ -> ());
              Net.Client.close client
          end;
          if strict && not reconciled then
            `Error (false, "loadgen: run did not reconcile (see report above)")
          else `Ok ()
      in
      match cluster with
      | None -> drive ~host ~port
      | Some nodes when nodes < 1 -> `Error (true, "--cluster must be >= 1")
      | Some nodes -> (
        match parse_kills ~nodes cluster_kill with
        | Error msg -> `Error (true, msg)
        | Ok kills -> (
          match Net.Cluster.launch ~base_port:cluster_base_port ~nodes () with
          | exception Failure msg -> `Error (false, msg)
          | cl -> (
            let injector = injector_of_kills ~seed kills in
            let backend =
              Net.Cluster.coordinator_backend ?injector
                ~on_kill:(Net.Cluster.kill_primary cl)
                ~spawn_replica:(Net.Cluster.spawn_replica cl)
                ~links:(fun () -> Net.Cluster.links cl)
                ()
            in
            let config =
              Net.Cluster.serve_config
                ~config:
                  {
                    Net.Server.default_config with
                    host = "127.0.0.1";
                    port = 0;
                    idle_timeout = 0.0;
                  }
                ()
            in
            match Net.Server.create ~config ~backend () with
            | exception e ->
              Net.Cluster.shutdown cl;
              `Error
                (false, Printf.sprintf "cannot start coordinator: %s" (Printexc.to_string e))
            | server ->
              let d = Domain.spawn (fun () -> Net.Server.run server) in
              Printf.printf
                "loadgen: self-hosted cluster of %d node%s (+replicas) behind 127.0.0.1:%d\n%!"
                nodes
                (if nodes = 1 then "" else "s")
                (Net.Server.port server);
              let result = drive ~host:"127.0.0.1" ~port:(Net.Server.port server) in
              Net.Server.shutdown server;
              Domain.join d;
              Net.Cluster.shutdown cl;
              result)))
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running $(b,procsim serve) with C pipelined connections and N requests; \
          report throughput, wall-clock latency percentiles and a client-vs-server counter \
          reconciliation.")
    Term.(
      ret
        (const run $ host $ port $ conns $ requests $ pipeline $ seed $ mode $ write_frac
       $ strict $ shutdown $ statement $ setup $ cluster $ cluster_kill
       $ cluster_base_port))

let cluster_cmd =
  let host =
    Arg.(
      value
      & opt string Net.Server.default_config.host
      & info [ "host" ] ~docv:"HOST" ~doc:"Address the coordinator front end binds.")
  in
  let port =
    Arg.(
      value
      & opt int Net.Server.default_config.port
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Coordinator port (0 picks an ephemeral port).")
  in
  let nodes =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"K" ~doc:"Partitions (node-server processes).")
  in
  let base_port =
    Arg.(
      value & opt int 7500
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:"First node port: primaries on PORT+2i, replicas on PORT+2i+1.")
  in
  let no_replicas =
    Arg.(value & flag & info [ "no-replicas" ] ~doc:"Run the nodes unreplicated (a node kill loses its partition).")
  in
  let kill =
    Arg.(
      value & opt_all string []
      & info [ "kill" ] ~docv:"NODE:AT_OP"
          ~doc:
            "SIGKILL node NODE's primary before the AT_OP-th statement the coordinator              routes; its replica is promoted and serving continues (repeatable).")
  in
  let key_domain =
    Arg.(
      value & opt int 1_000_000
      & info [ "key-domain" ] ~docv:"N" ~doc:"Integer key space the range partitioning divides.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-injector seed.")
  in
  let run host port nodes base_port no_replicas kill key_domain seed =
    if nodes < 1 then `Error (true, "--nodes must be >= 1")
    else if key_domain < 1 then `Error (true, "--key-domain must be >= 1")
    else
      match parse_kills ~nodes kill with
      | Error msg -> `Error (true, msg)
      | Ok kills -> (
        match
          Net.Cluster.launch ~base_port ~replicas:(not no_replicas) ~nodes ()
        with
        | exception Failure msg -> `Error (false, msg)
        | cl -> (
          let injector = injector_of_kills ~seed kills in
          let backend =
            Net.Cluster.coordinator_backend ~key_domain ?injector
              ~on_kill:(Net.Cluster.kill_primary cl)
              ~spawn_replica:(Net.Cluster.spawn_replica cl)
              ~links:(fun () -> Net.Cluster.links cl)
              ()
          in
          let config =
            Net.Cluster.serve_config
              ~config:{ Net.Server.default_config with host; port; idle_timeout = 0.0 }
              ()
          in
          match Net.Server.create ~config ~backend () with
          | exception Unix.Unix_error (err, _, _) ->
            Net.Cluster.shutdown cl;
            `Error
              (false, Printf.sprintf "cannot bind %s:%d: %s" host port (Unix.error_message err))
          | server ->
            let stop _ = Net.Server.shutdown server in
            (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
             with Invalid_argument _ -> ());
            (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
             with Invalid_argument _ -> ());
            Printf.printf
              "procsim cluster: %d node%s%s on ports %d.., coordinator on %s:%d\n%!" nodes
              (if nodes = 1 then "" else "s")
              (if no_replicas then "" else " (+replicas)")
              base_port host (Net.Server.port server);
            Net.Server.run server;
            Net.Cluster.shutdown cl;
            print_endline "procsim cluster: drained, bye.";
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Serve a sharded cluster: fork K node-server processes (key-range partitions, each \
          with a WAL-shipping replica) behind one coordinator front end speaking the same \
          wire protocol as $(b,serve).  $(b,--kill) schedules whole-node crashes with \
          replica promotion.")
    Term.(
      ret
        (const run $ host $ port $ nodes $ base_port $ no_replicas $ kill $ key_domain
       $ seed))

(* The cluster-vs-single-node differential as a CLI: the same seeded
   statement stream (mutations, point and broadcast retrieves, a
   cross-shard join and a procedure over it) runs against an in-process
   K-node cluster and a single local interpreter; tuple statements must
   produce byte-identical digests of the sorted serialized result
   multiset, everything else byte-identical output. *)
let cluster_check_cmd =
  let nodes =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"K" ~doc:"Cluster size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let appends =
    Arg.(value & opt int 60 & info [ "appends" ] ~docv:"N" ~doc:"Tuples appended across the two relations.")
  in
  let kill =
    Arg.(
      value & opt_all string []
      & info [ "kill" ] ~docv:"NODE:AT_OP"
          ~doc:"Schedule in-process node kills; the differential must hold through promotion              (repeatable).")
  in
  let cluster_json =
    Arg.(
      value & opt (some string) None
      & info [ "cluster-json" ] ~docv:"FILE" ~doc:"Write the cluster's per-statement digests as JSON.")
  in
  let single_json =
    Arg.(
      value & opt (some string) None
      & info [ "single-json" ] ~docv:"FILE" ~doc:"Write the single-node digests as JSON.")
  in
  let txn =
    Arg.(
      value & flag
      & info [ "txn" ]
          ~doc:
            "Also run a batch of distributed transactions (cross-shard writes ending in \
             commit or abort) and hold the final state to the committed-or-aborted oracle: \
             a single-node replay of exactly the transactions the cluster committed.")
  in
  let kill_point =
    Arg.(
      value & opt_all string []
      & info [ "kill-point" ] ~docv:"PHASE[:ROUND[:NODE]]"
          ~doc:
            "Schedule a node kill inside the 2PC window: $(b,prepare) kills before the \
             node can vote (the transaction must abort), $(b,commit) kills inside the \
             in-doubt window (the decision log must still commit it).  ROUND is the \
             1-based distributed commit round, NODE the victim (defaults 1:1; \
             repeatable; implies --txn).")
  in
  let parse_kill_point nodes s =
    let bad () =
      Error (Printf.sprintf "bad --kill-point %S (want prepare|commit[:ROUND[:NODE]])" s)
    in
    match String.split_on_char ':' s with
    | phase :: rest -> (
      let parsed_phase =
        match phase with
        | "prepare" -> Some `Prepare
        | "commit" -> Some `Commit
        | _ -> None
      in
      match parsed_phase with
      | None -> bad ()
      | Some p -> (
        let int_at i default =
          match List.nth_opt rest i with
          | None -> Some default
          | Some s -> int_of_string_opt s
        in
        match (int_at 0 1, int_at 1 (min 1 (nodes - 1))) with
        | Some round, Some node when round >= 1 && node >= 0 && node < nodes ->
          Ok { Fault.Injector.tk_node = node; phase = p; at_commit = round }
        | _ -> bad ()))
    | [] -> bad ()
  in
  let parse_kill_points nodes specs =
    List.fold_left
      (fun acc s ->
        match (acc, parse_kill_point nodes s) with
        | Error _, _ -> acc
        | Ok ks, Ok k -> Ok (k :: ks)
        | Ok _, Error msg -> Error msg)
      (Ok []) specs
  in
  let run nodes seed appends kill txn kill_point cluster_json single_json =
    if nodes < 1 then `Error (true, "--nodes must be >= 1")
    else if appends < 2 then `Error (true, "--appends must be >= 2")
    else
      match
        match (parse_kills ~nodes kill, parse_kill_points nodes kill_point) with
        | (Error _ as e), _ | _, (Error _ as e) -> e
        | Ok ks, Ok kps -> Ok (ks, kps)
      with
      | Error msg -> `Error (true, msg)
      | Ok (kills, kill_points) ->
        let txn = txn || kill_points <> [] in
        let prng = Util.Prng.create seed in
        let n_r = appends - (appends / 3) in
        let n_s = appends / 3 in
        let r_keys = Array.init n_r (fun _ -> Util.Prng.int prng 1_000_000) in
        let stmts =
          [ "create R (k = int, v = int)"; "create S (k = int, w = int)" ]
          @ List.init n_r (fun i ->
                Printf.sprintf "append to R (k = %d, v = %d)" r_keys.(i)
                  (Util.Prng.int prng 1000))
          (* half of S shares keys with R so the join crosses shards *)
          @ List.init n_s (fun i ->
                let k =
                  if i mod 2 = 0 then r_keys.(Util.Prng.int prng n_r)
                  else Util.Prng.int prng 1_000_000
                in
                Printf.sprintf "append to S (k = %d, w = %d)" k (Util.Prng.int prng 1000))
          @ [
              Printf.sprintf "retrieve (R.v) where R.k = %d" r_keys.(0);
              "retrieve (R.all) where R.v < 500";
              "retrieve (R.v, S.w) where R.k = S.k";
              "define proc PJ as retrieve (R.v, S.w) where R.k = S.k";
              "exec PJ";
              Printf.sprintf "delete from R where R.k = %d" r_keys.(1);
              "replace R (v = 1001) where R.v >= 500";
              "retrieve (R.all)";
              "exec PJ";
            ]
        in
        let injector =
          match (kills, kill_points) with
          | [], [] -> None
          | _ ->
            let inj = Fault.Injector.create ~seed () in
            Fault.Injector.schedule_node_kills inj kills;
            Fault.Injector.schedule_txn_kills inj kill_points;
            Some inj
        in
        let local = Net.Coordinator.create_local ?injector ~nodes () in
        let c = Net.Coordinator.coordinator local in
        let single = Lang.Interp.create () in
        let mismatches = ref 0 in
        let check_line line =
          let r = Net.Coordinator.exec c line in
          let cluster_out, single_out =
            match r.Net.Coordinator.digest with
            | Some d -> (
              ( "digest:" ^ d,
                match Lang.Interp.fetch single line with
                | Ok (tuples, _) -> "digest:" ^ Net.Wire.digest_tuples tuples
                | Error msg -> "error:" ^ msg ))
            | None -> (
              ( (if r.Net.Coordinator.ok then "output:" else "error:")
                ^ r.Net.Coordinator.output,
                match Lang.Interp.exec_line single line with
                | Ok out -> "output:" ^ out
                | Error msg -> "error:" ^ msg ))
          in
          if cluster_out <> single_out then begin
            incr mismatches;
            Printf.printf "MISMATCH %s\n  cluster: %s\n  single:  %s\n" line cluster_out
              single_out
          end;
          (line, cluster_out, single_out)
        in
        let results = List.map check_line stmts in
        (* Distributed transactions against the committed-or-aborted
           oracle: run each scenario on the cluster only, observe its
           outcome, replay exactly the committed ones into the single
           session (strict 2PL makes commit order a serial order), then
           hold the final relation state to the usual digest check. *)
        let txn_results =
          if not txn then []
          else begin
            let app rel =
              Printf.sprintf "append to %s (k = %d, %s = %d)" rel
                (Util.Prng.int prng 1_000_000)
                (if rel = "R" then "v" else "w")
                (Util.Prng.int prng 1000)
            in
            let scenarios =
              [
                ("txn1", [ app "R"; app "R"; app "R" ], `Commit);
                ( "txn2",
                  [
                    app "R";
                    app "S";
                    Printf.sprintf "delete from R where R.k = %d" r_keys.(2);
                  ],
                  `Commit );
                ("txn3", [ app "R"; app "S" ], `Abort);
                ("txn4", [ app "S"; app "R"; app "R" ], `Commit);
              ]
            in
            let run_scenario (name, body, terminal) =
              let r = Net.Coordinator.exec c "begin" in
              if not r.Net.Coordinator.ok then (name, body, "error:" ^ r.Net.Coordinator.output)
              else
                let rec go = function
                  | [] -> (
                    match terminal with
                    | `Abort ->
                      ignore (Net.Coordinator.exec c "abort");
                      (name, body, "aborted")
                    | `Commit ->
                      let r = Net.Coordinator.exec c "commit" in
                      if r.Net.Coordinator.ok then (name, body, "committed")
                      else (name, body, "aborted"))
                  | stmt :: rest ->
                    let r = Net.Coordinator.exec c stmt in
                    if r.Net.Coordinator.ok then go rest
                    else if r.Net.Coordinator.aborted then (name, body, "aborted")
                    else (name, body, "error:" ^ r.Net.Coordinator.output)
                in
                go body
            in
            let outcomes = List.map run_scenario scenarios in
            (* the oracle replays only what the cluster decided to commit *)
            List.iter
              (fun (_, body, outcome) ->
                if outcome = "committed" then
                  List.iter (fun l -> ignore (Lang.Interp.exec_line single l)) body)
              outcomes;
            List.map (fun (name, _, outcome) -> (name, outcome, outcome)) outcomes
            @ List.map check_line
                [ "retrieve (R.all)"; "retrieve (S.all)"; "exec PJ" ]
          end
        in
        let results = results @ txn_results in
        let write_json path side =
          let buf = Buffer.create 4096 in
          Buffer.add_string buf "{\n";
          List.iteri
            (fun i (line, cl, sg) ->
              Buffer.add_string buf
                (Printf.sprintf "  %S: %S%s\n" line
                   (if side = `Cluster then cl else sg)
                   (if i = List.length results - 1 then "" else ",")))
            results;
          Buffer.add_string buf "}\n";
          Obs.Export.write_file path (Buffer.contents buf)
        in
        Option.iter (fun p -> write_json p `Cluster) cluster_json;
        Option.iter (fun p -> write_json p `Single) single_json;
        let m = Obs.Ctx.metrics (Net.Coordinator.ctx c) in
        Printf.printf
          "cluster-check: %d statements, %d nodes, %d routed, %d broadcast, joins %d shipped / \
           %d broadcast, %d failover%s — %s\n"
          (List.length stmts) nodes
          (Obs.Metrics.get m Obs.Metrics.Cluster_stmts_routed)
          (Obs.Metrics.get m Obs.Metrics.Cluster_stmts_broadcast)
          (Obs.Metrics.get m Obs.Metrics.Cluster_joins_shipped)
          (Obs.Metrics.get m Obs.Metrics.Cluster_joins_broadcast)
          (Obs.Metrics.get m Obs.Metrics.Cluster_failovers)
          (if Obs.Metrics.get m Obs.Metrics.Cluster_failovers = 1 then "" else "s")
          (if !mismatches = 0 then "all digests match" else
             Printf.sprintf "%d MISMATCHES" !mismatches);
        if txn then
          Printf.printf
            "cluster-check: 2PC %d begun, %d committed, %d aborted, %d in-doubt resolved\n"
            (Obs.Metrics.get m Obs.Metrics.Txn2pc_begins)
            (Obs.Metrics.get m Obs.Metrics.Txn2pc_commits)
            (Obs.Metrics.get m Obs.Metrics.Txn2pc_aborts)
            (Obs.Metrics.get m Obs.Metrics.Txn2pc_in_doubt_resolved);
        if !mismatches = 0 then `Ok ()
        else `Error (false, "cluster-check: cluster and single node disagree")
  in
  Cmd.v
    (Cmd.info "cluster-check"
       ~doc:
         "Run the cluster-vs-single-node differential oracle: a seeded statement stream \
          (including a cross-shard join) against an in-process K-node cluster and a single \
          interpreter must produce byte-identical result digests.  $(b,--txn) adds \
          distributed transactions held to the committed-or-aborted oracle, and \
          $(b,--kill-point) crashes a participant inside the 2PC window.  Exits nonzero \
          on any mismatch.")
    Term.(
      ret
        (const run $ nodes $ seed $ appends $ kill $ txn $ kill_point $ cluster_json
       $ single_json))

(* ------------------------------------------------------------ txn-smoke *)

(* An end-to-end deadlock drill over a real loopback socket: two clients
   on one shard open transactions, write crosswise, and exactly one (the
   younger) must come back [Aborted] while the other commits. *)
let txn_smoke_cmd =
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  let run () =
    let config =
      { Net.Server.default_config with host = "127.0.0.1"; port = 0; shards = 1; idle_timeout = 0.0 }
    in
    match Net.Server.create ~config () with
    | exception e ->
      `Error (false, Printf.sprintf "txn-smoke: cannot bind a loopback server (%s)" (Printexc.to_string e))
    | server ->
      let port = Net.Server.port server in
      let d = Domain.spawn (fun () -> Net.Server.run server) in
      let result =
        try
          let a = Net.Client.connect ~host:"127.0.0.1" ~port () in
          let b = Net.Client.connect ~host:"127.0.0.1" ~port () in
          let exec who client line =
            match Net.Client.call client (Net.Protocol.Exec_line line) with
            | Net.Protocol.Output out -> out
            | Net.Protocol.Failed m -> failwith (Printf.sprintf "%s: %S failed: %s" who line m)
            | Net.Protocol.Aborted m ->
              failwith (Printf.sprintf "%s: %S unexpectedly aborted: %s" who line m)
            | Net.Protocol.Rejected m -> failwith (Printf.sprintf "%s: %S rejected: %s" who line m)
            | Net.Protocol.Blocked h ->
              failwith (Printf.sprintf "%s: %S blocked on transaction(s) %s" who line h)
            | Net.Protocol.Pong -> failwith (Printf.sprintf "%s: %S answered with pong" who line)
            | Net.Protocol.Tuples _ | Net.Protocol.Wal_records _ ->
              failwith (Printf.sprintf "%s: %S answered with a node-tier frame" who line)
          in
          let control who client req =
            match Net.Client.call client req with
            | Net.Protocol.Output _ -> ()
            | resp ->
              failwith
                (Printf.sprintf "%s: transaction control got tag 0x%02x"
                   who (Net.Protocol.response_tag resp))
          in
          ignore (exec "A" a "create T1 (k = int, v = int)");
          ignore (exec "A" a "create T2 (k = int, v = int)");
          ignore (exec "A" a "append to T1 (k = 1, v = 10)");
          ignore (exec "A" a "append to T2 (k = 1, v = 20)");
          (* A begins first, so A is the elder transaction; the victim
             policy must pick B *)
          control "A" a Net.Protocol.Begin;
          control "B" b Net.Protocol.Begin;
          ignore (exec "A" a "replace T1 (v = 111) where T1.k = 1");
          ignore (exec "B" b "replace T2 (v = 222) where T2.k = 1");
          (* crosswise: A needs B's relation and parks; B needs A's,
             which closes the cycle *)
          let a_req =
            Net.Client.send a (Net.Protocol.Exec_line "replace T2 (v = 333) where T2.k = 1")
          in
          (match Net.Client.call b (Net.Protocol.Exec_line "replace T1 (v = 444) where T1.k = 1") with
          | Net.Protocol.Aborted _ -> ()
          | resp ->
            failwith
              (Printf.sprintf "B: expected the victim abort, got tag 0x%02x"
                 (Net.Protocol.response_tag resp)));
          let rec await_a () =
            let id, resp = Net.Client.recv a in
            if id <> a_req then await_a () else resp
          in
          (match await_a () with
          | Net.Protocol.Output _ -> ()
          | resp ->
            failwith
              (Printf.sprintf "A: parked replace should run after the abort, got tag 0x%02x"
                 (Net.Protocol.response_tag resp)));
          control "A" a Net.Protocol.Commit;
          let rows = exec "A" a "retrieve (T1.v, T2.v) where T1.k = T2.k" in
          if not (contains rows "111" && contains rows "333") then
            failwith "A's committed writes are missing";
          if contains rows "222" || contains rows "444" then
            failwith "B's rolled-back writes survived";
          let counters =
            match Net.Client.call a Net.Protocol.Stats with
            | Net.Protocol.Output body -> (
              match Obs.Export.parse body with
              | Error msg -> failwith ("stats: " ^ msg)
              | Ok doc -> (
                match Obs.Export.member "counters" doc with
                | Some (Obs.Export.Obj fields) -> fields
                | _ -> failwith "stats: no counters object"))
            | _ -> failwith "stats call failed"
          in
          let geti name =
            match List.assoc_opt name counters with
            | Some (Obs.Export.Int n) -> n
            | _ -> failwith (Printf.sprintf "stats: counter %S missing" name)
          in
          let expect name want =
            let got = geti name in
            if got <> want then failwith (Printf.sprintf "counter %s: expected %d, got %d" name want got)
          in
          expect "deadlock.cycles" 1;
          expect "deadlock.victims" 1;
          expect "txn.aborts" 1;
          if geti "txn.commits" < 1 then failwith "counter txn.commits: expected >= 1";
          if geti "net.parked" < 1 then failwith "counter net.parked: expected >= 1";
          Net.Client.close a;
          Net.Client.close b;
          `Ok ()
        with
        | Failure msg -> `Error (false, "txn-smoke: " ^ msg)
        | e -> `Error (false, "txn-smoke: " ^ Printexc.to_string e)
      in
      Net.Server.shutdown server;
      Domain.join d;
      (match result with
      | `Ok () ->
        print_endline "txn-smoke: OK — one deadlock cycle, one victim abort, elder committed"
      | _ -> ());
      result
  in
  Cmd.v
    (Cmd.info "txn-smoke"
       ~doc:
         "End-to-end transaction smoke test: spin up a loopback server, force a deadlock \
          between two clients writing crosswise, and assert exactly one victim abort with the \
          other transaction committing.")
    Term.(ret (const run $ const ()))

(* --------------------------------------------------------------- params *)

let params_cmd =
  let run () =
    let table = Util.Ascii_table.create ~aligns:[ Util.Ascii_table.Left ] ~header:[ "parameter"; "value" ] () in
    List.iter (fun (k, v) -> Util.Ascii_table.add_row table [ k; v ]) (Params.to_rows Params.default);
    Util.Ascii_table.print table
  in
  Cmd.v (Cmd.info "params" ~doc:"Print the Figure-2 parameter defaults.") Term.(const run $ const ())

let () =
  let doc = "database-procedure query processing: Hanson's 1987/88 performance analysis" in
  let info = Cmd.info "procsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd;
            sim_cmd;
            cost_cmd;
            advise_cmd;
            params_cmd;
            sensitivity_cmd;
            stats_cmd;
            json_check_cmd;
            anchors_cmd;
            shell_cmd;
            run_cmd;
            serve_cmd;
            cluster_cmd;
            cluster_check_cmd;
            loadgen_cmd;
            txn_smoke_cmd;
          ]))
