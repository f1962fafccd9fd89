(* Tests for the compiled batch executor: batch primitives, oracle
   differentials (the tuple-at-a-time interpreter in [Oracle] and
   [Executor] must return the same tuples in the same order AND charge the
   same simulated cost), planner edge cases, and the interpreter's
   statement cache. *)

open Dbproc
open Dbproc.Storage
open Dbproc.Query
module Metrics = Dbproc_obs.Metrics

let tuple_list = Alcotest.testable Tuple.pp Tuple.equal
let value_int i = Value.Int i

(* Shared fixture, mirroring test_query: R(k, v) btree on k; S(b, w)
   hash-primary on b. *)
type fixture = { cost : Cost.t; io : Io.t; r : Relation.t; s : Relation.t }

let r_schema = Schema.create [ ("k", Value.TInt); ("v", Value.TInt) ]
let s_schema = Schema.create [ ("b", Value.TInt); ("w", Value.TInt) ]

let make_fixture ?(r_rows = 40) ?(s_rows = 10) () =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let r = Relation.create ~io ~name:"R" ~schema:r_schema ~tuple_bytes:100 in
  Relation.load r
    (List.init r_rows (fun i -> Tuple.create [ Value.Int i; Value.Int (i mod s_rows) ]));
  Relation.add_btree_index r ~attr:"k" ~entry_bytes:20;
  let s = Relation.create ~io ~name:"S" ~schema:s_schema ~tuple_bytes:100 in
  Relation.load s (List.init s_rows (fun b -> Tuple.create [ Value.Int b; Value.Int (b * 100) ]));
  Relation.add_hash_index ~primary:true s ~attr:"b" ~entry_bytes:100 ~expected_entries:s_rows;
  { cost; io; r; s }

let interval schema attr lo hi =
  let pos = Schema.index_of schema attr in
  [
    Predicate.term ~attr:pos ~op:Predicate.Ge ~value:(Value.Int lo);
    Predicate.term ~attr:pos ~op:Predicate.Lt ~value:(Value.Int hi);
  ]

let select_view fx lo hi =
  View_def.select ~name:"V" ~rel:fx.r ~restriction:(interval r_schema "k" lo hi)

let join_view fx lo hi =
  View_def.join (select_view fx lo hi) ~rel:fx.s ~restriction:Predicate.always_true
    ~left:"R.v" ~op:Predicate.Eq ~right:"b"

(* ---------------------------------------------------------------- batch *)

let test_batch_roundtrip () =
  let tuples = List.init 10 (fun i -> Tuple.create [ Value.Int i; Value.Str "x" ]) in
  let b = Batch.of_tuples ~arity:2 tuples in
  Alcotest.(check int) "length" 10 (Batch.length b);
  Alcotest.(check int) "arity" 2 (Batch.arity b);
  Alcotest.(check (list tuple_list)) "roundtrip" tuples (Batch.to_tuples b);
  Alcotest.(check (list tuple_list)) "empty" [] (Batch.to_tuples (Batch.empty ~arity:3))

let test_batch_filter () =
  let tuples = List.init 10 (fun i -> Tuple.create [ Value.Int i ]) in
  let b = Batch.of_tuples ~arity:1 tuples in
  let ge5 = [| Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(value_int 5) |] in
  let kept = Batch.filter ge5 b in
  Alcotest.(check (list tuple_list))
    "filtered, order kept"
    (List.filteri (fun i _ -> i >= 5) tuples)
    (Batch.to_tuples kept);
  (* an all-pass filter returns the input unchanged *)
  let all = Batch.filter [||] b in
  Alcotest.(check bool) "no-op filter shares" true (all == b);
  let none =
    Batch.filter [| Predicate.term ~attr:0 ~op:Predicate.Lt ~value:(value_int 0) |] b
  in
  Alcotest.(check int) "none" 0 (Batch.length none)

let test_batch_builder () =
  let outer = Batch.of_tuples ~arity:2 [ Tuple.create [ Value.Int 1; Value.Int 2 ] ] in
  let inner = Batch.of_tuples ~arity:1 [ Tuple.create [ Value.Int 7 ] ] in
  let b = Batch.Builder.create ~arity:3 in
  Batch.Builder.append_probe b outer 0 (Tuple.create [ Value.Int 9 ]);
  Batch.Builder.append_pair b outer 0 inner 0;
  let got = Batch.to_tuples (Batch.Builder.to_batch b) in
  Alcotest.(check (list tuple_list))
    "concatenated rows"
    [
      Tuple.create [ Value.Int 1; Value.Int 2; Value.Int 9 ];
      Tuple.create [ Value.Int 1; Value.Int 2; Value.Int 7 ];
    ]
    got

(* Builder growth across the doubling boundary keeps rows intact. *)
let test_batch_builder_grow () =
  let n = 3000 in
  let outer = Batch.of_tuples ~arity:1 (List.init n (fun i -> Tuple.create [ Value.Int i ])) in
  let b = Batch.Builder.create ~arity:1 in
  let unit_outer = Batch.of_tuples ~arity:0 [ Tuple.create [] ] in
  for i = 0 to n - 1 do
    Batch.Builder.append_pair b unit_outer 0 outer i
  done;
  Alcotest.(check (list tuple_list))
    "all rows, in order" (Batch.to_tuples outer)
    (Batch.to_tuples (Batch.Builder.to_batch b))

(* ---------------------------------------------------- oracle vs executor *)

(* What one execution returned and charged: its tuples in order, pages
   read and written, C1 screens, tuples scanned, simulated ms, and — under
   a fault injector — the faults injected and the retries they forced. *)
type measured = {
  tuples : Tuple.t list;
  reads : int;
  writes : int;
  screens : int;
  scanned : int;
  ms : float;
  injected : int;
  retries : int;
}

let fault_config =
  {
    Fault.Injector.default_config with
    Fault.Injector.read_fail_prob = 0.15;
    write_fail_prob = 0.15;
  }

(* Run [f] over [io] and measure it; with [fault_seed], under a fresh
   injector so seeded, which a second call with the same seed replays. *)
let measure ?fault_seed io f =
  let cost = Io.cost io in
  let scanned () = Metrics.get (Cost.metrics cost) Metrics.Tuples_scanned in
  let inj = Option.map (fun seed -> Fault.Injector.create ~config:fault_config ~seed ()) fault_seed in
  Option.iter (fun inj -> Fault.Injector.install inj io) inj;
  Fun.protect ~finally:(fun () -> if Option.is_some inj then Fault.Injector.uninstall io)
  @@ fun () ->
  let before = Cost.snapshot cost and scanned_before = scanned () in
  let tuples = f () in
  let after = Cost.snapshot cost in
  let of_inj get = match inj with Some inj -> get inj | None -> 0 in
  {
    tuples;
    reads = after.Cost.s_page_reads - before.Cost.s_page_reads;
    writes = after.Cost.s_page_writes - before.Cost.s_page_writes;
    screens = after.Cost.s_cpu_screens - before.Cost.s_cpu_screens;
    scanned = scanned () - scanned_before;
    ms = Cost.diff_ms Cost.default_charges ~before ~after;
    injected = of_inj Fault.Injector.injected;
    retries = of_inj Fault.Injector.retries;
  }

(* The first thing the oracle's run [o] and Executor's run [e] disagree
   on, if any. *)
let disagreement o e =
  if not (List.equal Tuple.equal o.tuples e.tuples) then
    Some
      (Printf.sprintf "tuples differ: oracle %d rows, executor %d" (List.length o.tuples)
         (List.length e.tuples))
  else
    match
      List.find_opt
        (fun (_, a, b) -> a <> b)
        [
          ("pages read", o.reads, e.reads);
          ("pages written", o.writes, e.writes);
          ("C1 screens", o.screens, e.screens);
          ("tuples scanned", o.scanned, e.scanned);
          ("faults injected", o.injected, e.injected);
          ("retries", o.retries, e.retries);
        ]
    with
    | Some (what, a, b) -> Some (Printf.sprintf "%s: oracle %d, executor %d" what a b)
    | None when not (Float.equal o.ms e.ms) ->
      Some (Printf.sprintf "simulated ms: oracle %g, executor %g" o.ms e.ms)
    | None -> None

let check_agree what o e = Alcotest.(check (option string)) what None (disagreement o e)

(* [Executor.run plan], once the oracle has agreed with it on [plan]. *)
let run_checked fx plan =
  let o = measure fx.io (fun () -> Oracle.run plan) in
  let e = measure fx.io (fun () -> Executor.run plan) in
  check_agree "oracle = executor" o e;
  e.tuples

(* ------------------------------------------------- btree range ordering *)

(* Satellite regression: Btree_range results must come back in ascending
   key order (the interpreter used to double-reverse).  [run] is the
   oracle, or Executor checked against it. *)
let test_range_order run () =
  let fx = make_fixture ~r_rows:50 () in
  let plan = Planner.compile (select_view fx 7 31) in
  (match plan.Plan.access with
  | Plan.Btree_range _ -> ()
  | _ -> Alcotest.fail "expected a btree range plan");
  let keys =
    List.map (fun t -> match Tuple.get t 0 with Value.Int k -> k | _ -> -1) (run fx plan)
  in
  Alcotest.(check (list int)) "ascending range order" (List.init 24 (fun i -> 7 + i)) keys

(* --------------------------------------------------- planner edge cases *)

let test_planner_point_no_index () =
  let fx = make_fixture () in
  (* equality on R.v: no index on v, so the only option is a full scan *)
  let def =
    View_def.select ~name:"V" ~rel:fx.r
      ~restriction:[ Predicate.term ~attr:1 ~op:Predicate.Eq ~value:(value_int 3) ]
  in
  let plan = Planner.compile def in
  (match plan.Plan.access with
  | Plan.Full_scan { residual } ->
    Alcotest.(check int) "predicate kept as residual" 1 (List.length residual)
  | _ -> Alcotest.fail "expected Full_scan");
  let rows = Executor.run plan in
  Alcotest.(check int) "qualifying rows" 4 (List.length rows)

let test_planner_range_only_hash () =
  (* a range over S.b: S has only a hash index, which cannot serve a
     range, so the planner must fall back to a full scan *)
  let fx = make_fixture () in
  let def =
    View_def.select ~name:"V" ~rel:fx.s ~restriction:(interval s_schema "b" 2 6)
  in
  let plan = Planner.compile def in
  (match plan.Plan.access with
  | Plan.Full_scan _ -> ()
  | _ -> Alcotest.fail "expected Full_scan for a range with only a hash index");
  Alcotest.(check int) "qualifying rows" 4 (List.length (Executor.run plan))

let test_empty_range run () =
  let fx = make_fixture () in
  (* lo > hi: the interval is empty; nothing comes back and the btree
     pages are still the only charges *)
  let plan = Planner.compile (select_view fx 30 10) in
  Alcotest.(check (list tuple_list)) "empty interval" [] (run fx plan)

let oracle_run _fx plan = Oracle.run plan

(* -------------------------------------------- oracle differential (unit) *)

let check_oracle_agrees mk_def =
  let fx = make_fixture () in
  ignore (run_checked fx (Planner.compile (mk_def fx)))

let test_oracle_agrees_scan () =
  check_oracle_agrees (fun fx ->
      View_def.select ~name:"V" ~rel:fx.r
        ~restriction:[ Predicate.term ~attr:1 ~op:Predicate.Le ~value:(value_int 4) ])

let test_oracle_agrees_join () = check_oracle_agrees (fun fx -> join_view fx 3 27)

let test_oracle_agrees_scan_join () =
  (* join on a non-indexed inner attribute forces the scan-join stage *)
  check_oracle_agrees (fun fx ->
      View_def.join (select_view fx 0 6) ~rel:fx.s ~restriction:Predicate.always_true
        ~left:"R.v" ~op:Predicate.Eq ~right:"w")

let test_oracle_agrees_empty_outer () =
  (* empty base: no probe work, and the inner relation is never read *)
  check_oracle_agrees (fun fx -> join_view fx 100 200)

let test_oracle_agrees_hash_point () =
  (* an equality on S's hash key: the hash-point access path *)
  check_oracle_agrees (fun fx ->
      View_def.select ~name:"V" ~rel:fx.s
        ~restriction:[ Predicate.term ~attr:0 ~op:Predicate.Eq ~value:(value_int 3) ])

(* Charge parity must survive fault injection: the oracle and Executor
   issue the same charged touch sequence, so injectors seeded alike fail
   the same touches, force the same re-issues, and the retried runs still
   agree on tuples, priced I/O and total simulated ms. *)
let test_oracle_agrees_under_faults () =
  List.iter
    (fun (what, mk_def) ->
      let fx = make_fixture ~r_rows:80 () in
      let plan = Planner.compile (mk_def fx) in
      let o = measure ~fault_seed:17 fx.io (fun () -> Oracle.run plan) in
      let e = measure ~fault_seed:17 fx.io (fun () -> Executor.run plan) in
      Alcotest.(check bool) (what ^ ": faults actually injected") true (o.injected > 0);
      check_agree (what ^ ": oracle = executor under faults") o e)
    [
      ("scan", fun fx -> select_view fx 0 70);
      ("index join", fun fx -> join_view fx 3 60);
      ( "scan join",
        fun fx ->
          View_def.join (select_view fx 0 40) ~rel:fx.s ~restriction:Predicate.always_true
            ~left:"R.v" ~op:Predicate.Eq ~right:"w" );
    ]

(* ------------------------------------------- oracle differential (qcheck) *)

(* Random single-relation and two-relation plans; the oracle and Executor
   must return identical tuples and charge identical costs. *)
let exec_spec_gen =
  let open QCheck.Gen in
  let* r_rows = int_range 0 120 in
  let* s_rows = int_range 1 15 in
  let* lo = int_range (-5) 130 in
  let* len = int_range (-10) 60 in
  let* shape = int_range 0 4 in
  (* 0 = range select, 1 = point select, 2 = index join, 3 = scan join,
     4 = hash-point select *)
  return (r_rows, s_rows, lo, len, shape)

let exec_spec_print (r_rows, s_rows, lo, len, shape) =
  Printf.sprintf "r=%d s=%d lo=%d len=%d shape=%d" r_rows s_rows lo len shape

let build_def fx (_r_rows, s_rows, lo, len, shape) =
  match shape with
  | 0 -> select_view fx lo (lo + len)
  | 1 ->
    View_def.select ~name:"V" ~rel:fx.r
      ~restriction:
        [ Predicate.term ~attr:1 ~op:Predicate.Eq ~value:(value_int (abs lo mod s_rows)) ]
  | 2 -> join_view fx lo (lo + len)
  | 3 ->
    View_def.join (select_view fx lo (lo + len)) ~rel:fx.s
      ~restriction:[ Predicate.term ~attr:1 ~op:Predicate.Ge ~value:(value_int 0) ]
      ~left:"R.v" ~op:Predicate.Eq ~right:"w"
  | _ ->
    (* the key may be absent; the residual on w may reject the match *)
    View_def.select ~name:"V" ~rel:fx.s
      ~restriction:
        [
          Predicate.term ~attr:0 ~op:Predicate.Eq ~value:(value_int (abs lo mod (s_rows + 2)));
          Predicate.term ~attr:1 ~op:Predicate.Ge ~value:(value_int (100 * (abs len mod 4)));
        ]

let test_qcheck_differential =
  QCheck.Test.make ~count:120 ~name:"engine differential: random plans"
    (QCheck.make ~print:exec_spec_print exec_spec_gen)
    (fun ((r_rows, s_rows, _, _, _) as spec) ->
      let fx = make_fixture ~r_rows ~s_rows () in
      let plan = Planner.compile (build_def fx spec) in
      match
        disagreement
          (measure fx.io (fun () -> Oracle.run plan))
          (measure fx.io (fun () -> Executor.run plan))
      with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s" d)

(* ----------------------------------- oracle differential (paper workload) *)

(* The plans the paper's workload builds, over states its updates leave:
   a reduced model-1 (R1 ⋈ R2) or model-2 (R1 ⋈ R2 ⋈ R3) database takes a
   seeded sequence of [random_update] batches, applied in place with
   [Relation.update_batch], so R1's heap and B-tree are rewritten.  After
   each batch, for every procedure, the oracle and Executor must agree on
   [run], on [run_base], and on [probe_chain] over the batch's new tuples
   (AVM's delta join).  Procedure managers, AVM, HOIVM and the language
   reach plans only through these three entry points.  [faulted] runs
   each comparison under injectors seeded alike on both sides. *)
let workload_params =
  {
    Costmodel.Params.default with
    Costmodel.Params.n = 2_000.0;
    n1 = 6.0;
    n2 = 6.0;
    f = 0.02;
    l = 12.0;
  }

let test_workload_parity ~model ~faulted () =
  let db = Workload.Database.build ~seed:5 ~model workload_params in
  let prng = Util.Prng.create 11 in
  let injected = ref 0 in
  for step = 1 to 10 do
    let changes = Workload.Database.random_update db prng in
    let news = List.map snd changes in
    ignore (Relation.update_batch db.Workload.Database.r1 changes);
    List.iteri
      (fun i def ->
        let plan = Planner.compile def in
        let agree what oracle executor =
          let fault_seed = if faulted then Some ((1000 * step) + i) else None in
          let o = measure ?fault_seed db.Workload.Database.io oracle in
          let e = measure ?fault_seed db.Workload.Database.io executor in
          injected := !injected + o.injected;
          check_agree
            (Printf.sprintf "update %d, %s, %s" step def.View_def.name what)
            o e
        in
        agree "run" (fun () -> Oracle.run plan) (fun () -> Executor.run plan);
        agree "run_base" (fun () -> Oracle.run_base plan) (fun () -> Executor.run_base plan);
        let probes = plan.Plan.probes in
        agree "probe_chain"
          (fun () -> Oracle.probe_chain ~probes ~outer:news)
          (fun () -> Executor.probe_chain ~probes ~outer:news))
      (Workload.Database.all_defs db)
  done;
  Alcotest.(check bool) "faults injected iff faulted" faulted (!injected > 0)

(* ------------------------------------------------------ batching metrics *)

let test_batch_counters () =
  let m = Dbproc_obs.Ctx.metrics Dbproc_obs.Ctx.default in
  let before_t = Metrics.get m Metrics.Tuples_batched in
  let before_b = Metrics.get m Metrics.Batches_emitted in
  let fx = make_fixture ~r_rows:60 () in
  let plan = Planner.compile (select_view fx 0 60) in
  let rows = Executor.run plan in
  Alcotest.(check int) "rows" 60 (List.length rows);
  Alcotest.(check int) "tuples batched" 60 (Metrics.get m Metrics.Tuples_batched - before_t);
  Alcotest.(check bool) "batches emitted" true
    (Metrics.get m Metrics.Batches_emitted - before_b >= 1)

(* -------------------------------------------------------- statement cache *)

open Dbproc.Lang

let get_metric interp c = Metrics.get (Dbproc_obs.Ctx.metrics (Interp.obs interp)) c

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let setup_session () =
  let interp = Interp.create ~ctx:(Dbproc_obs.Ctx.create ()) () in
  List.iter
    (fun line ->
      match Interp.exec_line interp line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "setup %S: %s" line msg)
    [
      "create emp (name = string, dept = int)";
      "append to emp (name = \"a\", dept = 1)";
      "append to emp (name = \"b\", dept = 2)";
    ];
  interp

let test_stmt_cache_hits () =
  let interp = setup_session () in
  let q = "retrieve (emp.all) where emp.dept = 1" in
  let first = Result.get_ok (Interp.exec_line interp q) in
  (* same text, extra whitespace: normalization must still hit *)
  let second =
    Result.get_ok (Interp.exec_line interp "retrieve  (emp.all)  where emp.dept = 1")
  in
  let third = Result.get_ok (Interp.exec_line interp q) in
  Alcotest.(check string) "hit output identical" first second;
  Alcotest.(check string) "hit output identical again" first third;
  Alcotest.(check int) "one miss" 1 (get_metric interp Metrics.Plan_cache_misses);
  Alcotest.(check int) "two hits" 2 (get_metric interp Metrics.Plan_cache_hits)

(* Cache keys follow the lexer: whitespace inside a string literal is
   significant and an escaped quote does not end it, a comment ends at
   its newline, and whitespace between tokens still normalizes to a hit. *)
let test_stmt_cache_keys_follow_lexer () =
  let interp = setup_session () in
  List.iter
    (fun line -> ignore (Result.get_ok (Interp.exec_line interp line)))
    [ "append to emp (name = \"a  b\", dept = 3)"; "append to emp (name = \"a b\", dept = 4)" ];
  let dept name =
    Result.get_ok
      (Interp.exec_line interp (Printf.sprintf "retrieve (emp.dept) where emp.name = %S" name))
  in
  Alcotest.(check bool) "two spaces: dept 3" true (contains (dept "a  b") "<3>");
  Alcotest.(check bool) "one space: dept 4" true (contains (dept "a b") "<4>");
  let hits = get_metric interp Metrics.Plan_cache_hits in
  ignore
    (Result.get_ok
       (Interp.exec_line interp "retrieve  (emp.dept)   where emp.name = \"a b\""));
  Alcotest.(check int) "spacing between tokens still hits" (hits + 1)
    (get_metric interp Metrics.Plan_cache_hits);
  Alcotest.(check string) "escaped quote stays inside the literal" {|x = "q\"  r" and y|}
    (Stmt_cache.normalize {|x  =  "q\"  r"   and y|});
  Alcotest.(check string) "a comment ends at its newline" "a b"
    (Stmt_cache.normalize "a -- c\nb");
  Alcotest.(check string) "a comment runs to the end of the line" "a"
    (Stmt_cache.normalize "a -- c b")

(* Equal keys must mean equal statements: a normalized line lexes to the
   same tokens as the line itself, or fails to lex just the same. *)
let test_stmt_cache_key_lexes_alike =
  let chars = QCheck.Gen.oneofl [ ' '; '\n'; '\t'; '-'; '"'; '\\'; 'a'; '1'; '.'; '=' ] in
  QCheck.Test.make ~name:"normalized keys lex like their lines" ~count:500
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:chars (int_bound 16)))
    (fun line ->
      let lex l = match Lexer.tokenize l with toks -> Some toks | exception _ -> None in
      lex (Stmt_cache.normalize line) = lex line)

let test_stmt_cache_invalidation () =
  let interp = setup_session () in
  let q = "retrieve (emp.all) where emp.dept = 2" in
  ignore (Result.get_ok (Interp.exec_line interp q));
  ignore (Result.get_ok (Interp.exec_line interp q));
  Alcotest.(check int) "hit before DDL" 1 (get_metric interp Metrics.Plan_cache_hits);
  (* index creation changes plan choice: the cache must drop the entry *)
  ignore (Result.get_ok (Interp.exec_line interp "index emp hash on dept"));
  Alcotest.(check int) "invalidated" 1 (get_metric interp Metrics.Plan_cache_invalidations);
  let replanned = Result.get_ok (Interp.exec_line interp q) in
  Alcotest.(check int) "miss after invalidation" 2
    (get_metric interp Metrics.Plan_cache_misses);
  (* and the replanned query (now a hash point) returns the same rows *)
  ignore replanned;
  ignore (Result.get_ok (Interp.exec_line interp q));
  Alcotest.(check int) "hits again" 2 (get_metric interp Metrics.Plan_cache_hits)

let test_stmt_cache_cost_neutral () =
  (* the cache must not change simulated cost: same session script with
     and without the cache charges identical milliseconds *)
  let script =
    [
      "create emp (name = string, dept = int)";
      "append to emp (name = \"a\", dept = 1)";
      "append to emp (name = \"b\", dept = 2)";
      "retrieve (emp.all) where emp.dept = 1";
      "retrieve (emp.all) where emp.dept = 1";
      "retrieve (emp.all) where emp.dept = 1";
    ]
  in
  let run plan_cache =
    let interp = Interp.create ~ctx:(Dbproc_obs.Ctx.create ()) ~plan_cache () in
    let out =
      List.map (fun line -> Result.get_ok (Interp.exec_line interp line)) script
    in
    (out, Interp.simulated_ms interp)
  in
  let out_cached, ms_cached = run true in
  let out_plain, ms_plain = run false in
  Alcotest.(check (list string)) "same output" out_plain out_cached;
  Alcotest.(check (float 0.0)) "same simulated ms" ms_plain ms_cached

let test_stmt_cache_strategy_invalidates () =
  let interp = setup_session () in
  let q = "retrieve (emp.all) where emp.dept = 1" in
  ignore (Result.get_ok (Interp.exec_line interp q));
  ignore (Result.get_ok (Interp.exec_line interp "strategy ci"));
  Alcotest.(check int) "strategy migration invalidates" 1
    (get_metric interp Metrics.Plan_cache_invalidations);
  ignore (Result.get_ok (Interp.exec_line interp q));
  Alcotest.(check int) "replanned" 2 (get_metric interp Metrics.Plan_cache_misses)

(* A failed [strategy] command must leave the statement cache intact:
   the unknown name is rejected before the manager is replaced, so every
   cached plan still compiles against the live manager.  And [hoivm]
   must be a real strategy wherever the shared name table is consulted —
   accepted by [strategy], reported by [show script]. *)
let test_stmt_cache_failed_strategy_keeps_cache () =
  let interp = setup_session () in
  let q = "retrieve (emp.all) where emp.dept = 1" in
  ignore (Result.get_ok (Interp.exec_line interp q));
  (match Interp.exec_line interp "strategy zigzag" with
  | Error msg ->
    Alcotest.(check bool) "error names the strategy" true
      (contains msg "zigzag")
  | Ok out -> Alcotest.failf "unknown strategy accepted: %s" out);
  Alcotest.(check int) "failed strategy does not invalidate" 0
    (get_metric interp Metrics.Plan_cache_invalidations);
  let hits = get_metric interp Metrics.Plan_cache_hits in
  ignore (Result.get_ok (Interp.exec_line interp q));
  Alcotest.(check int) "replay after failed strategy is a cache hit" (hits + 1)
    (get_metric interp Metrics.Plan_cache_hits);
  (* a real migration to hoivm does invalidate, once *)
  ignore (Result.get_ok (Interp.exec_line interp "strategy hoivm"));
  Alcotest.(check int) "hoivm migration invalidates" 1
    (get_metric interp Metrics.Plan_cache_invalidations);
  let script = Result.get_ok (Interp.exec_line interp "show script") in
  Alcotest.(check bool) "session script round-trips strategy hoivm" true
    (contains script "strategy hoivm")

(* Eviction at max_entries: FIFO, size-bounded, hit-after-evict is a
   plain miss that re-stores as the newest entry. *)
let test_stmt_cache_eviction_unit () =
  let m = Metrics.create () in
  let cache = Stmt_cache.create ~max_entries:4 ~metrics:m () in
  let entry () = { Stmt_cache.cmd = Ast.Help; prepared = None } in
  let key i = Printf.sprintf "retrieve (emp.all) where emp.dept = %d" i in
  let evictions () = Metrics.get m Metrics.Plan_cache_evictions in
  for i = 0 to 3 do
    Stmt_cache.store cache (key i) (entry ())
  done;
  Alcotest.(check int) "filled to capacity" 4 (Stmt_cache.size cache);
  Alcotest.(check int) "no evictions below capacity" 0 (evictions ());
  Stmt_cache.store cache (key 4) (entry ());
  Alcotest.(check int) "size bounded at capacity" 4 (Stmt_cache.size cache);
  Alcotest.(check int) "one eviction" 1 (evictions ());
  Alcotest.(check bool) "oldest insertion evicted" true (Stmt_cache.find cache (key 0) = None);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d survives" i)
        true
        (Stmt_cache.find cache (key i) <> None))
    [ 1; 2; 3; 4 ];
  (* hit-after-evict: the evicted statement misses and re-stores as the
     newest entry, pushing out the current FIFO front *)
  Stmt_cache.store cache (key 0) (entry ());
  Alcotest.(check int) "still bounded" 4 (Stmt_cache.size cache);
  Alcotest.(check int) "second eviction" 2 (evictions ());
  Alcotest.(check bool) "front (key 1) evicted" true (Stmt_cache.find cache (key 1) = None);
  Alcotest.(check bool) "re-stored key back" true (Stmt_cache.find cache (key 0) <> None);
  (* refreshing a live key is a replace, not an insert: nothing evicts *)
  Stmt_cache.store cache (key 4) (entry ());
  Alcotest.(check int) "refresh does not evict" 2 (evictions ());
  Alcotest.(check int) "refresh keeps size" 4 (Stmt_cache.size cache);
  (* wholesale invalidation still drops everything, evicted or not *)
  Stmt_cache.invalidate cache;
  Alcotest.(check int) "invalidate empties" 0 (Stmt_cache.size cache);
  Stmt_cache.store cache (key 9) (entry ());
  Alcotest.(check int) "usable after invalidate" 1 (Stmt_cache.size cache);
  Alcotest.(check int) "no spurious eviction after invalidate" 2 (evictions ())

(* End-to-end through the session: overflow the default 512-entry cache
   with distinct statements; the first statement must then recompile (a
   plain miss), not answer from a ghost entry. *)
let test_stmt_cache_eviction_session () =
  let interp = setup_session () in
  let q i = Printf.sprintf "retrieve (emp.all) where emp.dept = %d" i in
  let first = Result.get_ok (Interp.exec_line interp (q 0)) in
  for i = 1 to 512 do
    ignore (Result.get_ok (Interp.exec_line interp (q i)))
  done;
  Alcotest.(check int) "one eviction past capacity" 1
    (get_metric interp Metrics.Plan_cache_evictions);
  let misses = get_metric interp Metrics.Plan_cache_misses in
  let again = Result.get_ok (Interp.exec_line interp (q 0)) in
  Alcotest.(check string) "same answer after re-compile" first again;
  Alcotest.(check int) "hit-after-evict is a miss" (misses + 1)
    (get_metric interp Metrics.Plan_cache_misses);
  Alcotest.(check int) "re-store evicted the next FIFO entry" 2
    (get_metric interp Metrics.Plan_cache_evictions)

(* ----------------------------------------------------------------- suite *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [
      ( "batch",
        [
          Alcotest.test_case "roundtrip" `Quick test_batch_roundtrip;
          Alcotest.test_case "filter" `Quick test_batch_filter;
          Alcotest.test_case "builder" `Quick test_batch_builder;
          Alcotest.test_case "builder growth" `Quick test_batch_builder_grow;
        ] );
      ( "order",
        [
          Alcotest.test_case "btree range order (interp)" `Quick (test_range_order oracle_run);
          Alcotest.test_case "btree range order (compiled)" `Quick (test_range_order run_checked);
        ] );
      ( "planner-edge",
        [
          Alcotest.test_case "point predicate without index" `Quick
            test_planner_point_no_index;
          Alcotest.test_case "range with only a hash index" `Quick
            test_planner_range_only_hash;
          Alcotest.test_case "empty range (interp)" `Quick (test_empty_range oracle_run);
          Alcotest.test_case "empty range (compiled)" `Quick (test_empty_range run_checked);
        ] );
      ( "differential",
        [
          Alcotest.test_case "scan" `Quick test_oracle_agrees_scan;
          Alcotest.test_case "index join" `Quick test_oracle_agrees_join;
          Alcotest.test_case "scan join" `Quick test_oracle_agrees_scan_join;
          Alcotest.test_case "empty outer" `Quick test_oracle_agrees_empty_outer;
          Alcotest.test_case "charge parity under transient faults" `Quick
            test_oracle_agrees_under_faults;
          qc test_qcheck_differential;
          Alcotest.test_case "paper workload, model 1" `Quick
            (test_workload_parity ~model:Costmodel.Model.Model1 ~faulted:false);
          Alcotest.test_case "paper workload, model 2" `Quick
            (test_workload_parity ~model:Costmodel.Model.Model2 ~faulted:false);
          Alcotest.test_case "paper workload under faults, model 1" `Quick
            (test_workload_parity ~model:Costmodel.Model.Model1 ~faulted:true);
          Alcotest.test_case "paper workload under faults, model 2" `Quick
            (test_workload_parity ~model:Costmodel.Model.Model2 ~faulted:true);
          Alcotest.test_case "hash point" `Quick test_oracle_agrees_hash_point;
        ] );
      ("metrics", [ Alcotest.test_case "batch counters" `Quick test_batch_counters ]);
      ( "stmt-cache",
        [
          Alcotest.test_case "hits and normalization" `Quick test_stmt_cache_hits;
          Alcotest.test_case "keys follow the lexer's rules" `Quick
            test_stmt_cache_keys_follow_lexer;
          qc test_stmt_cache_key_lexes_alike;
          Alcotest.test_case "DDL invalidation" `Quick test_stmt_cache_invalidation;
          Alcotest.test_case "cost neutrality" `Quick test_stmt_cache_cost_neutral;
          Alcotest.test_case "strategy invalidation" `Quick
            test_stmt_cache_strategy_invalidates;
          Alcotest.test_case "failed strategy keeps cache" `Quick
            test_stmt_cache_failed_strategy_keeps_cache;
          Alcotest.test_case "eviction at max_entries (unit)" `Quick
            test_stmt_cache_eviction_unit;
          Alcotest.test_case "eviction at max_entries (session)" `Quick
            test_stmt_cache_eviction_session;
        ] );
    ]
