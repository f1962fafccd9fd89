(* Randomized cross-strategy fuzzing.

   Each QCheck case builds a random database (2-3 relations, random
   arities, small value domains so joins produce duplicates and empty
   matches), a random view chain over it (random interval or multi-attr
   restrictions, 0-2 equi-join steps), and a random mutation script
   (in-place updates, inserts, deletes against any relation).  The script
   runs under all four strategies; after every transaction each strategy's
   access result must equal Always Recompute's, and at the end every
   strategy's stored state must match recomputation.

   This exercises paths the structured fixtures do not: full-scan access
   paths (whole-relation i-locks), duplicate join keys, tuples inserted
   and deleted in one script, empty views, and inner-relation deltas. *)

open Dbproc
open Dbproc.Storage
open Dbproc.Query
open Dbproc.Proc

(* ------------------------------------------------- random database *)

type spec = {
  seed : int;
  rel_count : int; (* 1..3 *)
  arities : int list; (* per relation, 2..4 *)
  sizes : int list; (* per relation, 8..50 *)
  domain : int; (* attribute value domain *)
  base_restriction : [ `Interval of int * int | `Multi of int * int | `None ];
  join_count : int; (* 0 .. rel_count-1 *)
  join_styles : [ `Indexed_eq | `Unindexed_eq | `Less_than ] list;
      (* per potential join step; `Indexed_eq probes the hash key a0,
         the others force scan joins *)
  script : [ `Update of int * int | `Insert of int | `Delete of int * int ] list;
}

let spec_gen =
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 in
  let* rel_count = int_range 1 3 in
  let* arities = flatten_l (List.init rel_count (fun _ -> int_range 2 4)) in
  let* sizes = flatten_l (List.init rel_count (fun _ -> int_range 8 50)) in
  let* domain = int_range 4 30 in
  let* base_restriction =
    oneof
      [
        (let* lo = int_range 0 20 in
         let* w = int_range 1 15 in
         return (`Interval (lo, w)));
        (let* v = int_bound 30 in
         let* w = int_bound 30 in
         return (`Multi (v, w)));
        return `None;
      ]
  in
  let* join_count = int_range 0 (rel_count - 1) in
  let* join_styles =
    flatten_l
      (List.init (max join_count 1) (fun _ ->
           frequency
             [ (6, return `Indexed_eq); (2, return `Unindexed_eq); (1, return `Less_than) ]))
  in
  let* script =
    list_size (int_range 1 12)
      (oneof
         [
           (let* rel = int_bound (rel_count - 1) in
            let* v = int_bound 60 in
            return (`Update (rel, v)));
           (let* rel = int_bound (rel_count - 1) in
            return (`Insert rel));
           (let* rel = int_bound (rel_count - 1) in
            let* v = int_bound 60 in
            return (`Delete (rel, v)));
         ])
  in
  return
    { seed; rel_count; arities; sizes; domain; base_restriction; join_count; join_styles; script }

let spec_print spec =
  Printf.sprintf "seed=%d rels=%d arities=[%s] sizes=[%s] domain=%d joins=%d script=%d ops"
    spec.seed spec.rel_count
    (String.concat ";" (List.map string_of_int spec.arities))
    (String.concat ";" (List.map string_of_int spec.sizes))
    spec.domain spec.join_count (List.length spec.script)

let spec_arbitrary = QCheck.make ~print:spec_print spec_gen

(* Build one database instance from a spec (fresh per strategy). *)
let build_db spec =
  let cost = Cost.create () in
  let io = Io.direct cost ~page_bytes:400 in
  let prng = Util.Prng.create spec.seed in
  let rels =
    List.mapi
      (fun i (arity, size) ->
        let schema =
          Schema.create (List.init arity (fun a -> (Printf.sprintf "a%d" a, Value.TInt)))
        in
        let rel =
          Relation.create ~io ~name:(Printf.sprintf "T%d" i) ~schema ~tuple_bytes:100
        in
        (* a0 is a (possibly duplicated) join key in [0, domain). *)
        Relation.load rel
          (List.init size (fun _ ->
               Tuple.create
                 (List.init arity (fun a ->
                      if a = 0 then Value.Int (Util.Prng.int prng spec.domain)
                      else Value.Int (Util.Prng.int prng 60)))));
        if i = 0 then Relation.add_btree_index rel ~attr:"a0" ~entry_bytes:20
        else
          Relation.add_hash_index ~primary:true rel ~attr:"a0" ~entry_bytes:100
            ~expected_entries:size;
        rel)
      (List.combine spec.arities spec.sizes)
  in
  (cost, io, rels)

let build_def spec rels =
  let base = List.hd rels in
  let restriction =
    match spec.base_restriction with
    | `Interval (lo, w) ->
      [
        Predicate.term ~attr:0 ~op:Predicate.Ge ~value:(Value.Int lo);
        Predicate.term ~attr:0 ~op:Predicate.Lt ~value:(Value.Int (lo + w));
      ]
    | `Multi (v, w) ->
      (* constrains two attributes: no single-attr interval, so the access
         path is a full scan and the i-lock covers the whole relation *)
      [
        Predicate.term ~attr:0 ~op:Predicate.Le ~value:(Value.Int v);
        Predicate.term ~attr:1 ~op:Predicate.Ne ~value:(Value.Int w);
      ]
    | `None -> Predicate.always_true
  in
  let def = View_def.select ~name:"fuzz" ~rel:base ~restriction in
  let joined = List.filteri (fun i _ -> i > 0 && i <= spec.join_count) rels in
  let styles = Array.of_list spec.join_styles in
  let def, _, _ =
    List.fold_left
      (fun (def, prng, step_i) rel ->
        (* join a random attribute of the accumulated schema to the new
           relation; the style picks indexed vs scan joins *)
        let acc_arity = Schema.arity (View_def.schema def) in
        let left_pos = Util.Prng.int prng acc_arity in
        let left_name = (Schema.attr (View_def.schema def) left_pos).Schema.name in
        let op, right =
          match styles.(step_i mod Array.length styles) with
          | `Indexed_eq -> (Predicate.Eq, "a0")
          | `Unindexed_eq -> (Predicate.Eq, "a1")
          | `Less_than -> (Predicate.Lt, "a1")
        in
        ( View_def.join def ~rel ~restriction:Predicate.always_true ~left:left_name ~op
            ~right,
          prng,
          step_i + 1 ))
      (def, Util.Prng.create (spec.seed + 7), 0)
      joined
  in
  def

(* One strategy's full run: returns the access result after every txn.
   With [adaptive], [kind] is only where the runtime selector starts. *)
let run_under ?adaptive spec kind =
  let cost, io, rels = build_db spec in
  let def = build_def spec rels in
  let manager = Manager.create kind ~io ~record_bytes:100 ?adaptive () in
  let id = Manager.register manager def in
  let prng = Util.Prng.create (spec.seed + 13) in
  let arities = Array.of_list spec.arities in
  let rel_arr = Array.of_list rels in
  let snapshots =
    List.map
      (fun op ->
        (match op with
        | `Update (r, v) -> (
          let rel = rel_arr.(r) in
          let all =
            Cost.with_disabled cost (fun () ->
                let acc = ref [] in
                Relation.scan rel ~f:(fun rid t -> acc := (rid, t) :: !acc);
                !acc)
          in
          match all with
          | [] -> ()
          | _ ->
            let rid, old_t = List.nth all (Util.Prng.int prng (List.length all)) in
            let attr = Util.Prng.int prng arities.(r) in
            let new_t =
              Tuple.create
                (List.mapi
                   (fun i x -> if i = attr then Value.Int (v mod spec.domain) else x)
                   (Tuple.to_list old_t))
            in
            let old_new =
              Cost.with_disabled cost (fun () -> Relation.update_batch rel [ (rid, new_t) ])
            in
            Manager.on_update manager ~rel ~changes:old_new)
        | `Insert r ->
          let rel = rel_arr.(r) in
          let tuple =
            Tuple.create
              (List.init arities.(r) (fun _ -> Value.Int (Util.Prng.int prng spec.domain)))
          in
          ignore (Relation.insert rel tuple);
          Manager.on_delta manager ~rel ~inserted:[ tuple ] ~deleted:[]
        | `Delete (r, v) -> (
          let rel = rel_arr.(r) in
          let victim =
            Cost.with_disabled cost (fun () ->
                let found = ref None in
                Relation.scan rel ~f:(fun rid t ->
                    if !found = None && Value.equal (Tuple.get t 0) (Value.Int (v mod spec.domain))
                    then found := Some (rid, t));
                !found)
          in
          match victim with
          | Some (rid, t) when Relation.cardinality rel > 1 ->
            ignore (Relation.delete rel rid);
            Manager.on_delta manager ~rel ~inserted:[] ~deleted:[ t ]
          | _ -> ()));
        List.sort Tuple.compare (Manager.access manager id))
      spec.script
  in
  let consistent = Manager.matches_recompute manager id in
  (snapshots, consistent)

let strategies =
  [
    Manager.Always_recompute;
    Manager.Cache_invalidate;
    Manager.Update_cache_avm;
    Manager.Update_cache_rvm;
    Manager.Update_cache_hoivm;
  ]

let fuzz_all_strategies =
  QCheck.Test.make ~name:"fuzz: all strategies agree on random schemas/views/scripts"
    ~count:60 spec_arbitrary (fun spec ->
      match List.map (run_under spec) strategies with
      | (ar_snaps, ar_ok) :: rest ->
        ar_ok
        && List.for_all
             (fun (snaps, ok) ->
               ok
               && List.for_all2
                    (fun a b ->
                      List.length a = List.length b && List.for_all2 Tuple.equal a b)
                    ar_snaps snaps)
             rest
      | [] -> false)

(* The runtime selector migrates procedures between strategies mid-script;
   every access must still equal Always Recompute's.  The declared
   workload is small and read-only, so placement caches and the script's
   update traffic drives migrations in every case. *)
let fuzz_adaptive =
  QCheck.Test.make ~name:"fuzz: adaptive selector stays correct" ~count:30 spec_arbitrary
    (fun spec ->
      let open Costmodel in
      let adaptive =
        Manager.adaptive_config ~window:4 ~model:Model.Model1
          ~params:{ Params.default with Params.n = 50.0; k = 0.0 }
          ()
      in
      let ar_snaps, ar_ok = run_under spec Manager.Always_recompute in
      let snaps, ok = run_under ~adaptive spec Manager.Cache_invalidate in
      ar_ok && ok
      && List.for_all2
           (fun a b -> List.length a = List.length b && List.for_all2 Tuple.equal a b)
           ar_snaps snaps)

(* ------------------------------------------- crash-LSN fuzzing *)

(* Randomized companion to test_recovery's deterministic sweep: a random
   workload seed, a random strategy and 1-3 random crash points (drawn as
   fractions of the run's total charged touches, so every region of the
   workload is reachable), checked against the fault-free oracle of the
   same seed. *)

let crash_params =
  {
    Costmodel.Params.default with
    Costmodel.Params.n = 800.0;
    n1 = 3.0;
    n2 = 3.0;
    q = 8.0;
    k = 8.0;
    l = 5.0;
    f = 0.005;
  }

let crash_spec_gen =
  let open QCheck.Gen in
  let* seed = int_bound 10_000 in
  let* strategy_idx = int_bound 3 in
  let* fracs = list_size (int_range 1 3) (float_range 0.01 0.99) in
  return (seed, strategy_idx, fracs)

let crash_spec_print (seed, strategy_idx, fracs) =
  Printf.sprintf "{seed=%d; strategy=%s; fracs=[%s]}" seed
    (Costmodel.Strategy.name (List.nth Costmodel.Strategy.all strategy_idx))
    (String.concat "; " (List.map (Printf.sprintf "%.3f") fracs))

let fuzz_crash_recovery =
  QCheck.Test.make ~count:12 ~name:"random crash points recover to the oracle"
    (QCheck.make ~print:crash_spec_print crash_spec_gen)
    (fun (seed, strategy_idx, fracs) ->
      let strategy = List.nth Costmodel.Strategy.all strategy_idx in
      let run ?fault_config ?crash_points () =
        Workload.Driver.run_with_crashes ~seed ?fault_config ?crash_points
          ~model:Costmodel.Model.Model1 ~params:crash_params strategy
      in
      let probe = run ~fault_config:Fault.Injector.no_faults () in
      let touches = probe.Workload.Driver.cr_stats.Workload.Driver.cs_touches in
      let points =
        List.sort_uniq compare
          (List.map (fun f -> max 1 (int_of_float (f *. float_of_int touches))) fracs)
      in
      let crashed = run ~crash_points:points () in
      crashed.Workload.Driver.cr_stats.Workload.Driver.cs_crashes = List.length points
      && Workload.Driver.result_digest crashed = Workload.Driver.result_digest probe
      && crashed.Workload.Driver.cr_consistent)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ("fuzz", [ qc fuzz_all_strategies; qc fuzz_adaptive ]);
      ("crash", [ qc fuzz_crash_recovery ]);
    ]
