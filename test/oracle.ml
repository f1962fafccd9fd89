(* The tuple-at-a-time plan interpreter: the reference the executor
   differentials compare [Query.Executor] with.  It walks a plan one tuple
   at a time and charges exactly what the paper's cost model prices —
   pages through the relations' I/O layer, one C1 screen per tuple the
   base access path materializes and per outer tuple per join probe, one
   C1 per pair a scan join tests — so the compiled pipeline must match it
   on tuples, their order, and every charge.  Its entry points mirror
   [Executor.run], [run_base] and [probe_chain], each under the same
   per-execution page dedup. *)

open Dbproc
open Dbproc.Storage
open Dbproc.Query

let charge_screen io = Cost.cpu_screen (Io.cost io)

let note_scanned io =
  if Io.counting io then Dbproc_obs.Metrics.incr (Io.metrics io) Dbproc_obs.Metrics.Tuples_scanned

let run_access (plan : Plan.t) =
  let rel = plan.base_rel in
  let io = Relation.io rel in
  match plan.access with
  | Plan.Full_scan { residual } ->
    let out = ref [] in
    Relation.scan rel ~f:(fun _rid tuple ->
        note_scanned io;
        charge_screen io;
        if Predicate.eval residual tuple then out := tuple :: !out);
    List.rev !out
  | Plan.Hash_point { attr; key; residual } ->
    Relation.fetch_by_key rel ~attr key
    |> List.filter_map (fun (_rid, tuple) ->
           charge_screen io;
           if Predicate.eval residual tuple then Some tuple else None)
  | Plan.Btree_range { attr; lo; hi; residual } -> (
    match Relation.btree_on rel ~attr with
    | None ->
      invalid_arg
        (Printf.sprintf "Executor: plan expects a btree on %s.%s" (Relation.name rel) attr)
    | Some btree ->
      (* fold directly in range order: one reversal of the accumulated
         output, not two of the rid list *)
      let out = ref [] in
      Index.Btree.range btree ~lo ~hi ~f:(fun _k rid ->
          let tuple = Relation.get rel rid in
          note_scanned io;
          charge_screen io;
          if Predicate.eval residual tuple then out := tuple :: !out);
      List.rev !out)

let run_probe (probe : Plan.join_probe) outer_tuples =
  let io = Relation.io probe.probe_rel in
  if probe.use_index then
    List.concat_map
      (fun outer ->
        charge_screen io;
        let key = Tuple.get outer probe.outer_attr in
        Relation.fetch_by_key probe.probe_rel ~attr:probe.probe_attr key
        |> List.filter_map (fun (_rid, inner) ->
               if Predicate.eval probe.residual inner then Some (Tuple.concat outer inner)
               else None))
      outer_tuples
  else begin
    (* Scan join: read the inner relation once (page dedup makes repeated
       scans free within this query) and test every pair.  One C1 per
       outer tuple per inner tuple — the quadratic CPU a real nested loop
       pays. *)
    let probe_pos = Schema.index_of (Relation.schema probe.probe_rel) probe.probe_attr in
    List.concat_map
      (fun outer ->
        let key = Tuple.get outer probe.outer_attr in
        let out = ref [] in
        Relation.scan probe.probe_rel ~f:(fun _rid inner ->
            note_scanned io;
            charge_screen io;
            if
              Predicate.eval_op probe.op key (Tuple.get inner probe_pos)
              && Predicate.eval probe.residual inner
            then out := Tuple.concat outer inner :: !out);
        List.rev !out)
      outer_tuples
  end

(* ------------------------------------------------------- entry points *)

let run (plan : Plan.t) =
  Io.with_touch_dedup (Relation.io plan.base_rel) (fun () ->
      List.fold_left (fun acc pr -> run_probe pr acc) (run_access plan) plan.probes)

let run_base (plan : Plan.t) =
  Io.with_touch_dedup (Relation.io plan.base_rel) (fun () -> run_access plan)

let probe_chain ~probes ~outer =
  match probes with
  | [] -> outer
  | first :: _ ->
    Io.with_touch_dedup (Relation.io first.Plan.probe_rel) (fun () ->
        List.fold_left (fun acc p -> run_probe p acc) outer probes)
