open Dbproc_storage
open Dbproc_relation

(* ------------------------------------------------- prepared statements *)

type prepared = { plan : Plan.t; mutable compiled : Compiled.t option }

let prepare plan = { plan; compiled = None }

let compiled_of p =
  match p.compiled with
  | Some c -> c
  | None ->
    let c = Compiled.of_plan p.plan in
    p.compiled <- Some c;
    c

(* ------------------------------------------------------- entry points *)

let run_prepared (p : prepared) =
  let io = Relation.io p.plan.base_rel in
  if Io.counting io then Dbproc_obs.Metrics.incr (Io.metrics io) Dbproc_obs.Metrics.Plans_executed;
  Io.with_touch_dedup io (fun () -> Compiled.execute (compiled_of p))

let run plan = run_prepared (prepare plan)

let run_base (plan : Plan.t) =
  let io = Relation.io plan.base_rel in
  Io.with_touch_dedup io (fun () ->
      Compiled.execute_base (Compiled.of_plan { plan with probes = [] }))

let probe_chain ~probes ~outer =
  match probes with
  | [] -> outer
  | first :: _ ->
    let io = Relation.io first.Plan.probe_rel in
    Io.with_touch_dedup io (fun () -> Compiled.probe_pipeline probes outer)
