(* cluster-txn: three in-process nodes, each with its own replica, behind
   one Net.Coordinator driven by one client.  The only workload that loads
   routing, synchronous WAL shipping, semijoins and two-phase commit.  In
   process because a socket cluster needs seven processes on two cores. *)

open Dbproc
module C = Net.Coordinator
module P = Net.Protocol
module Metrics = Obs.Metrics

let r_rows = 20_000
let s_rows = 2_000
let nodes = 3
let ops_per_s = 3_000
let setup_reps = 5

(* R's keys are distinct and spread over the coordinator's default key
   domain, so every node owns a third of them. *)
let r_keys seed =
  let prng = Util.Prng.create seed in
  Array.init r_rows (fun i -> (i * 50) + Util.Prng.int prng 50)

let setup_lines seed keys =
  let prng = Util.Prng.create (seed + 1) in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "create R (k = int, v = int)";
  add "create S (k = int, w = int)";
  Array.iter (fun k -> add "append to R (k = %d, v = %d)" k (Util.Prng.int prng 1000)) keys;
  for _ = 1 to s_rows do
    add "append to S (k = %d, w = %d)"
      keys.(Util.Prng.int prng r_rows)
      (Util.Prng.int prng 1000)
  done;
  (* hash indexes are static and sized at creation: build them after the load *)
  add "index R hash on k";
  List.rev !lines

type kind = Access | Update | Query | Txn

let kinds = [ Access; Update; Query; Txn ]

let kind_name = function
  | Access -> "access"
  | Update -> "update"
  | Query -> "query"
  | Txn -> "txn"

(* Replaces only, so the data size stays fixed.  The join names S first:
   joins follow target order, and S restricted on w is the small side. *)
let ops seed keys ~n =
  let prng = Util.Prng.create ((seed * 7919) + 17) in
  let key () = keys.(Util.Prng.int prng r_rows) in
  let replace () =
    Printf.sprintf "replace R (v = %d) where R.k = %d" (Util.Prng.int prng 1000) (key ())
  in
  Array.init n (fun _ ->
      let x = Util.Prng.float prng in
      if x < 0.50 then (Access, [ Printf.sprintf "retrieve (R.all) where R.k = %d" (key ()) ])
      else if x < 0.75 then (Update, [ replace () ])
      else if x < 0.85 then
        ( Query,
          [
            Printf.sprintf "retrieve (S.w, R.v) where S.w = %d and S.k = R.k"
              (Util.Prng.int prng 1000);
          ] )
      else
        let a = replace () in
        let b = replace () in
        (Txn, [ "begin"; a; b; "commit" ]))

(* The span a link call is recorded under, by request. *)
let link_span ~replica (req : P.request) =
  match req with
  | P.Join_probe _ -> "net.node.join_probe"
  | P.Wal_pull _ | P.Wal_push _ -> "net.repl.ship"
  | P.Txn_prepare _ -> "net.2pc.prepare"
  | P.Txn_commit _ -> "net.2pc.commit"
  | P.Txn_abort _ -> "net.2pc.abort"
  | _ -> if replica then "net.replica.other" else "net.node.exec"

(* Links are timed only while [tracing] is set: in the traced run's
   measured phase, not during its load. *)
let build ~seed ~spans ~tracing =
  let keys = r_keys seed in
  let link ~replica =
    let link, _kill = C.node_link (Net.Node.create ()) in
    if not (Spans.enabled spans) then link
    else fun req ->
      if not !tracing then link req
      else
        Spans.with_span spans (Spans.intern spans (link_span ~replica req)) (fun () -> link req)
  in
  let links = Array.init nodes (fun _ -> (link ~replica:false, Some (link ~replica:true))) in
  let c = C.create ~links () in
  List.iter
    (fun line ->
      let r = C.exec c line in
      if not r.C.ok then failwith ("cluster-txn setup failed: " ^ line ^ ": " ^ r.C.output))
    (setup_lines seed keys);
  (c, keys)

(* The oracle: one local session replaying the same statements in the same
   order (a committed transaction's replaces applied directly); every read
   must return the same multiset. *)
let replay ~seed ~keys ~ops ~digests =
  let session = Lang.Interp.create ~ctx:(Obs.Ctx.create ()) () in
  let exec line =
    match Lang.Interp.exec_line session line with
    | Ok _ -> ()
    | Error msg -> failwith ("cluster-txn replay: " ^ msg)
  in
  List.iter exec (setup_lines seed keys);
  let mismatches = ref [] in
  Array.iteri
    (fun i (kind, lines) ->
      match kind with
      | Access | Query ->
        let line = List.hd lines in
        let want =
          match Lang.Interp.fetch session line with
          | Ok (tuples, _) -> Some (Net.Wire.digest_tuples tuples)
          | Error msg -> Some ("error: " ^ msg)
        in
        if digests.(i) <> want && List.length !mismatches < 10 then
          mismatches := Printf.sprintf "op %d %S differs from the replay" i line :: !mismatches
      | Update | Txn -> List.iter (fun l -> if l <> "begin" && l <> "commit" then exec l) lines)
    ops;
  List.rev !mismatches

let run ~seed ~seconds ~trace =
  let n = ops_per_s * seconds in
  let spans = Spans.create ~enabled:trace ~capacity:(n * 6) in
  let tracing = ref false in
  let (c, keys), setup_s =
    Outcome.repeat_setup ~reps:setup_reps ~discard:ignore (fun () ->
        build ~seed ~spans ~tracing)
  in
  let ops = ops seed keys ~n in
  let id_op = List.map (fun k -> (k, Spans.intern spans ("op." ^ kind_name k))) kinds in
  let before = Obs.Ctx.metrics (C.snapshot c) and sim_before = C.sim_ms c in
  let lat = Array.make n 0.0 in
  let digests = Array.make n None in
  let failed = ref 0 in
  let step i =
    let kind, lines = ops.(i) in
    Spans.set_op spans i;
    let t0 = Spans.now () in
    Spans.with_span spans (List.assoc kind id_op) (fun () ->
        List.iter
          (fun line ->
            match C.exec_client c ~client:0 line with
            | `Done r ->
              if not r.C.ok then incr failed;
              if r.C.digest <> None then digests.(i) <- r.C.digest
            | `Park _ -> incr failed)
          lines);
    lat.(i) <- Outcome.ms_of_ns (Spans.now () - t0)
  in
  let throughput = Array.make Outcome.blocks 0.0 in
  tracing := true;
  let t_begin = Spans.now () in
  for b = 0 to Outcome.blocks - 1 do
    let lo = Outcome.block_start ~n b and hi = Outcome.block_start ~n (b + 1) in
    let t0 = Spans.now () in
    for i = lo to hi - 1 do
      step i
    done;
    throughput.(b) <- Outcome.rate ~ops:(hi - lo) ~ns:(Spans.now () - t0)
  done;
  let wall_ns = Spans.now () - t_begin in
  tracing := false;
  let heap_mb = Outcome.heap_peak_mb () in
  let after = Obs.Ctx.metrics (C.snapshot c) and sim_after = C.sim_ms c in
  let t_oracle = Spans.now () in
  let mismatches = replay ~seed ~keys ~ops ~digests in
  let oracle_ns = Spans.now () - t_oracle in
  let of_kinds ks =
    Array.of_list
      (List.filter_map
         (fun i -> if List.mem (fst ops.(i)) ks then Some lat.(i) else None)
         (List.init n Fun.id))
  in
  let classes ks =
    List.map
      (fun k -> (kind_name k, Outcome.by_block ~n ~keep:(fun i -> fst ops.(i) = k) (Array.get lat)))
      ks
  in
  let writes = of_kinds [ Update; Txn ] in
  let metrics, notes =
    Outcome.end_to_end ~throughput ~reads:(classes [ Access; Query ])
      ~writes:(classes [ Update; Txn ]) ~sim_ms:(sim_after -. sim_before)
      ~n_reads:(Array.length (of_kinds [ Access; Query ]))
      ~setup_s ~heap_mb
  in
  let layers =
    if not trace then []
    else begin
      let self = Spans.by_name spans in
      let share names = Outcome.share ~wall_ns (Array.concat (List.map self names)) in
      let per names denominator =
        float_of_int (Array.length (Array.concat (List.map self names))) /. denominator
      in
      let count_of k = float_of_int (Array.length (of_kinds [ k ])) in
      let delta counter = float_of_int (Metrics.get after counter - Metrics.get before counter) in
      let n_writes = float_of_int (Array.length writes) in
      let updates = of_kinds [ Update ] in
      let fifth = Array.length updates / 5 in
      let exec_names = [ "net.node.exec"; "net.node.join_probe" ] in
      List.map
        (fun k ->
          let name = kind_name k in
          ("net.coord.self." ^ name ^ ".p50_us", Outcome.q (self ("op." ^ name)) 0.5))
        kinds
      @ [
          ("net.coord.self.share", share (List.map (fun k -> "op." ^ kind_name k) kinds));
          ("net.node.exec.share", share exec_names);
          ("net.node.exec.p50_us", Outcome.q (Array.concat (List.map self exec_names)) 0.5);
          ("net.node.exec.calls_per_op", per exec_names (float_of_int n));
          ("net.node.join_probe.p50_us", Outcome.q (self "net.node.join_probe") 0.5);
          ("net.repl.ship.share", share [ "net.repl.ship" ]);
          ("net.repl.ship.p50_us", Outcome.q (self "net.repl.ship") 0.5);
          ("net.repl.ship.calls_per_update", per [ "net.repl.ship" ] n_writes);
          ( "net.repl.update_drift_ratio",
            Outcome.ratio
              (Outcome.q (Array.sub updates (Array.length updates - fifth) fifth) 0.5)
              (Outcome.q (Array.sub updates 0 fifth) 0.5) );
          ("net.2pc.prepare.share", share [ "net.2pc.prepare" ]);
          ("net.2pc.prepare.p50_us", Outcome.q (self "net.2pc.prepare") 0.5);
          ("net.2pc.commit.share", share [ "net.2pc.commit" ]);
          ("net.2pc.commit.p50_us", Outcome.q (self "net.2pc.commit") 0.5);
          ( "cluster.broadcast_ratio",
            Outcome.ratio
              (delta Metrics.Cluster_stmts_broadcast)
              (delta Metrics.Cluster_stmts_broadcast +. delta Metrics.Cluster_stmts_routed) );
          ("repl.records_shipped_per_update", delta Metrics.Repl_records_shipped /. n_writes);
          ( "txn2pc.participants_per_txn",
            Outcome.ratio (delta Metrics.Txn2pc_participants) (count_of Txn) );
          ( "cluster.tuples_shipped_per_query",
            Outcome.ratio (delta Metrics.Cluster_tuples_shipped) (count_of Query) );
          ("trace.coverage", Spans.coverage spans ~wall_ns);
        ]
    end
  in
  ( {
      Outcome.correct = mismatches = [];
      attempted = n;
      failed = !failed;
      metrics = metrics @ layers;
      notes =
        (if trace then [] else Outcome.phases ~setup_s ~wall_ns ~oracle_ns :: notes) @ mismatches;
    },
    spans )
