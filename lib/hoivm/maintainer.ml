open Dbproc_storage
open Dbproc_relation
open Dbproc_query
module Metrics = Dbproc_obs.Metrics

module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* One materialized derived view: an α-memory (restricted source) or a
   join prefix (sources 0..k).  [heap]+[pending] is the truth the cost
   model sees in pages; [hash] is the in-memory probe structure the
   higher-order propagation reads and is always current.  For an
   equality step the hash buckets on the join-key value; for any other
   operator everything lives in one bucket and probes filter per pair. *)
type node = {
  nd_plan : Plan.t;  (* rebuild/populate plan for this view *)
  heap : Tuple.t Heap_file.t;
  rids : Heap_file.rid list Tuple_tbl.t;  (* multiset: one rid per stored copy *)
  pending : int Tuple_tbl.t;  (* net delta not yet applied to [heap] *)
  hash : Tuple.t list Tuple_tbl.t;
  hkey : int;  (* position the hash keys on; -1 = no probe hash (the top) *)
  hop : Predicate.op;
}

type t = {
  name : string;
  def : View_def.t;
  steps : View_def.join_step array;
  n : int;  (* number of sources *)
  alphas : node array;  (* length n; [alphas.(0) == levels.(0)] *)
  levels : node array;  (* length n; [levels.(n-1)] is the view itself *)
  heavy_threshold : int;
  flush_threshold : int;
  freq : int Tuple_tbl.t;  (* observed delta count per (source, join key) *)
  heavy : unit Tuple_tbl.t;  (* promoted keys *)
  mutable cold : (int * Tuple.t list * Tuple.t list) list;  (* newest first *)
  mutable cold_tuples : int;
}

let io t = Relation.io t.def.View_def.base.rel
let metrics t = Io.metrics (io t)
let cost t = Io.cost (io t)

let unit_key = Tuple.create []
let key1 v = Tuple.create [ v ]

(* --- node primitives ------------------------------------------------ *)

let bucket_key node tuple =
  match node.hop with
  | Predicate.Eq -> key1 (Tuple.get tuple node.hkey)
  | _ -> unit_key

let hash_insert node tuple =
  if node.hkey >= 0 then begin
    let key = bucket_key node tuple in
    Tuple_tbl.replace node.hash key
      (tuple :: Option.value (Tuple_tbl.find_opt node.hash key) ~default:[])
  end

let hash_remove node tuple =
  if node.hkey >= 0 then begin
    let key = bucket_key node tuple in
    match Tuple_tbl.find_opt node.hash key with
    | None -> ()
    | Some bucket ->
      let rec drop_one = function
        | [] -> []
        | x :: rest -> if Tuple.equal x tuple then rest else x :: drop_one rest
      in
      (match drop_one bucket with
      | [] -> Tuple_tbl.remove node.hash key
      | bucket' -> Tuple_tbl.replace node.hash key bucket')
  end

let bump_pending node tuple by =
  let c = Option.value (Tuple_tbl.find_opt node.pending tuple) ~default:0 + by in
  if c = 0 then Tuple_tbl.remove node.pending tuple
  else Tuple_tbl.replace node.pending tuple c

(* Fold a view-level delta into the node: probe hash current immediately,
   page application deferred through [pending]. *)
let note_delta node ~inserted ~deleted =
  List.iter
    (fun tu ->
      bump_pending node tu 1;
      hash_insert node tu)
    inserted;
  List.iter
    (fun tu ->
      bump_pending node tu (-1);
      hash_remove node tu)
    deleted

(* Probe [node]'s hash.  [probe_on_left] says which operand of [op] the
   probe value is; stored tuples supply the other at [node.hkey]. *)
let probe_matches node op ~value ~probe_on_left =
  match op with
  | Predicate.Eq ->
    Option.value (Tuple_tbl.find_opt node.hash (key1 value)) ~default:[]
  | _ ->
    let bucket = Option.value (Tuple_tbl.find_opt node.hash unit_key) ~default:[] in
    List.filter
      (fun stored ->
        let sv = Tuple.get stored node.hkey in
        if probe_on_left then Predicate.eval_op op value sv
        else Predicate.eval_op op sv value)
      bucket

(* --- construction --------------------------------------------------- *)

let take n l =
  let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
  go n l

let populate_node node tuples =
  Heap_file.clear node.heap;
  Tuple_tbl.reset node.rids;
  Tuple_tbl.reset node.pending;
  Tuple_tbl.reset node.hash;
  List.iter
    (fun tuple ->
      let rid = Heap_file.append node.heap tuple in
      let existing = Option.value (Tuple_tbl.find_opt node.rids tuple) ~default:[] in
      Tuple_tbl.replace node.rids tuple (rid :: existing);
      hash_insert node tuple)
    tuples

let make_node ~io ~record_bytes ~hkey ~hop def_for_node =
  {
    nd_plan = Planner.compile def_for_node;
    heap = Heap_file.create ~io ~record_bytes ();
    rids = Tuple_tbl.create 64;
    pending = Tuple_tbl.create 16;
    hash = Tuple_tbl.create 64;
    hkey;
    hop;
  }

let create ?name ?(heavy_threshold = 4) ?(flush_threshold = 32) ~record_bytes
    (def : View_def.t) =
  if heavy_threshold < 1 then invalid_arg "Maintainer.create: heavy_threshold >= 1";
  if flush_threshold < 1 then invalid_arg "Maintainer.create: flush_threshold >= 1";
  let steps = Array.of_list def.View_def.steps in
  let n = Array.length steps + 1 in
  let srcs = Array.of_list (View_def.sources def) in
  let io = Relation.io def.View_def.base.rel in
  (* Join prefix k (sources 0..k) probes from its hash on step k's left
     attribute when a delta on source k+1 arrives; the top keeps none. *)
  let level_key k = if k < n - 1 then (steps.(k).View_def.left_attr, steps.(k).View_def.op) else (-1, Predicate.Eq) in
  let levels =
    Array.init n (fun k ->
        let hkey, hop = level_key k in
        make_node ~io ~record_bytes ~hkey ~hop
          {
            def with
            View_def.name = Printf.sprintf "%s#prefix%d" def.View_def.name k;
            steps = take k def.View_def.steps;
          })
  in
  (* α_i (i >= 1) is probed through step i-1's right attribute when a
     prefix delta is extended past it.  α_0 is the base prefix itself. *)
  let alphas =
    Array.init n (fun i ->
        if i = 0 then levels.(0)
        else
          let src = srcs.(i) in
          make_node ~io ~record_bytes
            ~hkey:steps.(i - 1).View_def.right_attr
            ~hop:steps.(i - 1).View_def.op
            (View_def.select
               ~name:(Printf.sprintf "%s#alpha%d" def.View_def.name i)
               ~rel:src.View_def.rel ~restriction:src.View_def.restriction))
  in
  let t =
    {
      name = Option.value name ~default:def.View_def.name;
      def;
      steps;
      n;
      alphas;
      levels;
      heavy_threshold;
      flush_threshold;
      freq = Tuple_tbl.create 256;
      heavy = Tuple_tbl.create 64;
      cold = [];
      cold_tuples = 0;
    }
  in
  Cost.with_disabled (Io.cost io) (fun () ->
      Array.iter (fun nd -> populate_node nd (Executor.run nd.nd_plan)) t.levels;
      Array.iteri (fun i nd -> if i > 0 then populate_node nd (Executor.run nd.nd_plan)) t.alphas);
  Metrics.incr ~n:(2 * n - 1) (Io.metrics io) Metrics.Hoivm_ho_views;
  t

let name t = t.name
let def t = t.def
let plan t = t.levels.(t.n - 1).nd_plan

let page_count t =
  let total = ref 0 in
  Array.iter (fun nd -> total := !total + Heap_file.page_count nd.heap) t.levels;
  Array.iteri (fun i nd -> if i > 0 then total := !total + Heap_file.page_count nd.heap) t.alphas;
  !total

(* --- higher-order propagation --------------------------------------- *)

(* Extend a delta of prefix k to prefix k+1: probe α_{k+1}'s hash with
   the delta tuple's value at step k's left attribute — one C1 per probe
   plus one per joined tuple emitted.  No page is touched: this is the
   delta-of-delta fast path. *)
let extend_step t k side =
  let step = t.steps.(k) in
  let alpha = t.alphas.(k + 1) in
  let c = cost t in
  List.concat_map
    (fun d ->
      Cost.cpu_screen c;
      let matches =
        probe_matches alpha step.View_def.op
          ~value:(Tuple.get d step.View_def.left_attr)
          ~probe_on_left:true
      in
      Cost.cpu_screen c ~count:(List.length matches);
      List.map (fun a -> Tuple.concat d a) matches)
    side

(* Propagate one source delta through every affected prefix, folding each
   view-level delta into that node's probe hash (eager) and pending map
   (page application deferred to the next read). *)
let process t ~source_index:i ~inserted ~deleted =
  Metrics.incr (metrics t) Metrics.Hoivm_delta_applies;
  let rec push k ~inserted ~deleted =
    note_delta t.levels.(k) ~inserted ~deleted;
    if k < t.n - 1 then
      push (k + 1) ~inserted:(extend_step t k inserted) ~deleted:(extend_step t k deleted)
  in
  if i = 0 then push 0 ~inserted ~deleted
  else begin
    note_delta t.alphas.(i) ~inserted ~deleted;
    (* δ on an inner source: join it to the materialized prefix i-1 by
       probing the prefix hash — the work AVM pays a full charged prefix
       evaluation for. *)
    let step = t.steps.(i - 1) in
    let c = cost t in
    let start side =
      List.concat_map
        (fun d ->
          Cost.cpu_screen c;
          let matches =
            probe_matches t.levels.(i - 1) step.View_def.op
              ~value:(Tuple.get d step.View_def.right_attr)
              ~probe_on_left:false
          in
          Cost.cpu_screen c ~count:(List.length matches);
          List.map (fun m -> Tuple.concat m d) matches)
        side
    in
    push i ~inserted:(start inserted) ~deleted:(start deleted)
  end

(* --- heavy-light classification ------------------------------------- *)

(* The key a delta tuple is classified by: the attribute its source
   feeds into the view's join structure (α_0 of a P1 view keys on its
   first attribute — R1's stable id). *)
let class_key t ~source_index:i tuple =
  let v =
    if i >= 1 then Tuple.get tuple t.steps.(i - 1).View_def.right_attr
    else if t.n > 1 then Tuple.get tuple t.steps.(0).View_def.left_attr
    else Tuple.get tuple 0
  in
  Tuple.create [ Value.Int i; v ]

(* Observe the batch's keys, promoting any that just crossed the
   threshold; returns whether some key is (now) heavy. *)
let observe_and_classify t ~source_index ~inserted ~deleted =
  let hot = ref false in
  let see tuple =
    let key = class_key t ~source_index tuple in
    if Tuple_tbl.mem t.heavy key then hot := true
    else begin
      let c = Option.value (Tuple_tbl.find_opt t.freq key) ~default:0 + 1 in
      Tuple_tbl.replace t.freq key c;
      if c >= t.heavy_threshold then begin
        Tuple_tbl.replace t.heavy key ();
        Metrics.incr (metrics t) Metrics.Hoivm_heavy_keys;
        hot := true
      end
    end
  in
  List.iter see inserted;
  List.iter see deleted;
  !hot

(* Drain the cold buffer in arrival order: the buffered join work runs
   now, in one pass.  Pendings keep accumulating — pages still wait for
   the next read. *)
let drain_cold t =
  match t.cold with
  | [] -> ()
  | buffered ->
    Metrics.incr (metrics t) Metrics.Hoivm_lazy_flushes;
    t.cold <- [];
    t.cold_tuples <- 0;
    List.iter
      (fun (source_index, inserted, deleted) -> process t ~source_index ~inserted ~deleted)
      (List.rev buffered)

let apply_source_delta t ~source_index ~inserted ~deleted =
  if source_index < 0 || source_index >= t.n then
    invalid_arg "Maintainer.apply_source_delta: bad source index";
  (* A_net/D_net bookkeeping: C3 per delta tuple, as for AVM. *)
  Cost.delta_op (cost t) ~count:(List.length inserted + List.length deleted);
  if observe_and_classify t ~source_index ~inserted ~deleted then begin
    (* Heavy key: eager fast path.  The buffer must drain first so the
       prefix hashes this delta probes are consistent. *)
    drain_cold t;
    process t ~source_index ~inserted ~deleted
  end
  else begin
    t.cold <- (source_index, inserted, deleted) :: t.cold;
    t.cold_tuples <- t.cold_tuples + List.length inserted + List.length deleted;
    if t.cold_tuples >= t.flush_threshold then drain_cold t
  end

(* --- flushing stores and reading ------------------------------------ *)

(* Apply a node's pending net delta to its heap in one batch: each
   distinct touched page charges one read + one write, however many
   updates accumulated — and net-zero tuples (hot-key churn, aborted
   transactions) never touch a page at all.  Sorted so the op order, and
   with it rid assignment, is independent of hash iteration order. *)
let flush_node node =
  if Tuple_tbl.length node.pending > 0 then begin
    let entries = Tuple_tbl.fold (fun tu c acc -> (tu, c) :: acc) node.pending [] in
    let entries = List.sort (fun (a, _) (b, _) -> Tuple.compare a b) entries in
    let delete_ops =
      List.concat_map
        (fun (tuple, c) ->
          if c >= 0 then []
          else
            List.init (-c) (fun _ -> ())
            |> List.filter_map (fun () ->
                   match Tuple_tbl.find_opt node.rids tuple with
                   | Some (rid :: rest) ->
                     if rest = [] then Tuple_tbl.remove node.rids tuple
                     else Tuple_tbl.replace node.rids tuple rest;
                     Some (Heap_file.Delete rid)
                   | Some [] | None -> None))
        entries
    in
    let inserts =
      List.concat_map
        (fun (tuple, c) -> if c <= 0 then [] else List.init c (fun _ -> tuple))
        entries
    in
    let insert_ops = List.map (fun tuple -> Heap_file.Insert tuple) inserts in
    let new_rids = Heap_file.apply_batch node.heap (delete_ops @ insert_ops) in
    List.iter2
      (fun tuple rid ->
        let existing = Option.value (Tuple_tbl.find_opt node.rids tuple) ~default:[] in
        Tuple_tbl.replace node.rids tuple (rid :: existing))
      inserts new_rids;
    Tuple_tbl.reset node.pending
  end

let flush_stores t =
  Array.iter flush_node t.levels;
  Array.iteri (fun i nd -> if i > 0 then flush_node nd) t.alphas

let read t =
  drain_cold t;
  flush_stores t;
  Heap_file.read_all t.levels.(t.n - 1).heap

let cardinality t =
  Cost.with_disabled (cost t) (fun () -> drain_cold t);
  let top = t.levels.(t.n - 1) in
  Heap_file.record_count top.heap + Tuple_tbl.fold (fun _ c acc -> acc + c) top.pending 0

(* --- rebuild and the correctness invariant -------------------------- *)

let recompute_refresh t =
  if Io.counting (io t) then Metrics.incr (metrics t) Metrics.View_refreshes;
  (* Base relations already hold every update, buffered or not: the
     rebuild subsumes whatever propagation was still pending. *)
  t.cold <- [];
  t.cold_tuples <- 0;
  let rebuild node =
    let fresh = Executor.run node.nd_plan in
    Tuple_tbl.reset node.rids;
    Tuple_tbl.reset node.pending;
    Tuple_tbl.reset node.hash;
    Heap_file.rewrite node.heap fresh;
    Cost.with_disabled (cost t) (fun () ->
        List.iter
          (fun (rid, tuple) ->
            let existing = Option.value (Tuple_tbl.find_opt node.rids tuple) ~default:[] in
            Tuple_tbl.replace node.rids tuple (rid :: existing);
            hash_insert node tuple)
          (Heap_file.contents node.heap))
  in
  Array.iter rebuild t.levels;
  Array.iteri (fun i nd -> if i > 0 then rebuild nd) t.alphas

let sorted_multiset tuples = List.sort Tuple.compare tuples

let matches_recompute t =
  Cost.with_disabled (cost t) (fun () ->
      drain_cold t;
      flush_stores t;
      let stored = sorted_multiset (Heap_file.read_all t.levels.(t.n - 1).heap) in
      let fresh = sorted_multiset (Executor.run (plan t)) in
      List.length stored = List.length fresh && List.for_all2 Tuple.equal stored fresh)
