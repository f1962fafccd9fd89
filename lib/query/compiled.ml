open Dbproc_storage
open Dbproc_relation
module Metrics = Dbproc_obs.Metrics

let batch_size = 1024

(* Bulk charges.  Every count below is exactly the number of per-tuple
   charges the tuple-at-a-time interpreter makes for the same plan over
   the same data, so the two price identically — only dispatch cost
   (wall-clock) differs. *)

let note_scanned io n =
  if n > 0 && Io.counting io then Metrics.incr ~n (Io.metrics io) Metrics.Tuples_scanned

let charge_screens io n = if n > 0 then Cost.cpu_screen ~count:n (Io.cost io)

(* A batch is counted once per pipeline edge it crosses with rows in it
   (source -> stages, stage -> stage, last stage -> consumer). *)
let note_batch io n =
  if n > 0 && Io.counting io then begin
    let m = Io.metrics io in
    Metrics.incr ~n m Metrics.Tuples_batched;
    Metrics.incr m Metrics.Batches_emitted
  end

(* ------------------------------------------------------------- sources *)

type source = emit:(Batch.t -> unit) -> unit

(* Compact the first [n] rows of [rows] in place to those satisfying
   [keep] and emit them as one batch ([rows] is owned by the caller and
   consumed here; the batch keeps the untrimmed array). *)
let emit_kept io arity keep ~emit rows n =
  let m = ref 0 in
  for i = 0 to n - 1 do
    let r = Array.unsafe_get rows i in
    if keep r then begin
      Array.unsafe_set rows !m r;
      incr m
    end
  done;
  if !m > 0 then begin
    note_batch io !m;
    emit (Batch.unsafe_of_rows_n ~arity rows !m)
  end

let full_scan_source rel residual : source =
  let io = Relation.io rel in
  let arity = Schema.arity (Relation.schema rel) in
  let keep = Predicate.compile residual in
  fun ~emit ->
    (* one Tuples_scanned + one C1 per stored tuple — the walk visits
       every record, kept or not, so the whole cardinality is charged
       up front in one bulk call.  The predicate is fused into the page
       walk: non-survivors are never buffered. *)
    let visited = Relation.cardinality rel in
    note_scanned io visited;
    charge_screens io visited;
    Relation.scan_filter_chunks rel ~size:batch_size ~keep ~f:(fun rows n ->
        note_batch io n;
        emit (Batch.unsafe_of_rows_n ~arity rows n))

let hash_point_source rel ~attr key residual : source =
  let io = Relation.io rel in
  let arity = Schema.arity (Relation.schema rel) in
  let probe = Relation.probe rel ~attr in
  let keep = Predicate.compile residual in
  fun ~emit ->
    let rows = probe key in
    (* one C1 per fetched tuple; point fetches are not "scanned" *)
    charge_screens io (List.length rows);
    let rows = Array.of_list rows in
    emit_kept io arity keep ~emit rows (Array.length rows)

let btree_range_source rel ~attr ~lo ~hi residual : source =
  let io = Relation.io rel in
  let arity = Schema.arity (Relation.schema rel) in
  let keep = Predicate.compile residual in
  fun ~emit ->
    match Relation.btree_on rel ~attr with
    | None ->
      invalid_arg
        (Printf.sprintf "Compiled: plan expects a btree on %s.%s" (Relation.name rel) attr)
    | Some btree ->
      (* collect rids directly in range order (no reversals) *)
      let rids = ref [||] in
      let total = ref 0 in
      Dbproc_index.Btree.range btree ~lo ~hi ~f:(fun _k rid ->
          if !total = Array.length !rids then begin
            let fresh = Array.make (max 64 (2 * !total)) rid in
            Array.blit !rids 0 fresh 0 !total;
            rids := fresh
          end;
          !rids.(!total) <- rid;
          incr total);
      let rids = !rids in
      let i = ref 0 in
      while !i < !total do
        let n = min batch_size (!total - !i) in
        let base = !i in
        let rows = Array.init n (fun j -> Relation.get rel rids.(base + j)) in
        note_scanned io n;
        charge_screens io n;
        emit_kept io arity keep ~emit rows n;
        i := base + n
      done

(* -------------------------------------------------------------- stages *)

type stage =
  | Index_probe of {
      io : Io.t;
      rel : Relation.t;
      attr : string;
      probe : Value.t -> Tuple.t list;
      outer_attr : int;
      keep : Tuple.t -> bool;
      inner_arity : int;
    }
  | Scan_join of {
      io : Io.t;
      rel : Relation.t;
      probe_pos : int;
      outer_attr : int;
      op : Predicate.op;
      keep : Tuple.t -> bool;
      inner_arity : int;
    }

let stage_io = function Index_probe { io; _ } | Scan_join { io; _ } -> io

let stage_of_probe (p : Plan.join_probe) =
  let io = Relation.io p.probe_rel in
  let inner_arity = Schema.arity (Relation.schema p.probe_rel) in
  let keep = Predicate.compile p.residual in
  if p.use_index then
    Index_probe
      {
        io;
        rel = p.probe_rel;
        attr = p.probe_attr;
        probe = Relation.probe p.probe_rel ~attr:p.probe_attr;
        outer_attr = p.outer_attr;
        keep;
        inner_arity;
      }
  else
    Scan_join
      {
        io;
        rel = p.probe_rel;
        probe_pos = Schema.index_of (Relation.schema p.probe_rel) p.probe_attr;
        outer_attr = p.outer_attr;
        op = p.op;
        keep;
        inner_arity;
      }

(* Per-execution stage state.

   A scan join reads its inner relation once per execution, on the first
   non-empty outer batch that reaches it.  The interpreter rescans the
   inner per outer tuple, but per-operation page dedup makes those
   rescans free, so one real read charges the same — and an empty outer
   never touches the inner in either.  The residual's verdict per
   inner row is precomputed alongside.

   An index probe memoizes (key -> residual-filtered matches) for the
   execution: repeated join keys skip the index search and heap fetches.
   Charge-neutral under the executor's per-query page dedup — a repeated
   key's pages are already charged zero on re-probe — while the C1 per
   outer tuple is charged from the batch count either way. *)
type stage_state =
  | St_empty
  | St_inner of Batch.t * bool array
  | St_memo of (Value.t, Tuple.t list) Hashtbl.t

type exec_state = stage_state array

let load_inner rel keep =
  let arity = Schema.arity (Relation.schema rel) in
  let inner = Batch.of_tuples ~arity (Relation.read_all rel) in
  let mask = Array.init (Batch.length inner) (fun j -> keep (Batch.row inner j)) in
  (inner, mask)

let apply_stage (state : exec_state) k stage (outer : Batch.t) =
  let n = Batch.length outer in
  match stage with
  | Index_probe { io; rel; attr; probe; outer_attr; keep; inner_arity } ->
    (* one C1 per outer tuple, charged before the fetch *)
    charge_screens io n;
    let memo =
      match state.(k) with
      | St_memo m -> m
      | _ ->
        let m = Hashtbl.create 64 in
        state.(k) <- St_memo m;
        m
    in
    let out = Batch.Builder.create ~arity:(Batch.arity outer + inner_arity) in
    for i = 0 to n - 1 do
      let key = Tuple.unsafe_get (Batch.row outer i) outer_attr in
      let matches =
        match Hashtbl.find_opt memo key with
        | Some rows ->
          (* the memoized probe is still one logical probe: its pages are
             deduped to zero charge either way, but the probe counter must
             match the interpreter's *)
          if Io.counting io then
            Metrics.incr (Io.metrics io)
              (match Relation.hash_on rel ~attr with
              | Some _ -> Metrics.Hash_probes
              | None -> Metrics.Btree_searches);
          rows
        | None ->
          let rows = List.filter keep (probe key) in
          Hashtbl.add memo key rows;
          rows
      in
      List.iter (fun inner -> Batch.Builder.append_probe out outer i inner) matches
    done;
    Batch.Builder.to_batch out
  | Scan_join { io; rel; probe_pos; outer_attr; op; keep; inner_arity } ->
    let inner, mask =
      match state.(k) with
      | St_inner (b, mask) -> (b, mask)
      | _ ->
        let b, mask = load_inner rel keep in
        state.(k) <- St_inner (b, mask);
        (b, mask)
    in
    let m = Batch.length inner in
    (* one Tuples_scanned + one C1 per outer x inner pair — the quadratic
       CPU the interpreter's repeated scans pay *)
    note_scanned io (n * m);
    charge_screens io (n * m);
    let out = Batch.Builder.create ~arity:(Batch.arity outer + inner_arity) in
    let inner_keys = Batch.col inner probe_pos in
    for i = 0 to n - 1 do
      let key = Tuple.unsafe_get (Batch.row outer i) outer_attr in
      for j = 0 to m - 1 do
        if
          Predicate.eval_op op key (Array.unsafe_get inner_keys j)
          && Array.unsafe_get mask j
        then Batch.Builder.append_pair out outer i inner j
      done
    done;
    Batch.Builder.to_batch out

let run_stage_chain stages state ~sink b =
  let rec go k b =
    if Batch.length b = 0 then ()
    else if k >= Array.length stages then sink b
    else begin
      let out = apply_stage state k stages.(k) b in
      note_batch (stage_io stages.(k)) (Batch.length out);
      go (k + 1) out
    end
  in
  go 0 b

(* ------------------------------------------------------------ pipeline *)

type t = { plan : Plan.t; source : source; stages : stage array; pipeline : string list }

let describe_access rel (access : Plan.access_path) =
  let name = Relation.name rel in
  let residual_tag residual =
    match List.length residual with
    | 0 -> ""
    | n -> Printf.sprintf " + sigma(%d)" n
  in
  match access with
  | Plan.Full_scan { residual } ->
    Printf.sprintf "scan(%s) [batch=%d]%s" name batch_size (residual_tag residual)
  | Plan.Hash_point { attr; residual; _ } ->
    Printf.sprintf "hash-point(%s.%s)%s" name attr (residual_tag residual)
  | Plan.Btree_range { attr; residual; _ } ->
    Printf.sprintf "btree-range(%s.%s) [batch=%d]%s" name attr batch_size
      (residual_tag residual)

let describe_probe (p : Plan.join_probe) =
  Printf.sprintf "%s(%s.%s)%s"
    (if p.use_index then "index-probe" else "scan-join")
    (Relation.name p.probe_rel) p.probe_attr
    (match List.length p.residual with 0 -> "" | n -> Printf.sprintf " + sigma(%d)" n)

let of_plan (plan : Plan.t) =
  let source =
    match plan.access with
    | Plan.Full_scan { residual } -> full_scan_source plan.base_rel residual
    | Plan.Hash_point { attr; key; residual } ->
      hash_point_source plan.base_rel ~attr key residual
    | Plan.Btree_range { attr; lo; hi; residual } ->
      btree_range_source plan.base_rel ~attr ~lo ~hi residual
  in
  let stages = Array.of_list (List.map stage_of_probe plan.probes) in
  let pipeline =
    describe_access plan.base_rel plan.access :: List.map describe_probe plan.probes
  in
  { plan; source; stages; pipeline }

let plan t = t.plan
let pipeline t = t.pipeline

(* Execution entry points.  None of these wrap [Io.with_touch_dedup] or
   bump [Plans_executed] — {!Executor} owns that. *)

(* Collect emitted batches and stitch them into one list afterwards:
   each result row costs exactly one cons. *)
let collecting run =
  let batches = ref [] in
  run (fun b -> batches := b :: !batches);
  List.fold_left (fun acc b -> Batch.prepend_tuples b acc) [] !batches

let execute t =
  collecting (fun sink ->
      if Array.length t.stages = 0 then t.source ~emit:sink
      else begin
        let state : exec_state = Array.make (Array.length t.stages) St_empty in
        t.source ~emit:(run_stage_chain t.stages state ~sink)
      end)

let execute_base t = collecting (fun sink -> t.source ~emit:sink)

let probe_pipeline (probes : Plan.join_probe list) outer =
  match outer with
  | [] -> []
  | first :: _ ->
    let arity = Tuple.arity first in
    let stages = Array.of_list (List.map stage_of_probe probes) in
    let state : exec_state = Array.make (Array.length stages) St_empty in
    let rows = Array.of_list outer in
    let total = Array.length rows in
    collecting (fun sink ->
        let i = ref 0 in
        while !i < total do
          let n = min batch_size (total - !i) in
          let b = Batch.unsafe_of_rows ~arity (Array.sub rows !i n) in
          (match stages with
          | [||] -> sink b
          | _ ->
            note_batch (stage_io stages.(0)) (Batch.length b);
            run_stage_chain stages state ~sink b);
          i := !i + n
        done)
