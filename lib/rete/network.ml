open Dbproc_storage
open Dbproc_relation
open Dbproc_index

type sign = Plus | Minus

type token = { sign : sign; tuple : Tuple.t }

type side = L | R

type mem_node = {
  mem : Memory.t;
  mutable successors : (join * side) list;
}

and join = {
  jt : Predicate.join_term;
  left : mem_node;
  right : mem_node;
  out : mem_node;
}

type tconst = {
  rel : string;
  pred : Predicate.t;
  interval : (int * Value.t Btree.bound * Value.t Btree.bound) option;
  alpha : mem_node;
}

module V_idx = Dbproc_util.Interval_index.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

(* Indexed discrimination for one relation's t-const nodes: nodes whose
   condition is a single-attribute interval live in a stabbing index per
   attribute; the rest are tested linearly. *)
type discrimination = {
  mutable linear : tconst list;
  idx_by_attr : (int, tconst V_idx.t) Hashtbl.t;
  mutable all : tconst list;
}

type t = {
  io : Io.t;
  record_bytes : int;
  tconsts : (string, discrimination) Hashtbl.t;
  mutable all_memories : Memory.t list; (* reversed *)
  mutable n_joins : int;
}

let create ~io ~record_bytes () =
  {
    io;
    record_bytes;
    tconsts = Hashtbl.create 8;
    all_memories = [];
    n_joins = 0;
  }

let io t = t.io
let memory (m : mem_node) = m.mem
let memories t = List.rev t.all_memories
let join_count t = t.n_joins

let fresh_mem t name =
  let mem = Memory.create ~io:t.io ~record_bytes:t.record_bytes ~name () in
  t.all_memories <- mem :: t.all_memories;
  Dbproc_obs.Metrics.add_gauge (Io.metrics t.io) Dbproc_obs.Metrics.Rete_memories;
  { mem; successors = [] }

let to_idx_lo = function
  | Btree.Unbounded -> V_idx.Neg_inf
  | Btree.Inclusive v -> V_idx.Incl v
  | Btree.Exclusive v -> V_idx.Excl v

let to_idx_hi = function
  | Btree.Unbounded -> V_idx.Pos_inf
  | Btree.Inclusive v -> V_idx.Incl v
  | Btree.Exclusive v -> V_idx.Excl v

let add_tconst t ~rel ~pred ~interval ~name =
  let alpha = fresh_mem t name in
  let node = { rel; pred; interval; alpha } in
  let disc =
    match Hashtbl.find_opt t.tconsts rel with
    | Some disc -> disc
    | None ->
      let disc = { linear = []; idx_by_attr = Hashtbl.create 4; all = [] } in
      Hashtbl.replace t.tconsts rel disc;
      disc
  in
  disc.all <- node :: disc.all;
  (match interval with
  | None -> disc.linear <- node :: disc.linear
  | Some (attr, lo, hi) ->
    let idx =
      match Hashtbl.find_opt disc.idx_by_attr attr with
      | Some idx -> idx
      | None ->
        let idx = V_idx.create () in
        Hashtbl.replace disc.idx_by_attr attr idx;
        idx
    in
    V_idx.add idx ~lo:(to_idx_lo lo) ~hi:(to_idx_hi hi) node);
  alpha

let add_join t ~left ~right ~on ~name =
  let out = fresh_mem t name in
  let j = { jt = on; left; right; out } in
  (match on.Predicate.op with
  | Predicate.Eq ->
    Memory.ensure_probe_index left.mem ~attr:on.left_attr;
    Memory.ensure_probe_index right.mem ~attr:on.right_attr
  | _ -> ());
  left.successors <- left.successors @ [ (j, L) ];
  right.successors <- right.successors @ [ (j, R) ];
  t.n_joins <- t.n_joins + 1;
  out

let covered interval tuple =
  match interval with
  | None -> true
  | Some (attr, lo, hi) ->
    let v = Tuple.get tuple attr in
    let above =
      match lo with
      | Btree.Unbounded -> true
      | Inclusive b -> Value.compare v b >= 0
      | Exclusive b -> Value.compare v b > 0
    in
    let below =
      match hi with
      | Btree.Unbounded -> true
      | Inclusive b -> Value.compare v b <= 0
      | Exclusive b -> Value.compare v b < 0
    in
    above && below

let rec deliver (m : mem_node) (tok : token) =
  if Io.counting (Memory.io m.mem) then
    Dbproc_obs.Metrics.incr (Io.metrics (Memory.io m.mem)) Dbproc_obs.Metrics.Rete_tokens;
  let applied =
    match tok.sign with
    | Plus ->
      Memory.insert_logical m.mem tok.tuple;
      true
    | Minus -> Memory.delete_logical m.mem tok.tuple
  in
  if applied then List.iter (fun (j, side) -> activate_join j side tok) m.successors

and activate_join j side tok =
  let opposite = match side with L -> j.right.mem | R -> j.left.mem in
  if Io.counting (Memory.io opposite) then
    Dbproc_obs.Metrics.incr (Io.metrics (Memory.io opposite)) Dbproc_obs.Metrics.Rete_join_activations;
  let matches =
    match j.jt.Predicate.op with
    | Predicate.Eq ->
      let my_attr, opp_attr =
        match side with
        | L -> (j.jt.left_attr, j.jt.right_attr)
        | R -> (j.jt.right_attr, j.jt.left_attr)
      in
      Memory.probe opposite ~attr:opp_attr (Tuple.get tok.tuple my_attr)
    | _ ->
      Memory.scan_match opposite ~f:(fun opp_tuple ->
          match side with
          | L -> Predicate.eval_join j.jt ~left:tok.tuple ~right:opp_tuple
          | R -> Predicate.eval_join j.jt ~left:opp_tuple ~right:tok.tuple)
  in
  List.iter
    (fun opp_tuple ->
      let composite =
        match side with
        | L -> Tuple.concat tok.tuple opp_tuple
        | R -> Tuple.concat opp_tuple tok.tuple
      in
      deliver j.out { tok with tuple = composite })
    matches

(* Indexed discrimination: covered tokens are found by stabbing the
   per-attribute interval indexes (free, as with the lock table) and then
   screened fully at cost C1 each; non-interval t-consts screen every
   token at cost C1.  [covered] is kept as the reference semantics and
   used by tests via the interval metadata. *)
let matching_nodes t disc tok =
  let covered_nodes =
    Hashtbl.fold
      (fun attr idx acc -> V_idx.stab idx (Tuple.get tok.tuple attr) @ acc)
      disc.idx_by_attr []
  in
  let pass node =
    assert (covered node.interval tok.tuple);
    Cost.cpu_screen (Io.cost t.io);
    Predicate.eval node.pred tok.tuple
  in
  let pass_linear node =
    Cost.cpu_screen (Io.cost t.io);
    Predicate.eval node.pred tok.tuple
  in
  List.filter pass covered_nodes @ List.filter pass_linear disc.linear

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c -> if c = '"' then Buffer.add_string buf "\\\"" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph rete {\n  rankdir=TB;\n  root [shape=point];\n";
  let mem_id mem = Printf.sprintf "mem_%s" (String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> c | _ -> '_') (Memory.name mem)) in
  let join_seen = Hashtbl.create 16 in
  let join_id j = Printf.sprintf "join_%s" (mem_id j.out.mem) in
  let emit_mem kind m =
    Buffer.add_string buf
      (Printf.sprintf "  %s [shape=ellipse, label=\"%s-memory %s\\n%d tuples\"];\n" (mem_id m.mem)
         kind (Memory.name m.mem) (Memory.cardinality m.mem))
  in
  let rec emit_join j =
    if not (Hashtbl.mem join_seen (join_id j)) then begin
      Hashtbl.replace join_seen (join_id j) ();
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=diamond, label=\"and\\nleft.%d %s right.%d\"];\n"
           (join_id j) j.jt.Predicate.left_attr
           (Format.asprintf "%a" Predicate.pp_op j.jt.Predicate.op)
           j.jt.Predicate.right_attr);
      emit_mem "b" j.out;
      Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" (join_id j) (mem_id j.out.mem));
      List.iter (fun (j', _) -> emit_join j') j.out.successors;
      List.iter
        (fun (j', _) ->
          Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" (mem_id j.out.mem) (join_id j')))
        j.out.successors
    end
  in
  Hashtbl.iter
    (fun rel disc ->
      List.iteri
        (fun i node ->
          let tid = Printf.sprintf "tconst_%s_%d" rel i in
          Buffer.add_string buf
            (Printf.sprintf "  %s [shape=box, label=\"relation = %s\\n%s\"];\n" tid rel
               (dot_escape
                  (String.concat " and "
                     (List.map
                        (fun (term : Predicate.term) ->
                          Format.asprintf ".%d %a %a" term.Predicate.attr Predicate.pp_op
                            term.Predicate.op Value.pp term.Predicate.value)
                        node.pred))));
          Buffer.add_string buf (Printf.sprintf "  root -> %s;\n" tid);
          emit_mem "a" node.alpha;
          Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" tid (mem_id node.alpha.mem));
          List.iter (fun (j, _) -> emit_join j) node.alpha.successors;
          List.iter
            (fun (j, _) ->
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s;\n" (mem_id node.alpha.mem) (join_id j)))
            node.alpha.successors)
        disc.all)
    t.tconsts;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let apply_delta t ~rel ~inserted ~deleted =
  Io.with_touch_dedup t.io (fun () ->
      (match Hashtbl.find_opt t.tconsts rel with
      | None -> ()
      | Some disc ->
        let feed sign tuples =
          List.iter
            (fun tuple ->
              let tok = { sign; tuple } in
              List.iter (fun node -> deliver node.alpha tok) (matching_nodes t disc tok))
            tuples
        in
        (* The minus feed retracts tuples the update made stale — the
           network's invalidation phase; the plus feed propagates the new
           ones. *)
        Dbproc_obs.Trace.with_span (Io.trace t.io) "invalidate (-delta)" (fun () -> feed Minus deleted);
        Dbproc_obs.Trace.with_span (Io.trace t.io) "propagate (+delta)" (fun () -> feed Plus inserted));
      Dbproc_obs.Trace.with_span (Io.trace t.io) "flush" (fun () -> List.iter Memory.flush (memories t)))
