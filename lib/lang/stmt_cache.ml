open Dbproc_query
module Metrics = Dbproc_obs.Metrics

type prepared = {
  def : View_def.t;
  projection : int list option;
  exec : Executor.prepared;
}

type entry = { cmd : Ast.command; mutable prepared : prepared option }

type t = {
  tbl : (string, entry) Hashtbl.t;
  order : string Queue.t;  (* insertion order; FIFO eviction at capacity *)
  metrics : Metrics.t;
  max_entries : int;
}

let create ?(max_entries = 512) ~metrics () =
  { tbl = Hashtbl.create 64; order = Queue.create (); metrics; max_entries }

(* Normalized key: the line as the lexer reads it.  Outside string
   literals, whitespace runs and [--] comments collapse to one space and
   the ends are trimmed; a string literal is copied byte for byte,
   honouring the lexer's backslash escape, so whitespace inside it stays
   significant.  Case is preserved — string literals are case-significant,
   and the lexer already accepts keywords in one case only. *)
let normalize line =
  let n = String.length line in
  let buf = Buffer.create n in
  let pending = ref false in
  let rec code i =
    if i < n then
      match line.[i] with
      | ' ' | '\t' | '\r' | '\n' -> gap (i + 1)
      | '-' when i + 1 < n && line.[i + 1] = '-' ->
        gap (Option.value (String.index_from_opt line i '\n') ~default:n)
      | c ->
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        Buffer.add_char buf c;
        if c = '"' then literal (i + 1) else code (i + 1)
  and gap i =
    if Buffer.length buf > 0 then pending := true;
    code i
  and literal i =
    if i < n then begin
      Buffer.add_char buf line.[i];
      match line.[i] with
      | '"' -> code (i + 1)
      | '\\' when i + 1 < n ->
        Buffer.add_char buf line.[i + 1];
        literal (i + 2)
      | _ -> literal (i + 1)
    end
  in
  code 0;
  Buffer.contents buf

let find t key = Hashtbl.find_opt t.tbl key

(* At capacity a new key evicts the oldest insertion (FIFO): statement
   replay workloads re-store a hot statement right after its eviction, so
   recency bookkeeping on hits buys nothing the re-store doesn't.  The
   [order] queue only ever holds live keys — [invalidate] clears it
   wholesale — so the front is always evictable. *)
let store t key entry =
  if not (Hashtbl.mem t.tbl key) then begin
    if Hashtbl.length t.tbl >= t.max_entries then begin
      match Queue.take_opt t.order with
      | None -> ()
      | Some oldest ->
        Hashtbl.remove t.tbl oldest;
        Metrics.incr t.metrics Metrics.Plan_cache_evictions
    end;
    Queue.add key t.order
  end;
  Hashtbl.replace t.tbl key entry

let note_hit t = Metrics.incr t.metrics Metrics.Plan_cache_hits
let note_miss t = Metrics.incr t.metrics Metrics.Plan_cache_misses

(* Drop every cached statement; counts one invalidation per entry that
   held a prepared plan.  Called on DDL (create/index), on [strategy]
   (the session analogue of an adaptive strategy migration), and on
   anything else that could change plan choice. *)
let invalidate t =
  let dropped =
    Hashtbl.fold (fun _ e acc -> if e.prepared <> None then acc + 1 else acc) t.tbl 0
  in
  if dropped > 0 then Metrics.incr ~n:dropped t.metrics Metrics.Plan_cache_invalidations;
  Hashtbl.reset t.tbl;
  Queue.clear t.order

let size t = Hashtbl.length t.tbl
