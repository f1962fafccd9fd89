open Dbproc_storage
module Metrics = Dbproc_obs.Metrics

type entry_id = int

type entry = {
  e_id : int;
  e_name : string;
  e_on_evict : unit -> unit;
  mutable e_pages : int;
  mutable e_resident : bool;
  mutable e_last_tick : int;
  mutable e_first_tick : int;
  mutable e_accesses : int;
  mutable e_cost : float; (* observed recompute cost, any consistent unit *)
}

type t = {
  policy : Policy.t;
  budget : int option;
  cost : Cost.t;
  metrics : Metrics.t;
  entries : (int, entry) Hashtbl.t;
  mutable next_id : int;
  mutable tick : int; (* logical clock: one tick per note_access *)
  mutable used : int;
  mutable max_used : int;
  mutable evicted : int;
}

let create ?(policy = Policy.Lru) ?budget_pages ~io () =
  (match budget_pages with
  | Some b when b < 0 -> invalid_arg "Budget.create: budget_pages must be >= 0"
  | _ -> ());
  let cost = Io.cost io in
  let metrics = Cost.metrics cost in
  Metrics.set_gauge metrics Metrics.Cache_budget_pages
    (Option.value budget_pages ~default:0);
  Metrics.set_gauge metrics Metrics.Cache_resident_pages 0;
  {
    policy;
    budget = budget_pages;
    cost;
    metrics;
    entries = Hashtbl.create 64;
    next_id = 0;
    tick = 0;
    used = 0;
    max_used = 0;
    evicted = 0;
  }

let find t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Budget: unknown entry %d" id)

let set_used t used =
  t.used <- used;
  if used > t.max_used then t.max_used <- used;
  Metrics.set_gauge t.metrics Metrics.Cache_resident_pages used

let register t ~name ~on_evict () =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.entries id
    {
      e_id = id;
      e_name = name;
      e_on_evict = on_evict;
      e_pages = 0;
      e_resident = false;
      e_last_tick = t.tick;
      e_first_tick = t.tick;
      e_accesses = 0;
      e_cost = 1.0;
    };
  id

let resident t id = (find t id).e_resident

let note_access t id =
  let e = find t id in
  t.tick <- t.tick + 1;
  e.e_last_tick <- t.tick;
  e.e_accesses <- e.e_accesses + 1

let note_recompute_cost t id cost =
  if cost > 0.0 then (find t id).e_cost <- cost

(* Smaller score = better victim.  Lru scores by recency alone; Cost_aware
   by benefit density — how much recompute work each resident page saves
   per tick.  Both tie-break on the entry id, so victim choice is a pure
   function of the access history. *)
let score t (e : entry) =
  match t.policy with
  | Policy.Lru -> float_of_int e.e_last_tick
  | Policy.Cost_aware ->
    let age = float_of_int (t.tick - e.e_first_tick + 1) in
    let rate = float_of_int e.e_accesses /. age in
    e.e_cost *. rate /. float_of_int (max 1 e.e_pages)

let evict t (e : entry) =
  e.e_resident <- false;
  set_used t (t.used - e.e_pages);
  t.evicted <- t.evicted + 1;
  Metrics.incr t.metrics Metrics.Cache_evictions;
  Metrics.incr ~n:e.e_pages t.metrics Metrics.Cache_evicted_pages;
  e.e_on_evict ();
  (* The eviction's own I/O: one write persisting the directory change.
     The store's pages are write-through and need no flush. *)
  Cost.page_write t.cost

let pick_victim t ~except =
  Hashtbl.fold
    (fun _ e best ->
      if (not e.e_resident) || e.e_id = except then best
      else begin
        let s = score t e in
        match best with
        | Some (bs, be) when (bs, be.e_id) <= (s, e.e_id) -> best
        | _ -> Some (s, e)
      end)
    t.entries None

let rec make_room t ~except ~needed =
  match t.budget with
  | None -> true
  | Some b ->
    if needed > b then false
    else if t.used + needed <= b then true
    else begin
      match pick_victim t ~except with
      | None -> t.used + needed <= b
      | Some (_, victim) ->
        evict t victim;
        make_room t ~except ~needed
    end

let try_admit t id ~pages =
  if pages < 0 then invalid_arg "Budget.try_admit: pages must be >= 0";
  let e = find t id in
  let delta = if e.e_resident then pages - e.e_pages else pages in
  if make_room t ~except:id ~needed:(max 0 delta) then begin
    if not e.e_resident then Metrics.incr t.metrics Metrics.Cache_admissions;
    e.e_resident <- true;
    set_used t (t.used + delta);
    e.e_pages <- pages;
    true
  end
  else begin
    if e.e_resident then evict t e;
    false
  end

let resize t id ~pages =
  let e = find t id in
  if e.e_resident then ignore (try_admit t id ~pages)

let release t id =
  let e = find t id in
  if e.e_resident then evict t e

let policy t = t.policy
let budget_pages t = t.budget
let used_pages t = t.used
let max_used_pages t = t.max_used
let evictions t = t.evicted
