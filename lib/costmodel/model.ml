type which = Model1 | Model2

let which_name = function Model1 -> "model 1" | Model2 -> "model 2"

open Params

let yao = Dbproc_util.Yao.paper

(* --- Query (recompute) costs ------------------------------------------- *)

let c_query_p1 (p : t) =
  (p.c1 *. p.f *. p.n)
  +. (p.c2 *. Float.ceil (p.f *. blocks p))
  +. (p.c2 *. btree_height p)

(* Pages of R2 touched joining the f·N selected R1 tuples (Y1). *)
let y1 (p : t) = yao ~n:(p.f_r2 *. p.n) ~m:(p.f_r2 *. blocks p) ~k:(p.f *. p.n)

(* Pages of R3 touched extending the join to R3 in model 2 (Y6). *)
let y6 (p : t) = yao ~n:(p.f_r3 *. p.n) ~m:(p.f_r3 *. blocks p) ~k:(p.f *. p.n)

let c_query_p2_m1 (p : t) = c_query_p1 p +. (p.c1 *. p.f *. p.n) +. (p.c2 *. y1 p)

let c_query_p2 which (p : t) =
  match which with
  | Model1 -> c_query_p2_m1 p
  | Model2 -> c_query_p2_m1 p +. (p.c2 *. y6 p) +. (p.c1 *. p.f *. p.n)

let c_process_query which (p : t) =
  ((p.n1 *. c_query_p1 p) +. (p.n2 *. c_query_p2 which p)) /. total_procs p

(* --- Cache and Invalidate ---------------------------------------------- *)

let c_read (p : t) = p.c2 *. proc_size_pages p
let c_write_cache (p : t) = 2.0 *. p.c2 *. proc_size_pages p

(* Probability that one update transaction invalidates a given procedure:
   2l old/new tuple values, each breaking an i-lock with probability f. *)
let p_inval (p : t) = 1.0 -. ((1.0 -. p.f) ** (2.0 *. p.l))

let invalidation_probability (p : t) =
  if p.k <= 0.0 then 0.0
  else begin
    let nobj = total_procs p in
    let upq = updates_per_query p in
    let invalid_after x = 1.0 -. ((1.0 -. p.f) ** (x *. 2.0 *. p.l)) in
    let x_hot = nobj *. (p.z /. (1.0 -. p.z)) *. upq in
    let y_cold = nobj *. ((1.0 -. p.z) /. p.z) *. upq in
    let z1 = invalid_after x_hot in
    let z2 = invalid_after y_cold in
    ((1.0 -. p.z) *. z1) +. (p.z *. z2)
  end

let false_invalidation_probability (p : t) = 1.0 -. p.f2

let t3 (p : t) = updates_per_query p *. total_procs p *. p_inval p *. p.c_inval

let cache_inval_terms which (p : t) =
  let ip = invalidation_probability p in
  let t1 = c_process_query which p +. c_write_cache p in
  let t2 = c_read p in
  [
    ("IP * T1 (miss: recompute + write back)", ip *. t1);
    ("(1-IP) * T2 (hit: read cache)", (1.0 -. ip) *. t2);
    ("T3 (invalidation recording)", t3 p);
  ]

(* --- Update Cache: shared Yao quantities -------------------------------- *)

(* Pages of R2 read joining the 2fl surviving delta tuples (Y2). *)
let y2 (p : t) = yao ~n:(p.f_r2 *. p.n) ~m:(p.f_r2 *. blocks p) ~k:(2.0 *. p.f *. p.l)

(* Pages of a P1 procedure value touched by one update (Y3). *)
let y3 (p : t) = yao ~n:(p.f *. p.n) ~m:(p.f *. blocks p) ~k:(2.0 *. p.f *. p.l)

(* Pages of a P2 procedure value touched by one update (Y4). *)
let y4 (p : t) =
  let fs = f_star p in
  yao ~n:(fs *. p.n) ~m:(fs *. blocks p) ~k:(2.0 *. fs *. p.l)

(* Pages of the right α-memory (σ_f2 R2, f** = f2·f_R2) probed per update (Y5). *)
let y5 (p : t) =
  let fss = p.f2 *. p.f_r2 in
  yao ~n:(fss *. p.n) ~m:(fss *. blocks p) ~k:(2.0 *. p.f *. p.l)

(* Pages of R3 read extending delta joins in model 2 (Y7). *)
let y7 (p : t) = yao ~n:(p.f_r3 *. p.n) ~m:(p.f_r3 *. blocks p) ~k:(2.0 *. p.f *. p.l)

(* Pages of the (σ_f2 R2 ⋈ R3) β-memory (f*** = f2·f_R3) probed per update (Y8). *)
let y8 (p : t) =
  let fsss = p.f2 *. p.f_r3 in
  yao ~n:(fsss *. p.n) ~m:(fsss *. blocks p) ~k:(2.0 *. p.f *. p.l)

(* --- Update Cache, non-shared (AVM) ------------------------------------ *)

let avm_update_terms which (p : t) =
  let c_screen_p1 = p.n1 *. p.c1 *. p.f *. p.l in
  let c_screen_p2 = p.n2 *. p.c1 *. p.f *. p.l in
  let c_refresh_p1 = p.n1 *. p.c2 *. y3 p in
  let c_refresh_p2 = p.n2 *. p.c2 *. y4 p in
  let c_overhead = p.c3 *. 2.0 *. p.f *. p.l *. total_procs p in
  let c_join =
    match which with
    | Model1 -> p.n2 *. p.c2 *. y2 p
    | Model2 -> p.n2 *. p.c2 *. (y2 p +. y7 p)
  in
  [
    ("screen P1", c_screen_p1);
    ("screen P2", c_screen_p2);
    ("refresh P1", c_refresh_p1);
    ("refresh P2", c_refresh_p2);
    ("A/D set overhead", c_overhead);
    ("join delta", c_join);
  ]

(* --- Update Cache, shared (RVM) ----------------------------------------- *)

let rvm_update_terms which (p : t) =
  let c_screen_p1 = p.n1 *. p.c1 *. p.f *. p.l in
  let c_screen_p2_rete = p.n2 *. (1.0 -. p.sf) *. p.c1 *. p.f *. p.l in
  let c_refresh_p1 = p.n1 *. p.c2 *. y3 p in
  let c_refresh_alpha = p.n2 *. (1.0 -. p.sf) *. 2.0 *. p.c2 *. y3 p in
  let c_refresh_p2 = p.n2 *. p.c2 *. y4 p in
  let c_join_mem =
    match which with
    | Model1 -> p.n2 *. p.c2 *. y5 p (* probe right α-memory *)
    | Model2 -> p.n2 *. p.c2 *. y8 p (* probe right β-memory *)
  in
  [
    ("screen P1", c_screen_p1);
    ("screen P2 (unshared)", c_screen_p2_rete);
    ("refresh P1", c_refresh_p1);
    ("refresh left alpha (unshared)", c_refresh_alpha);
    ("refresh P2", c_refresh_p2);
    ("probe right memory", c_join_mem);
  ]

(* --- Update Cache, higher-order (HOIVM) --------------------------------- *)

(* Per-update work is purely in-memory: screens as for AVM, A_net/D_net
   bookkeeping, and C1 hash probes (one per surviving delta tuple and per
   joined tuple emitted) against the materialized prefix views — where
   AVM pays charged page probes (Y2/Y7) per update, HOIVM pays C1. *)
let hoivm_update_terms which (p : t) =
  let c_screen_p1 = p.n1 *. p.c1 *. p.f *. p.l in
  let c_screen_p2 = p.n2 *. p.c1 *. p.f *. p.l in
  let c_overhead = p.c3 *. 2.0 *. p.f *. p.l *. total_procs p in
  let chains = match which with Model1 -> 1.0 | Model2 -> 2.0 in
  let c_propagate = p.n2 *. p.c1 *. 2.0 *. (2.0 *. p.f *. p.l) *. chains in
  [
    ("screen P1", c_screen_p1);
    ("screen P2", c_screen_p2);
    ("A/D set overhead", c_overhead);
    ("propagate delta (in-memory)", c_propagate);
  ]

(* Store pages are touched only when the procedure is read: every update
   since its previous read has folded a net view-level delta into the
   pending maps, and the read applies them in one batch.  That is a
   single Yao draw over the whole accumulation window — [window]
   procedures share the query stream, so k/q * window updates coalesce —
   instead of AVM's separate Y3/Y4 draw per update.  The draw saturates
   at the stored object's page count, which is exactly the higher-order
   win at high update probability.

   The delta count per window is an expectation, not a deterministic
   draw size (updates hit a given procedure's interval as independent
   trials), so the touched-page count uses the Poissonized form
   m·(1 - e^(-k/m)) instead of Yao at integer k: at an expected one
   delta per window the flush fires with probability 1 - 1/e, it is not
   a certainty.  The two forms agree for k << 1 (both ≈ k) and at
   saturation (both → m). *)
let flush_pages ~m ~k =
  if k <= 0.0 then 0.0
  else begin
    let m1 = Float.max 1.0 m in
    m1 *. (1.0 -. exp (-.k /. m1))
  end

let hoivm_read_terms ?window which (p : t) =
  let window = Float.max 1.0 (Option.value window ~default:(total_procs p)) in
  let u1 = updates_per_query p *. window *. 2.0 *. p.f *. p.l in
  let flush_p1 = 2.0 *. p.c2 *. flush_pages ~m:(p.f *. blocks p) ~k:u1 in
  let fs = f_star p in
  let u2 = updates_per_query p *. window *. 2.0 *. fs *. p.l in
  let flush_top = 2.0 *. p.c2 *. flush_pages ~m:(fs *. blocks p) ~k:u2 in
  let flush_p2 =
    match which with
    | Model1 -> flush_p1 +. flush_top
    | Model2 -> flush_p1 +. (2.0 *. flush_top) (* extra join-prefix store *)
  in
  [
    ("C_read", c_read p);
    ( "flush pending (one coalesced batch)",
      ((p.n1 *. flush_p1) +. (p.n2 *. flush_p2)) /. total_procs p );
  ]

(* --- Totals -------------------------------------------------------------- *)

let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0

let breakdown which (p : t) strategy =
  match (strategy : Strategy.t) with
  | Strategy.Always_recompute -> [ ("C_ProcessQuery", c_process_query which p) ]
  | Strategy.Cache_invalidate -> cache_inval_terms which p
  | Strategy.Update_cache_avm ->
    ("C_read", c_read p)
    :: List.map
         (fun (name, v) -> ("(k/q) " ^ name, updates_per_query p *. v))
         (avm_update_terms which p)
  | Strategy.Update_cache_rvm ->
    ("C_read", c_read p)
    :: List.map
         (fun (name, v) -> ("(k/q) " ^ name, updates_per_query p *. v))
         (rvm_update_terms which p)
  | Strategy.Update_cache_hoivm ->
    hoivm_read_terms which p
    @ List.map
        (fun (name, v) -> ("(k/q) " ^ name, updates_per_query p *. v))
        (hoivm_update_terms which p)

let cost which p strategy = sum (breakdown which p strategy)

(* Per-procedure cost at observed statistics: the population collapses to
   the single procedure (N1=1 or N2=1), its update probability and result
   selectivity are replaced by the online estimates, and the closed form
   is evaluated as usual.  For a P2 procedure the observed result
   selectivity is f* = f·f2, so f is recovered by dividing out f2. *)
let per_procedure which (p : t) ~p_hat ~f_hat ~p2 strategy =
  let p_hat = Float.max 0.0 (Float.min p_hat 0.99) in
  (* Floor the observed selectivity at half a tuple: a currently-empty
     result does not mean a permanently-empty one (updates move tuples
     into the interval), and pricing it as exactly empty makes every
     cached strategy collapse to an identical hit cost — the selector
     would then break the tie arbitrarily instead of by how each
     strategy degrades when the first tuple arrives. *)
  let f_hat = Float.max f_hat (0.5 /. Float.max 1.0 p.n) in
  let f_hat = Float.max 1e-9 (Float.min f_hat 1.0) in
  let f =
    if p2 && p.f2 > 0.0 then Float.min 1.0 (f_hat /. p.f2) else f_hat
  in
  let base =
    if p2 then { p with f; n1 = 0.0; n2 = 1.0 } else { p with f; n1 = 1.0; n2 = 0.0 }
  in
  let priced = with_update_probability base p_hat in
  match strategy with
  | Strategy.Update_cache_hoivm ->
    (* The flush window depends on the real population (a procedure is
       read once per total_procs queries), which the single-procedure
       collapse would otherwise erase.  The collapse convention prices
       access-side work per this procedure's read but update-side work
       per query (AVM's maintenance term is k/q x one procedure's
       refresh); the coalesced flush is update-side work that happens to
       be paid at read time, so its per-query contribution divides by
       the window — otherwise HOIVM is overpriced by a factor of the
       population size against AVM's per-query maintenance. *)
    let window = Float.max 1.0 (total_procs p) in
    let read_terms = hoivm_read_terms ~window which priced in
    let flush =
      sum (List.filter (fun (name, _) -> name <> "C_read") read_terms)
    in
    c_read priced +. (flush /. window)
    +. (updates_per_query priced *. sum (hoivm_update_terms which priced))
  | Strategy.Update_cache_avm | Strategy.Update_cache_rvm ->
    (* The paper's closed form counts one page touch per refreshed store
       page (C2·Y3/Y4); the engine this selector controls pays a
       read-modify-write, i.e. two.  Figure reproductions keep the
       paper's form; the migration decision prices the second touch so
       differential maintenance is not half-priced against HOIVM's
       flush, which already charges both I/Os. *)
    let writeback =
      p.c2
      *. ((priced.n1 *. y3 priced) +. (priced.n2 *. y4 priced))
      /. total_procs priced
    in
    cost which priced strategy +. (updates_per_query priced *. writeback)
  | _ -> cost which priced strategy

let c_query_p2 = c_query_p2
let c_process_query = c_process_query
