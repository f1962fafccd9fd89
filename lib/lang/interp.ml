open Dbproc_storage
open Dbproc_relation
open Dbproc_query
open Dbproc_proc

module Tm = Dbproc_txn.Manager

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Per-client transaction state.  [implicit] marks an autocommit
   transaction opened for a single statement (it survives parking — its
   granted locks must be held across retries — and commits as soon as the
   statement executes).  [doomed] is set when another client's deadlock
   resolution aborted this client's transaction; the client learns on its
   next statement. *)
type client_state = {
  mutable txn : Tm.id option;
  mutable implicit : bool;
  mutable doomed : bool;
}

type txn_layer = { tm : Tm.t; clients : (int, client_state) Hashtbl.t }

(* A defined procedure: the retrieve it was defined with (what the
   session dump prints), its bound definition and its display
   projection. *)
type proc = { body : Ast.retrieve; def : View_def.t; projection : int list option }

type t = {
  cost : Cost.t;
  io : Io.t;
  catalog : Catalog.t;
  tuple_bytes : int;
  charges : Cost.charges;
  mutable defs : (string * proc) list;  (* definition order, reversed *)
  mutable manager : Manager.t;
  mutable proc_ids : (string * Manager.proc_id) list;
  mutable layer : txn_layer option;
      (* created lazily by the first BEGIN — until then the session runs
         exactly as before transactions existed (same costs, same output) *)
  mutable logging_txn : Tm.id option;
      (* the explicit transaction mutation statements log undo for *)
  stmt_cache : Stmt_cache.t option;
}

let fresh_manager t kind = Manager.create kind ~io:t.io ~record_bytes:t.tuple_bytes ()

let create ?ctx ?(page_bytes = 4000) ?(tuple_bytes = 100) ?(plan_cache = true) () =
  let cost = Cost.create ?ctx () in
  (* Price the session's tracer off the simulated clock, like the workload
     driver does, so a span around any command reports simulated ms. *)
  Dbproc_obs.Trace.set_clock
    (Dbproc_obs.Ctx.trace (Cost.ctx cost))
    (fun () -> Cost.total_ms Cost.default_charges cost);
  let io = Io.direct cost ~page_bytes in
  {
    cost;
    io;
    catalog = Catalog.create ~io;
    tuple_bytes;
    charges = Cost.default_charges;
    defs = [];
    manager = Manager.create Manager.Always_recompute ~io ~record_bytes:tuple_bytes ();
    proc_ids = [];
    layer = None;
    logging_txn = None;
    stmt_cache =
      (if plan_cache then
         Some (Stmt_cache.create ~metrics:(Dbproc_obs.Ctx.metrics (Cost.ctx cost)) ())
       else None);
  }

let strategy_name t = Manager.kind_name (Manager.kind t.manager)
let obs t = Cost.ctx t.cost
let simulated_ms t = Cost.total_ms t.charges t.cost

(* ------------------------------------------------------------- binding *)

let find_relation t name =
  match Catalog.find_opt t.catalog name with
  | Some rel -> rel
  | None -> error "unknown relation %S" name

let ty_of_literal lit = Value.type_of (Ast.value_of_literal lit)

let value_ty_name = function
  | Value.TInt -> "int"
  | Value.TFloat -> "float"
  | Value.TStr -> "string"

let attr_pos rel attr =
  match Schema.index_of_opt (Relation.schema rel) attr with
  | Some pos -> pos
  | None -> error "relation %s has no attribute %S" (Relation.name rel) attr

let op_of_comparison = function
  | Ast.C_eq -> Predicate.Eq
  | Ast.C_ne -> Predicate.Ne
  | Ast.C_lt -> Predicate.Lt
  | Ast.C_le -> Predicate.Le
  | Ast.C_gt -> Predicate.Gt
  | Ast.C_ge -> Predicate.Ge

(* A restriction qual bound against one relation's schema. *)
let bind_restriction_term rel ((rname, attr) : string * string) op lit =
  let pos = attr_pos rel attr in
  let declared = (Schema.attr (Relation.schema rel) pos).Schema.ty in
  let given = ty_of_literal lit in
  if declared <> given then
    error "%s.%s is %s but the literal is %s" rname attr (value_ty_name declared)
      (value_ty_name given);
  Predicate.term ~attr:pos ~op:(op_of_comparison op) ~value:(Ast.value_of_literal lit)

(* Relation order: first mention in the target list, deduplicated. *)
let target_relations (r : Ast.retrieve) =
  List.fold_left
    (fun acc (rel, _) -> if List.mem rel acc then acc else acc @ [ rel ])
    [] r.targets

let bind_retrieve_projected t (r : Ast.retrieve) =
  (match r.targets with
  | [] -> error "retrieve needs at least one target"
  | _ -> ());
  let rel_names = target_relations r in
  let rels = List.map (fun name -> (name, find_relation t name)) rel_names in
  let member name = List.mem_assoc name rels in
  (* Partition the qualification. *)
  let restrictions, joins =
    List.partition_map
      (fun (q : Ast.qual) ->
        let lrel, _ = q.left in
        if not (member lrel) then error "relation %S is not in the target list" lrel;
        match q.right with
        | Ast.Lit lit -> Left (lrel, (q.left, q.op, lit))
        | Ast.Attr (rrel, rattr) ->
          if not (member rrel) then error "relation %S is not in the target list" rrel;
          Right (q.left, q.op, (rrel, rattr)))
      r.quals
  in
  let restriction_of name rel =
    List.filter_map
      (fun (owner, (left, op, lit)) ->
        if owner = name then Some (bind_restriction_term rel left op lit) else None)
      restrictions
  in
  match rels with
  | [] -> assert false
  | (base_name, base_rel) :: rest ->
    let def =
      View_def.select ~name:"query" ~rel:base_rel
        ~restriction:(restriction_of base_name base_rel)
    in
    let used = Array.make (List.length joins) false in
    let def, _ =
      List.fold_left
        (fun (def, in_chain) (name, rel) ->
          (* find a join qual linking the accumulated chain to [name] *)
          let found = ref None in
          List.iteri
            (fun i ((lrel, lattr), op, (rrel, rattr)) ->
              if !found = None && not used.(i) then
                if List.mem lrel in_chain && rrel = name then begin
                  used.(i) <- true;
                  found := Some (lrel ^ "." ^ lattr, op, rattr)
                end
                else if List.mem rrel in_chain && lrel = name then begin
                  used.(i) <- true;
                  found := Some (rrel ^ "." ^ rattr, op, lattr)
                end)
            joins;
          match !found with
          | None ->
            error "no join condition connects %s to {%s}" name (String.concat ", " in_chain)
          | Some (left, op, right) ->
            (match attr_pos rel right with _ -> ());
            let def =
              View_def.join def ~rel ~restriction:(restriction_of name rel) ~left
                ~op:(op_of_comparison op) ~right
            in
            (def, name :: in_chain))
        (def, [ base_name ])
        rest
    in
    List.iteri
      (fun i ((lrel, lattr), _, (rrel, rattr)) ->
        if not used.(i) then
          error "join condition %s.%s ~ %s.%s does not fit the target order" lrel lattr rrel
            rattr)
      joins;
    (* Display projection: None when every target is a whole-tuple [.all]
       mention; otherwise positions into the view's qualified schema. *)
    let schema = View_def.schema def in
    let projection =
      if List.for_all (fun (_, attr) -> attr = "all") r.targets then None
      else begin
        let offsets = View_def.source_offsets def in
        Some
          (List.concat_map
             (fun (rel_name, attr) ->
               if attr = "all" then begin
                 let rec index_of i = function
                   | [] -> error "relation %S vanished from the chain" rel_name
                   | n :: _ when n = rel_name -> i
                   | _ :: rest -> index_of (i + 1) rest
                 in
                 let src_i = index_of 0 rel_names in
                 let off = List.nth offsets src_i in
                 let arity =
                   Schema.arity (Relation.schema (List.assoc rel_name rels))
                 in
                 List.init arity (fun k -> off + k)
               end
               else begin
                 match Schema.index_of_opt schema (rel_name ^ "." ^ attr) with
                 | Some pos -> [ pos ]
                 | None -> error "relation %s has no attribute %S" rel_name attr
               end)
             r.targets)
      end
    in
    (def, projection)

let bind_retrieve t r = fst (bind_retrieve_projected t r)

let project projection tuple =
  match projection with
  | None -> tuple
  | Some positions -> Tuple.create (List.map (Tuple.get tuple) positions)

(* ------------------------------------------------------------ helpers *)

let tuple_of_assignments t rel values =
  ignore t;
  let schema = Relation.schema rel in
  let provided = List.map fst values in
  List.iter
    (fun name -> if not (Schema.mem schema name) then error "%s has no attribute %S" (Relation.name rel) name)
    provided;
  let fields =
    List.map
      (fun (a : Schema.attr) ->
        match List.assoc_opt a.Schema.name values with
        | None -> error "missing value for %s.%s" (Relation.name rel) a.Schema.name
        | Some lit ->
          if ty_of_literal lit <> a.Schema.ty then
            error "%s.%s is %s" (Relation.name rel) a.Schema.name (value_ty_name a.Schema.ty);
          Ast.value_of_literal lit)
      (Schema.attrs schema)
  in
  if List.length provided <> Schema.arity schema then
    error "expected %d attribute values for %s" (Schema.arity schema) (Relation.name rel);
  Tuple.create fields

let single_relation_restriction t rel quals =
  List.map
    (fun (q : Ast.qual) ->
      let lrel, _ = q.left in
      if lrel <> Relation.name rel then
        error "qualification must reference only %s" (Relation.name rel);
      match q.right with
      | Ast.Lit lit -> bind_restriction_term rel q.left q.op lit
      | Ast.Attr _ -> error "joins are not allowed here")
    quals
  |> fun terms ->
  ignore t;
  terms

let matching_rids t rel restriction =
  ignore t;
  let acc = ref [] in
  Relation.scan rel ~f:(fun rid tuple ->
      if Predicate.eval restriction tuple then acc := (rid, tuple) :: !acc);
  List.rev !acc

let format_tuples tuples =
  let buf = Buffer.create 256 in
  let shown, hidden =
    let rec split n = function
      | [] -> ([], [])
      | rest when n = 0 -> ([], rest)
      | x :: rest ->
        let s, h = split (n - 1) rest in
        (x :: s, h)
    in
    split 20 tuples
  in
  List.iter (fun tuple -> Buffer.add_string buf (Format.asprintf "  %a\n" Tuple.pp tuple)) shown;
  if hidden <> [] then
    Buffer.add_string buf (Printf.sprintf "  ... %d more\n" (List.length hidden));
  Buffer.add_string buf (Printf.sprintf "(%d tuples)" (List.length tuples));
  Buffer.contents buf

(* Bind + plan + compile the retrieve [r] of statement [stmt], reusing —
   and on a miss, filling — the statement's prepared plan.  Binding,
   planning and compilation are uncharged (compile-time work), so the
   cache changes wall-clock only, never simulated cost. *)
let retrieve_prepared t (stmt : Stmt_cache.entry) (r : Ast.retrieve) =
  match stmt.prepared with
  | Some p -> p
  | None ->
    let def, projection = bind_retrieve_projected t r in
    let plan =
      try Planner.compile def
      with Planner.Unsupported_plan msg -> error "cannot plan this query: %s" msg
    in
    let p = { Stmt_cache.def; projection; exec = Executor.prepare plan } in
    stmt.prepared <- Some p;
    p

(* Drop every cached statement plan; called after anything that can
   change plan choice (DDL, index creation, strategy migration). *)
let invalidate_stmts t =
  match t.stmt_cache with Some c -> Stmt_cache.invalidate c | None -> ()

let register_procedure t name def =
  let id = Manager.register t.manager def in
  t.proc_ids <- (name, id) :: t.proc_ids

(* ------------------------------------------------------- session script *)

let ast_ty = function
  | Value.TInt -> Ast.T_int
  | Value.TFloat -> Ast.T_float
  | Value.TStr -> Ast.T_string

let session_script t =
  let buf = Buffer.create 1024 in
  let add cmd =
    Buffer.add_string buf (Ast.to_string cmd);
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf "-- session dump: replay with `procsim run <file>`\n";
  List.iter
    (fun rel ->
      let r = Catalog.find t.catalog rel in
      let attrs = Schema.attrs (Relation.schema r) in
      let ty (a : Schema.attr) = (a.Schema.name, ast_ty a.Schema.ty) in
      add (Ast.Create { rel; attrs = List.map ty attrs });
      List.iter
        (fun (attr, kind) ->
          add
            (match kind with
            | `Btree -> Ast.Index { rel; kind = `Btree; attr; primary = false }
            | `Hash primary -> Ast.Index { rel; kind = `Hash; attr; primary }))
        (Relation.index_descriptions r);
      let value (a : Schema.attr) v = (a.Schema.name, Ast.literal_of_value v) in
      Cost.with_disabled t.cost (fun () ->
          Relation.scan r ~f:(fun _ tuple ->
              add (Ast.Append { rel; values = List.map2 value attrs (Tuple.to_list tuple) }))))
    (Catalog.names t.catalog);
  add
    (Ast.Strategy
       (String.lowercase_ascii
          (Dbproc_costmodel.Strategy.short_name
             (Manager.strategy_of_kind (Manager.kind t.manager)))));
  List.iter (fun (name, p) -> add (Ast.Define_proc { name; body = p.body })) (List.rev t.defs);
  Buffer.contents buf

let help_text =
  String.concat "\n"
    [
      "commands:";
      "  create REL (attr = type, ...)            -- types: int, float, string";
      "  index REL btree on ATTR";
      "  index REL hash on ATTR [primary]";
      "  append to REL (attr = value, ...)";
      "  delete from REL where REL.attr OP value";
      "  replace REL (attr = value, ...) where REL.attr OP value";
      "  retrieve (REL.all, ...) [where quals]";
      "  explain retrieve (REL.all, ...) [where quals]";
      "  define proc NAME as retrieve (...) where ...";
      "  exec NAME";
      "  strategy ar | ci | avm | rvm | hoivm";
      "  begin [transaction]                      -- open an explicit transaction (2PL)";
      "  commit | abort                           -- end it (abort rolls the WAL tail back)";
      "  show relations | show procs | show cost | show network | show script";
      "  save \"file.dbp\"                          -- dump a replayable session script";
      "  reset cost";
      "quals: REL.attr OP value | REL.attr = REL2.attr, joined with 'and'";
      "ops: = != < <= > >=     comments: -- to end of line";
    ]

(* ------------------------------------------------------------ commands *)

(* Undo hooks: no-ops unless the statement runs inside an explicit
   transaction (an autocommit statement acquires all its locks before
   executing and commits immediately after, so it can never need undo). *)
let undo_insert t ~rel ~rid ~tuple =
  match (t.layer, t.logging_txn) with
  | Some l, Some id -> Tm.log_insert l.tm id ~rel ~rid ~tuple
  | _ -> ()

let undo_delete t ~rel ~tuple =
  match (t.layer, t.logging_txn) with
  | Some l, Some id -> Tm.log_delete l.tm id ~rel ~tuple
  | _ -> ()

let undo_update t ~rel ~rid ~before ~after =
  match (t.layer, t.logging_txn) with
  | Some l, Some id -> Tm.log_update l.tm id ~rel ~rid ~before ~after
  | _ -> ()

(* Raw-tuple execution of a read: the result tuples, projected, and the
   simulated ms the execution charged.  [exec_command_body] formats them;
   a coordinator merges partitions and digests a sorted multiset. *)
let fetch_body t (stmt : Stmt_cache.entry) =
  let timed projection run =
    let before = Cost.snapshot t.cost in
    let tuples = run () in
    let spent = Cost.diff_ms t.charges ~before ~after:(Cost.snapshot t.cost) in
    (List.map (project projection) tuples, spent)
  in
  match stmt.cmd with
  | Ast.Retrieve r ->
    let { Stmt_cache.projection; exec; _ } = retrieve_prepared t stmt r in
    timed projection (fun () -> Executor.run_prepared exec)
  | Ast.Exec name -> (
    match List.assoc_opt name t.proc_ids with
    | None -> error "unknown procedure %S" name
    | Some id ->
      let projection =
        match List.assoc_opt name t.defs with Some p -> p.projection | None -> None
      in
      timed projection (fun () -> Manager.access t.manager id))
  | _ -> error "fetch: not a tuple-producing statement"

(* Write a session dump to [file]; the message is what [save] answers. *)
let save_script ~file script =
  (try Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc script)
   with Sys_error msg -> error "%s" msg);
  Printf.sprintf "saved session to %s (%d lines)" file
    (List.length (String.split_on_char '\n' script))

let exec_command_body t (stmt : Stmt_cache.entry) =
  match stmt.cmd with
  | Ast.Create { rel; attrs } ->
    if Catalog.find_opt t.catalog rel <> None then error "relation %S already exists" rel;
    let schema =
      Schema.create
        (List.map
           (fun (name, ty) ->
             ( name,
               match ty with
               | Ast.T_int -> Value.TInt
               | Ast.T_float -> Value.TFloat
               | Ast.T_string -> Value.TStr ))
           attrs)
    in
    ignore (Catalog.create_relation t.catalog ~name:rel ~schema ~tuple_bytes:t.tuple_bytes);
    invalidate_stmts t;
    Printf.sprintf "created %s with %d attributes" rel (List.length attrs)
  | Ast.Index { rel; kind; attr; primary } ->
    let r = find_relation t rel in
    (try
       match kind with
       | `Btree ->
         if primary then error "btree primary organization is implied by load order";
         Relation.add_btree_index r ~attr ~entry_bytes:20
       | `Hash ->
         Relation.add_hash_index ~primary r ~attr ~entry_bytes:20
           ~expected_entries:(max 64 (Relation.cardinality r))
     with Invalid_argument msg -> error "%s" msg);
    invalidate_stmts t;
    Printf.sprintf "indexed %s.%s (%s%s)" rel attr
      (match kind with `Btree -> "btree" | `Hash -> "hash")
      (if primary then ", primary" else "")
  | Ast.Append { rel; values } ->
    let r = find_relation t rel in
    let tuple = tuple_of_assignments t r values in
    let rid = Relation.insert r tuple in
    undo_insert t ~rel:r ~rid ~tuple;
    Manager.on_delta t.manager ~rel:r ~inserted:[ tuple ] ~deleted:[];
    Printf.sprintf "appended 1 tuple to %s (%d total)" rel (Relation.cardinality r)
  | Ast.Delete { rel; quals } ->
    let r = find_relation t rel in
    let restriction = single_relation_restriction t r quals in
    let victims = matching_rids t r restriction in
    List.iter
      (fun (rid, _) ->
        let tuple = Relation.delete r rid in
        undo_delete t ~rel:r ~tuple)
      victims;
    Manager.on_delta t.manager ~rel:r ~inserted:[] ~deleted:(List.map snd victims);
    Printf.sprintf "deleted %d tuples from %s" (List.length victims) rel
  | Ast.Replace { rel; values; quals } ->
    let r = find_relation t rel in
    let restriction = single_relation_restriction t r quals in
    let victims = matching_rids t r restriction in
    let schema = Relation.schema r in
    let changes =
      List.map
        (fun (rid, old_tuple) ->
          let fields =
            List.mapi
              (fun i (a : Schema.attr) ->
                match List.assoc_opt a.Schema.name values with
                | Some lit ->
                  if ty_of_literal lit <> a.Schema.ty then
                    error "%s.%s is %s" rel a.Schema.name (value_ty_name a.Schema.ty);
                  Ast.value_of_literal lit
                | None -> Tuple.get old_tuple i)
              (Schema.attrs schema)
          in
          (rid, Tuple.create fields))
        victims
    in
    let old_new = Relation.update_batch r changes in
    List.iter2
      (fun (rid, _) (before, after) -> undo_update t ~rel:r ~rid ~before ~after)
      changes old_new;
    Manager.on_update t.manager ~rel:r ~changes:old_new;
    Printf.sprintf "replaced %d tuples in %s" (List.length changes) rel
  | Ast.Retrieve _ ->
    let tuples, spent = fetch_body t stmt in
    Printf.sprintf "%s\n%.0f ms (simulated)" (format_tuples tuples) spent
  | Ast.Explain r ->
    let def = bind_retrieve t r in
    (try Format.asprintf "%a" Explain.pp_report (Explain.explain_run def)
     with Planner.Unsupported_plan msg -> error "cannot plan this query: %s" msg)
  | Ast.Define_proc { name; body } ->
    if List.mem_assoc name t.proc_ids then error "procedure %S already defined" name;
    let def, projection = bind_retrieve_projected t body in
    let def = { def with View_def.name } in
    (try register_procedure t name def
     with Planner.Unsupported_plan msg -> error "cannot plan this procedure: %s" msg);
    t.defs <- (name, { body; def; projection }) :: t.defs;
    Printf.sprintf "defined procedure %s under %s" name (strategy_name t)
  | Ast.Exec _ ->
    let tuples, spent = fetch_body t stmt in
    Printf.sprintf "%s\n%.0f ms (simulated, %s)" (format_tuples tuples) spent
      (strategy_name t)
  | Ast.Strategy s ->
    let kind =
      match Dbproc_costmodel.Strategy.of_string s with
      | Some strategy -> Manager.kind_of_strategy strategy
      | None -> error "unknown strategy %S (ar, ci, avm, rvm, hoivm)" s
    in
    t.manager <- fresh_manager t kind;
    t.proc_ids <- [];
    List.iter (fun (name, p) -> register_procedure t name p.def) (List.rev t.defs);
    invalidate_stmts t;
    Printf.sprintf "strategy is now %s (%d procedures re-registered)" (strategy_name t)
      (List.length t.defs)
  | Ast.Show `Relations ->
    if Catalog.names t.catalog = [] then "(no relations)"
    else Format.asprintf "%a" Catalog.pp t.catalog
  | Ast.Show `Procs ->
    if t.defs = [] then "(no procedures)"
    else
      List.rev_map
        (fun (name, p) ->
          Format.asprintf "%s [%s, %d tuples]: %a" name (strategy_name t)
            (match List.assoc_opt name t.proc_ids with
            | Some id -> Manager.result_cardinality t.manager id
            | None -> 0)
            View_def.pp p.def)
        t.defs
      |> String.concat "\n"
  | Ast.Show `Cost ->
    Format.asprintf "%a = %.0f ms (C1=%g C2=%g C3=%g C_inval=%g)" Cost.pp t.cost
      (Cost.total_ms t.charges t.cost)
      t.charges.Cost.c1_screen_ms t.charges.Cost.c2_io_ms t.charges.Cost.c3_delta_ms
      t.charges.Cost.c_inval_ms
  | Ast.Show `Script -> session_script t
  | Ast.Save file -> save_script ~file (session_script t)
  | Ast.Show `Network -> (
    match Manager.rete_dot t.manager with
    | Some dot -> dot
    | None ->
      error "the current strategy (%s) keeps no Rete network; try 'strategy rvm'"
        (strategy_name t))
  | Ast.Reset_cost ->
    Cost.reset t.cost;
    "cost counters reset"
  | Ast.Help -> help_text
  | Ast.Begin | Ast.Commit | Ast.Abort ->
    error "internal: transaction control escaped the transaction layer"

(* --------------------------------------------------------- transactions *)

type 'a answer =
  | O_ok of 'a
  | O_error of string
  | O_blocked of int list
  | O_aborted of string

type outcome = string answer

let ensure_layer t =
  match t.layer with
  | Some l -> l
  | None ->
    let tm =
      Tm.create ~charges:t.charges ~record_bytes:t.tuple_bytes
        ~notify_delta:(fun ~rel ~inserted ~deleted ->
          Manager.on_delta t.manager ~rel ~inserted ~deleted)
        ~notify_update:(fun ~rel ~changes -> Manager.on_update t.manager ~rel ~changes)
        ~cost:t.cost ~io:t.io ()
    in
    let l = { tm; clients = Hashtbl.create 8 } in
    t.layer <- Some l;
    l

let client_of l client =
  match Hashtbl.find_opt l.clients client with
  | Some cs -> cs
  | None ->
    let cs = { txn = None; implicit = false; doomed = false } in
    Hashtbl.add l.clients client cs;
    cs

(* The locks a statement needs, computed BEFORE anything executes — a
   statement that blocks has done no work and is retried verbatim.
   Reads (and [explain], which binds what it would read) take S on what
   each plan source inspects; deletes and replaces take X on the
   restriction's region plus (for replace) X points on every assigned new
   value; appends take X on the whole relation (phantom-conservative).
   DDL, introspection and session files are unlocked. *)
let lock_set t (stmt : Stmt_cache.entry) =
  let source_locks def =
    List.map
      (fun (s : View_def.source) ->
        ( `S,
          Lock_manager.region_of_restriction
            ~rel:(Relation.name s.View_def.rel)
            s.View_def.restriction ))
      (View_def.sources def)
  in
  match stmt.cmd with
  | Ast.Retrieve r | Ast.Explain r ->
    source_locks
      (match stmt.prepared with Some p -> p.Stmt_cache.def | None -> bind_retrieve t r)
  | Ast.Exec name -> (
    match List.assoc_opt name t.defs with
    | Some p -> source_locks p.def
    | None -> [])
  | Ast.Append { rel; _ } -> (
    match Catalog.find_opt t.catalog rel with
    | Some _ -> [ (`X, Lock_manager.Whole rel) ]
    | None -> [])
  | Ast.Delete { rel; quals } -> (
    match Catalog.find_opt t.catalog rel with
    | Some r ->
      [ (`X, Lock_manager.region_of_restriction ~rel (single_relation_restriction t r quals)) ]
    | None -> [])
  | Ast.Replace { rel; values; quals } -> (
    match Catalog.find_opt t.catalog rel with
    | Some r ->
      let base =
        (`X, Lock_manager.region_of_restriction ~rel (single_relation_restriction t r quals))
      in
      let points =
        List.filter_map
          (fun (attr, lit) ->
            match Schema.index_of_opt (Relation.schema r) attr with
            | Some pos ->
              Some (`X, Lock_manager.point ~rel ~attr:pos (Ast.value_of_literal lit))
            | None -> None)
          values
      in
      base :: points
    | None -> [])
  | Ast.Create _ | Ast.Index _ | Ast.Define_proc _ | Ast.Strategy _ | Ast.Show _
  | Ast.Help | Ast.Reset_cost | Ast.Save _ | Ast.Begin | Ast.Commit | Ast.Abort ->
    []

let doom_owner l victim =
  Hashtbl.iter
    (fun _ cs ->
      if cs.txn = Some victim then begin
        cs.txn <- None;
        cs.implicit <- false;
        cs.doomed <- true
      end)
    l.clients

(* Acquire every lock in [locks] for [id], resolving deadlocks as they
   surface: a victim other than [id] is aborted and the acquisition
   retried; [id] itself losing aborts the caller's transaction. *)
let acquire_locks l cs id locks =
  let rec acquire_all = function
    | [] -> `Go
    | ((mode, region) :: rest) as all -> (
      match Tm.acquire l.tm id ~mode region with
      | Tm.Granted -> acquire_all rest
      | Tm.Blocked blockers -> `Parked blockers
      | Tm.Deadlock victim ->
        if victim = id then begin
          ignore (Tm.abort ~victim:true l.tm id);
          cs.txn <- None;
          cs.implicit <- false;
          `Self_aborted
        end
        else begin
          ignore (Tm.abort ~victim:true l.tm victim);
          doom_owner l victim;
          (* the victim's locks are released — retry the same lock *)
          acquire_all all
        end)
  in
  acquire_all locks

(* A client whose transaction another client's deadlock resolution
   aborted learns it here, on its next statement, which does not run. *)
let take_doom cs =
  cs.doomed
  && begin
       cs.doomed <- false;
       cs.txn <- None;
       cs.implicit <- false;
       true
     end

let victim_answer = O_aborted "transaction aborted: chosen as deadlock victim"

let attempt f =
  match f () with
  | v -> O_ok v
  | exception Runtime_error msg -> O_error msg
  | exception Invalid_argument msg -> O_error msg

let txn_control t ~client cmd =
  let l = ensure_layer t in
  let cs = client_of l client in
  if take_doom cs then victim_answer
  else
    match (cmd, cs.txn) with
    | `Begin, Some _ -> O_error "a transaction is already open"
    | `Begin, None ->
      cs.txn <- Some (Tm.begin_ l.tm);
      cs.implicit <- false;
      O_ok "transaction started"
    | (`Commit | `Abort), None -> O_error "no open transaction"
    | `Commit, Some id ->
      let broken = Tm.commit l.tm id in
      cs.txn <- None;
      O_ok
        (if broken = [] then "committed"
         else Printf.sprintf "committed (%d i-locks broken)" (List.length broken))
    | `Abort, Some id ->
      let n = Tm.abort l.tm id in
      cs.txn <- None;
      O_ok (Printf.sprintf "aborted (%d undo records applied)" n)

(* The one lock-and-run path: run [body] on [stmt] for [client] and
   answer with its value.  While no transaction has ever been opened on
   the session this is the pre-transaction fast path, byte-identical in
   cost and output.  After that, every statement runs under strict 2PL —
   inside the client's open transaction, or an implicit single-statement
   one that commits as soon as the body has run — and takes all its
   locks before the body runs. *)
let run_stmt t ~client (stmt : Stmt_cache.entry) body =
  match t.layer with
  | None -> attempt (fun () -> body t stmt)
  | Some l -> (
    let cs = client_of l client in
    if take_doom cs then victim_answer
    else
      match lock_set t stmt with
      | exception Runtime_error msg -> O_error msg
      | exception Invalid_argument msg -> O_error msg
      | locks -> (
        let id =
          match cs.txn with
          | Some id -> id
          | None ->
            (* autocommit: a single-statement transaction.  It must persist
               across parking — locks granted before the block are held. *)
            let id = Tm.begin_ l.tm in
            cs.txn <- Some id;
            cs.implicit <- true;
            id
        in
        match acquire_locks l cs id locks with
        | `Parked blockers -> O_blocked blockers
        | `Self_aborted -> O_aborted "deadlock: transaction aborted (victim)"
        | `Go ->
          let implicit = cs.implicit in
          t.logging_txn <- (if implicit then None else Some id);
          let answer = attempt (fun () -> body t stmt) in
          t.logging_txn <- None;
          if implicit then begin
            ignore (Tm.commit l.tm id);
            cs.txn <- None;
            cs.implicit <- false
          end;
          answer))

(* Parse a line into a statement value through the statement cache: a
   cached line skips the lexer and parser entirely (and, once its entry
   is prepared, the binder, planner and plan compiler too).  Only
   [retrieve] is stored; any other statement gets an entry of its own. *)
let parse t line =
  let parsed () = { Stmt_cache.cmd = Parser.parse_command line; prepared = None } in
  match
    match t.stmt_cache with
    | None -> parsed ()
    | Some cache -> (
      let key = Stmt_cache.normalize line in
      match Stmt_cache.find cache key with
      | Some entry ->
        (match entry.Stmt_cache.prepared with
        | Some _ -> Stmt_cache.note_hit cache
        | None -> Stmt_cache.note_miss cache);
        entry
      | None ->
        let entry = parsed () in
        (match entry.cmd with
        | Ast.Retrieve _ ->
          Stmt_cache.store cache key entry;
          Stmt_cache.note_miss cache
        | _ -> ());
        entry)
  with
  | stmt -> Ok stmt
  | exception Parser.Parse_error msg -> Error msg
  | exception Lexer.Lex_error msg -> Error msg

let exec_stmt t ~client (stmt : Stmt_cache.entry) =
  match stmt.cmd with
  | Ast.Begin -> txn_control t ~client `Begin
  | Ast.Commit -> txn_control t ~client `Commit
  | Ast.Abort -> txn_control t ~client `Abort
  | _ -> run_stmt t ~client stmt exec_command_body

(* A fetch of anything but a read is refused before any lock is taken. *)
let fetch_stmt t ~client (stmt : Stmt_cache.entry) =
  match Ast.classify stmt.cmd with
  | Ast.Read -> run_stmt t ~client stmt fetch_body
  | Ast.Write | Ast.Ddl | Ast.Introspection | Ast.Session_file | Ast.Txn_control ->
    O_error "fetch: not a tuple-producing statement"

let exec_client t ~client line =
  match parse t line with
  | Error msg -> O_error msg
  | Ok stmt -> exec_stmt t ~client stmt

let in_transaction t ~client =
  match t.layer with
  | None -> false
  | Some l -> (
    match Hashtbl.find_opt l.clients client with Some { txn = Some _; _ } -> true | _ -> false)

let abort_client t ~client =
  match t.layer with
  | None -> false
  | Some l -> (
    match Hashtbl.find_opt l.clients client with
    | None -> false
    | Some cs ->
      Hashtbl.remove l.clients client;
      (match cs.txn with
      | Some id when Tm.is_live l.tm id ->
        ignore (Tm.abort l.tm id);
        true
      | _ -> false))

let result_of_answer = function
  | O_ok v -> Ok v
  | O_error msg | O_aborted msg -> Error msg
  | O_blocked _ -> Error "blocked on a concurrent transaction"

let exec_line t line = result_of_answer (exec_client t ~client:0 line)

let run_script exec script =
  let buf = Buffer.create 256 in
  let rec go lineno = function
    | [] -> Ok (Buffer.contents buf)
    | line :: rest -> (
      let trimmed = String.trim line in
      if trimmed = "" || String.starts_with ~prefix:"--" trimmed then go (lineno + 1) rest
      else
        match result_of_answer (exec trimmed) with
        | Ok output ->
          Printf.bprintf buf "> %s\n%s\n" trimmed output;
          go (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 (String.split_on_char '\n' script)

let exec_script t = run_script (exec_client t ~client:0)

(* Lock-free fetch: runs outside the lock layer even after a transaction
   has opened on the session.  Readers that must respect 2PL go through
   [fetch_stmt]. *)
let fetch t line =
  match parse t line with
  | Error msg -> Error msg
  | Ok stmt -> result_of_answer (attempt (fun () -> fetch_body t stmt))

(* Which client owns transaction [id]?  Lets a cluster node translate
   [O_blocked] holder ids into the coordinator's global transaction ids. *)
let client_of_txn t id =
  match t.layer with
  | None -> None
  | Some l ->
    Hashtbl.fold
      (fun client cs acc ->
        match acc with Some _ -> acc | None -> if cs.txn = Some id then Some client else None)
      l.clients None
