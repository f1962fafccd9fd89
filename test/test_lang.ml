(* Tests for Dbproc.Lang: lexer, parser, binder and interpreter, including
   an end-to-end run of the paper's EMP/DEPT example under every
   strategy. *)

open Dbproc.Lang

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let err = function
  | Ok out -> Alcotest.failf "expected an error, got: %s" out
  | Error msg -> msg

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ---------------------------------------------------------------- Lexer *)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 6
    (List.length (Lexer.tokenize "retrieve ( EMP.all )"));
  match Lexer.tokenize "x = 42" with
  | [ Lexer.IDENT "x"; Lexer.EQ; Lexer.INT 42 ] -> ()
  | toks -> Alcotest.failf "unexpected tokens (%d)" (List.length toks)

let test_lexer_operators () =
  match Lexer.tokenize "< <= > >= != <> =" with
  | [ Lexer.LT; LE; GT; GE; NE; NE; EQ ] -> ()
  | _ -> Alcotest.fail "operator tokens wrong"

let test_lexer_literals () =
  (match Lexer.tokenize "-5 3.25 \"hi there\"" with
  | [ Lexer.INT (-5); FLOAT 3.25; STRING "hi there" ] -> ()
  | _ -> Alcotest.fail "literal tokens wrong");
  match Lexer.tokenize {|"quote \" inside\n\\"|} with
  | [ Lexer.STRING "quote \" inside\n\\" ] -> ()
  | _ -> Alcotest.fail "escape handling wrong"

let test_lexer_comments () =
  Alcotest.(check int) "comment stripped" 1
    (List.length (Lexer.tokenize "foo -- the rest is commentary = ( )"));
  Alcotest.(check int) "comment then newline" 2
    (List.length (Lexer.tokenize "foo -- gone\nbar"))

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Lexer.tokenize "\"oops");
       false
     with Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Lexer.tokenize "a @ b");
       false
     with Lexer.Lex_error _ -> true)

(* --------------------------------------------------------------- Parser *)

let test_parse_create () =
  match Parser.parse_command "create EMP (name = string, age = int)" with
  | Ast.Create { rel = "EMP"; attrs = [ ("name", Ast.T_string); ("age", Ast.T_int) ] } -> ()
  | _ -> Alcotest.fail "create parse wrong"

let test_parse_index () =
  (match Parser.parse_command "index R hash on k primary" with
  | Ast.Index { rel = "R"; kind = `Hash; attr = "k"; primary = true } -> ()
  | _ -> Alcotest.fail "index parse wrong");
  match Parser.parse_command "INDEX R BTREE ON k" with
  | Ast.Index { kind = `Btree; primary = false; _ } -> ()
  | _ -> Alcotest.fail "keywords should be case-insensitive"

let test_parse_retrieve_join () =
  match
    Parser.parse_command
      "retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and DEPT.floor = 1"
  with
  | Ast.Retrieve { targets = [ ("EMP", "all"); ("DEPT", "all") ]; quals = [ q1; q2 ] } ->
    (match q1.Ast.right with
    | Ast.Attr ("DEPT", "dname") -> ()
    | _ -> Alcotest.fail "join qual wrong");
    (match q2.Ast.right with
    | Ast.Lit (Ast.L_int 1) -> ()
    | _ -> Alcotest.fail "literal qual wrong")
  | _ -> Alcotest.fail "retrieve parse wrong"

let test_parse_define_exec () =
  (match Parser.parse_command "define proc p1 as retrieve (R.all) where R.k < 5" with
  | Ast.Define_proc { name = "p1"; body = { targets = [ ("R", "all") ]; quals = [ _ ] } } -> ()
  | _ -> Alcotest.fail "define parse wrong");
  match Parser.parse_command "exec p1" with
  | Ast.Exec "p1" -> ()
  | _ -> Alcotest.fail "exec parse wrong"

let test_parse_mutations () =
  (match Parser.parse_command "append to R (k = 1, v = \"x\")" with
  | Ast.Append { rel = "R"; values = [ ("k", Ast.L_int 1); ("v", Ast.L_string "x") ] } -> ()
  | _ -> Alcotest.fail "append parse wrong");
  (match Parser.parse_command "delete from R where R.k >= 3" with
  | Ast.Delete { rel = "R"; quals = [ { Ast.op = Ast.C_ge; _ } ] } -> ()
  | _ -> Alcotest.fail "delete parse wrong");
  match Parser.parse_command "replace R (v = 9) where R.k = 1" with
  | Ast.Replace { rel = "R"; values = [ ("v", Ast.L_int 9) ]; quals = [ _ ] } -> ()
  | _ -> Alcotest.fail "replace parse wrong"

let test_parse_txn_control () =
  (match Parser.parse_command "begin" with
  | Ast.Begin -> ()
  | _ -> Alcotest.fail "begin parse wrong");
  (match Parser.parse_command "begin transaction" with
  | Ast.Begin -> ()
  | _ -> Alcotest.fail "begin transaction parse wrong");
  (match Parser.parse_command "commit" with
  | Ast.Commit -> ()
  | _ -> Alcotest.fail "commit parse wrong");
  (match Parser.parse_command "abort" with
  | Ast.Abort -> ()
  | _ -> Alcotest.fail "abort parse wrong");
  match Parser.parse_command "rollback" with
  | Ast.Abort -> ()
  | _ -> Alcotest.fail "rollback parse wrong"

let test_parse_errors () =
  List.iter
    (fun input ->
      Alcotest.(check bool) input true
        (try
           ignore (Parser.parse_command input);
           false
         with Parser.Parse_error _ -> true))
    [
      "";
      "frobnicate R";
      "create R";
      "retrieve (R.)";
      "retrieve (R.all) where";
      "define proc as retrieve (R.all)";
      "exec p1 extra garbage";
      "show everything";
    ]

let test_parse_script () =
  let script = "-- header\ncreate R (k = int)\n\nexec p\n" in
  Alcotest.(check int) "two commands" 2 (List.length (Parser.parse_script script));
  Alcotest.(check bool) "line number in error" true
    (try
       ignore (Parser.parse_script "create R (k = int)\nbogus cmd\n");
       false
     with Parser.Parse_error msg -> contains msg "line 2")

(* ---------------------------------------------------- Interpreter *)

let setup_emp_dept () =
  let s = Interp.create () in
  let feed line = ignore (ok (Interp.exec_line s line)) in
  feed "create EMP (name = string, age = int, dept = string, salary = int, job = string)";
  feed "create DEPT (dname = string, floor = int)";
  feed "index EMP btree on age";
  feed "index DEPT hash on dname primary";
  feed "append to DEPT (dname = \"Shipping\", floor = 1)";
  feed "append to DEPT (dname = \"Accounting\", floor = 2)";
  feed "append to EMP (name = \"Alice\", age = 30, dept = \"Shipping\", salary = 40000, job = \"Clerk\")";
  feed "append to EMP (name = \"Bob\", age = 40, dept = \"Accounting\", salary = 50000, job = \"Programmer\")";
  feed "append to EMP (name = \"Carol\", age = 35, dept = \"Shipping\", salary = 45000, job = \"Programmer\")";
  s

let test_interp_create_and_show () =
  let s = setup_emp_dept () in
  let out = ok (Interp.exec_line s "show relations") in
  Alcotest.(check bool) "EMP listed" true (contains out "EMP");
  Alcotest.(check bool) "DEPT listed" true (contains out "DEPT");
  Alcotest.(check bool) "3 emp tuples" true (contains out "3 tuples")

let test_interp_retrieve_selection () =
  let s = setup_emp_dept () in
  let out = ok (Interp.exec_line s "retrieve (EMP.all) where EMP.age < 32") in
  Alcotest.(check bool) "Alice found" true (contains out "Alice");
  Alcotest.(check bool) "one tuple" true (contains out "(1 tuples)")

let test_interp_retrieve_join () =
  let s = setup_emp_dept () in
  let out =
    ok
      (Interp.exec_line s
         "retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and DEPT.floor = 1")
  in
  Alcotest.(check bool) "two first-floor employees" true (contains out "(2 tuples)")

let test_interp_join_order_insensitive () =
  (* The join qual may name the new relation on either side. *)
  let s = setup_emp_dept () in
  let out =
    ok
      (Interp.exec_line s
         "retrieve (EMP.all, DEPT.all) where DEPT.dname = EMP.dept and DEPT.floor = 1")
  in
  Alcotest.(check bool) "same result" true (contains out "(2 tuples)")

let paper_script strategy =
  Printf.sprintf
    "strategy %s\n\
     define proc progs1 as retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and \
     EMP.job = \"Programmer\" and DEPT.floor = 1\n\
     exec progs1\n\
     append to EMP (name = \"Susan\", age = 28, dept = \"Accounting\", salary = 30000, \
     job = \"Programmer\")\n\
     exec progs1\n\
     replace DEPT (floor = 1) where DEPT.dname = \"Accounting\"\n\
     exec progs1\n"
    strategy

let test_interp_paper_example_all_strategies () =
  List.iter
    (fun strategy ->
      let s = setup_emp_dept () in
      let out = ok (Interp.exec_script s (paper_script strategy)) in
      (* final exec must return Carol, Bob and Susan *)
      Alcotest.(check bool) (strategy ^ " 3 tuples at end") true (contains out "(3 tuples)");
      Alcotest.(check bool) (strategy ^ " Susan present") true (contains out "Susan"))
    [ "ar"; "ci"; "avm"; "rvm" ]

let test_interp_delete () =
  let s = setup_emp_dept () in
  ignore (ok (Interp.exec_line s "strategy avm"));
  ignore
    (ok
       (Interp.exec_line s
          "define proc shipfolk as retrieve (EMP.all) where EMP.dept = \"Shipping\""));
  let out = ok (Interp.exec_line s "exec shipfolk") in
  Alcotest.(check bool) "two shipping employees" true (contains out "(2 tuples)");
  ignore (ok (Interp.exec_line s "delete from EMP where EMP.name = \"Alice\""));
  let out = ok (Interp.exec_line s "exec shipfolk") in
  Alcotest.(check bool) "maintained through delete" true (contains out "(1 tuples)")

let test_interp_strategy_switch_preserves_procs () =
  let s = setup_emp_dept () in
  ignore
    (ok (Interp.exec_line s "define proc old as retrieve (EMP.all) where EMP.age >= 35"));
  let out = ok (Interp.exec_line s "strategy rvm") in
  Alcotest.(check bool) "re-registered" true (contains out "1 procedures re-registered");
  let out = ok (Interp.exec_line s "exec old") in
  Alcotest.(check bool) "still answers" true (contains out "(2 tuples)")

let test_interp_cost_accounting () =
  let s = setup_emp_dept () in
  ignore (ok (Interp.exec_line s "reset cost"));
  ignore (ok (Interp.exec_line s "retrieve (EMP.all) where EMP.age < 32"));
  let out = ok (Interp.exec_line s "show cost") in
  Alcotest.(check bool) "some reads charged" true (not (contains out "reads=0 "))

let test_interp_errors () =
  let s = setup_emp_dept () in
  let check_error line needle =
    let msg = err (Interp.exec_line s line) in
    Alcotest.(check bool) (line ^ " -> " ^ msg) true (contains msg needle)
  in
  check_error "retrieve (NOPE.all)" "unknown relation";
  check_error "retrieve (EMP.all) where EMP.bogus = 1" "no attribute";
  check_error "retrieve (EMP.all) where EMP.age = \"old\"" "is int";
  check_error "retrieve (EMP.all, DEPT.all) where EMP.age > 5" "no join condition";
  check_error "retrieve (EMP.all) where DEPT.floor = 1" "not in the target list";
  check_error "exec nothere" "unknown procedure";
  check_error "strategy quantum" "unknown strategy";
  check_error "append to EMP (name = \"X\")" "missing value";
  check_error "create EMP (k = int)" "already exists";
  check_error "retrieve (EMP.nope)" "no attribute"

let test_interp_projection () =
  let s = setup_emp_dept () in
  let out =
    ok
      (Interp.exec_line s
         "retrieve (EMP.name, DEPT.floor) where EMP.dept = DEPT.dname and DEPT.floor = 1")
  in
  Alcotest.(check bool) "names shown" true (contains out "Alice");
  Alcotest.(check bool) "narrow tuples" true (contains out "<\"Alice\", 1>");
  Alcotest.(check bool) "salary projected away" true (not (contains out "40000"))

let test_interp_projection_in_proc () =
  let s = setup_emp_dept () in
  ignore (ok (Interp.exec_line s "strategy avm"));
  ignore
    (ok
       (Interp.exec_line s
          "define proc names as retrieve (EMP.name) where EMP.job = \"Programmer\""));
  let out = ok (Interp.exec_line s "exec names") in
  Alcotest.(check bool) "two programmers" true (contains out "(2 tuples)");
  Alcotest.(check bool) "only names shown" true (not (contains out "Shipping"))

let test_interp_mixed_projection_and_all () =
  let s = setup_emp_dept () in
  let out =
    ok
      (Interp.exec_line s
         "retrieve (EMP.name, DEPT.all) where EMP.dept = DEPT.dname and EMP.age > 34")
  in
  Alcotest.(check bool) "both matched" true (contains out "(2 tuples)");
  Alcotest.(check bool) "dept fields shown" true (contains out "Shipping");
  Alcotest.(check bool) "ages projected away" true (not (contains out "35"))

let test_interp_explain () =
  let s = setup_emp_dept () in
  let out =
    ok
      (Interp.exec_line s
         "explain retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and DEPT.floor = 1")
  in
  Alcotest.(check bool) "plan shown" true (contains out "plan:");
  Alcotest.(check bool) "estimate shown" true (contains out "estimated:");
  Alcotest.(check bool) "measured shown" true (contains out "measured:")

let test_interp_session_roundtrip () =
  (* Dump a session to a script, replay it into a fresh session, and
     check the replay answers identically. *)
  let s = setup_emp_dept () in
  ignore (ok (Interp.exec_line s "strategy rvm"));
  ignore
    (ok
       (Interp.exec_line s
          "define proc progs as retrieve (EMP.name, DEPT.floor) where EMP.dept = DEPT.dname \
           and EMP.job = \"Programmer\" and DEPT.floor = 1"));
  let script = ok (Interp.exec_line s "show script") in
  Alcotest.(check bool) "creates relations" true (contains script "create EMP");
  Alcotest.(check bool) "recreates indexes" true (contains script "index DEPT hash on dname primary");
  Alcotest.(check bool) "keeps strategy" true (contains script "strategy rvm");
  Alcotest.(check bool) "keeps projection" true (contains script "retrieve (EMP.name, DEPT.floor)");
  let replay = Interp.create () in
  (match Interp.exec_script replay script with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "replay failed: %s" msg);
  let original = ok (Interp.exec_line s "exec progs") in
  let replayed = ok (Interp.exec_line replay "exec progs") in
  Alcotest.(check bool) "same result rows" true
    (contains original "Carol" = contains replayed "Carol"
    && contains original "(1 tuples)" && contains replayed "(1 tuples)")

(* A dump must carry every literal back unchanged: an integral float stays
   a float, and quotes, backslashes and UTF-8 bytes survive in strings. *)
let test_interp_dump_replays_literals () =
  let s = Interp.create () in
  List.iter
    (fun line -> ignore (ok (Interp.exec_line s line)))
    [
      "create R (k = int, x = float, s = string)";
      "append to R (k = 1, x = 3.0, s = \"caf\xc3\xa9\")";
      {|append to R (k = 2, x = 4.0, s = "q\"b\\s")|};
      "define proc P as retrieve (R.all) where R.x >= 3.0";
    ];
  let replay = Interp.create () in
  (match Interp.exec_script replay (ok (Interp.exec_line s "show script")) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "replay failed: %s" msg);
  let rows session line =
    match Interp.fetch session line with
    | Ok (tuples, _) ->
      List.sort compare (List.map (Format.asprintf "%a" Dbproc.Tuple.pp) tuples)
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  List.iter
    (fun line -> Alcotest.(check (list string)) line (rows s line) (rows replay line))
    [ "retrieve (R.all)"; "exec P" ]

let test_interp_save_file () =
  let s = setup_emp_dept () in
  let file = Filename.temp_file "dbproc" ".dbp" in
  let out = ok (Interp.exec_line s (Printf.sprintf "save %S" file)) in
  Alcotest.(check bool) "reports save" true (contains out "saved session");
  let contents = In_channel.with_open_text file In_channel.input_all in
  (* a path that cannot be written is an error, not an escaped exception *)
  let unwritable = Filename.concat file "x.dbp" in
  let msg = err (Interp.exec_line s (Printf.sprintf "save %S" unwritable)) in
  Sys.remove file;
  Alcotest.(check bool) "file holds the script" true (contains contents "create EMP");
  Alcotest.(check bool) "unwritable path is an error" true (contains msg unwritable)

let test_interp_script_error_line () =
  let s = setup_emp_dept () in
  let msg = err (Interp.exec_script s "show relations\nexec nope\n") in
  Alcotest.(check bool) "line 2: prefix" true
    (String.length msg > 8 && String.sub msg 0 8 = "line 2: ");
  (* blank and comment lines still count toward the physical line number *)
  let s2 = setup_emp_dept () in
  let msg2 =
    err (Interp.exec_script s2 "-- header comment\n\nshow relations\nexec nope\n")
  in
  Alcotest.(check bool) "line 4: prefix after blanks/comments" true
    (String.length msg2 > 8 && String.sub msg2 0 8 = "line 4: ")

(* --------------------------------------------------------- Transactions *)

let setup_txn () =
  let s = Interp.create () in
  ignore (ok (Interp.exec_line s "create T (k = int, v = int)"));
  ignore (ok (Interp.exec_line s "append to T (k = 1, v = 10)"));
  ignore (ok (Interp.exec_line s "append to T (k = 2, v = 20)"));
  s

let test_txn_abort_rolls_back () =
  let s = setup_txn () in
  let before = ok (Interp.exec_line s "retrieve (T.k, T.v) where T.k > 0") in
  ignore (ok (Interp.exec_line s "begin"));
  Alcotest.(check bool) "in transaction" true (Interp.in_transaction s ~client:0);
  ignore (ok (Interp.exec_line s "replace T (v = 99) where T.k = 1"));
  ignore (ok (Interp.exec_line s "append to T (k = 3, v = 30)"));
  ignore (ok (Interp.exec_line s "delete from T where T.k = 2"));
  let msg = ok (Interp.exec_line s "abort") in
  Alcotest.(check bool) "abort reports undo records" true (contains msg "undo");
  Alcotest.(check bool) "transaction closed" false (Interp.in_transaction s ~client:0);
  Alcotest.(check string) "all three mutations rolled back" before
    (ok (Interp.exec_line s "retrieve (T.k, T.v) where T.k > 0"))

let test_txn_commit_persists () =
  let s = setup_txn () in
  ignore (ok (Interp.exec_line s "begin transaction"));
  ignore (ok (Interp.exec_line s "replace T (v = 99) where T.k = 1"));
  ignore (ok (Interp.exec_line s "commit"));
  Alcotest.(check bool) "transaction closed" false (Interp.in_transaction s ~client:0);
  let rows = ok (Interp.exec_line s "retrieve (T.v) where T.k = 1") in
  Alcotest.(check bool) "committed write visible" true (contains rows "99")

let test_txn_control_errors () =
  let s = setup_txn () in
  let m = err (Interp.exec_line s "commit") in
  Alcotest.(check bool) "commit outside txn" true (contains m "no open transaction");
  ignore (ok (Interp.exec_line s "begin"));
  let m2 = err (Interp.exec_line s "begin") in
  Alcotest.(check bool) "nested begin rejected" true (contains m2 "already");
  ignore (ok (Interp.exec_line s "abort"))

let test_txn_two_clients_block_and_deadlock () =
  let s = setup_txn () in
  ignore (ok (Interp.exec_line s "create T2 (k = int, v = int)"));
  ignore (ok (Interp.exec_line s "append to T2 (k = 1, v = 20)"));
  let okc client line =
    match Interp.exec_client s ~client line with
    | Interp.O_ok out -> out
    | Interp.O_error m -> Alcotest.failf "client %d: %S error: %s" client line m
    | Interp.O_blocked _ -> Alcotest.failf "client %d: %S blocked" client line
    | Interp.O_aborted m -> Alcotest.failf "client %d: %S aborted: %s" client line m
  in
  ignore (okc 1 "begin");
  ignore (okc 2 "begin");
  ignore (okc 1 "replace T (v = 111) where T.k = 1");
  ignore (okc 2 "replace T2 (v = 222) where T2.k = 1");
  (* crosswise: client 1 blocks on 2's relation without executing *)
  (match Interp.exec_client s ~client:1 "replace T2 (v = 333) where T2.k = 1" with
  | Interp.O_blocked _ -> ()
  | _ -> Alcotest.fail "client 1 should block on client 2");
  (* client 2 closes the cycle and, being younger, is the victim *)
  (match Interp.exec_client s ~client:2 "replace T (v = 444) where T.k = 1" with
  | Interp.O_aborted m ->
    Alcotest.(check bool) "victim message" true (contains m "deadlock")
  | _ -> Alcotest.fail "client 2 should be the deadlock victim");
  Alcotest.(check bool) "victim's txn closed" false (Interp.in_transaction s ~client:2);
  (* the parked statement is an idempotent retry: run it verbatim now *)
  ignore (okc 1 "replace T2 (v = 333) where T2.k = 1");
  ignore (okc 1 "commit");
  let rows = okc 0 "retrieve (T.v, T2.v) where T.k = T2.k" in
  Alcotest.(check bool) "survivor's writes committed" true
    (contains rows "111" && contains rows "333");
  Alcotest.(check bool) "victim's write rolled back" false (contains rows "222");
  (* disconnect cleanup is a no-op once the transaction is gone *)
  Alcotest.(check bool) "abort_client finds nothing" false (Interp.abort_client s ~client:2)

(* ------------------------------------------- printer/parser roundtrip *)

(* Names stay identifiers that are not keywords.  Literals cover every
   int, every float the lexer can read (integral ones, -0.0, 1e16 and the
   infinities, which 1e999 lexes to; not nan) and any byte string. *)
let command_gen =
  let open QCheck.Gen in
  let name = oneofl [ "r1"; "r2"; "emp"; "dept"; "t_3"; "aa" ] in
  let attr = oneofl [ "k"; "v"; "sel"; "dname"; "floor_no" ] in
  let text =
    oneof
      [
        string_size (int_bound 12);
        oneofl [ ""; "\""; "\\"; "\n"; "caf\xc3\xa9"; "q\"b\\s\n"; "a  b" ];
      ]
  in
  let literal =
    oneof
      [
        map (fun i -> Ast.L_int i) int;
        map (fun f -> Ast.L_float (if Float.is_nan f then 0.0 else f)) float;
        map (fun i -> Ast.L_float (float_of_int i)) (int_range (-50) 50);
        map
          (fun f -> Ast.L_float f)
          (oneofl [ -0.0; 1e16; 0.1; 1e-5; Float.infinity; Float.neg_infinity ]);
        map (fun s -> Ast.L_string s) text;
      ]
  in
  let comparison =
    oneofl [ Ast.C_eq; Ast.C_ne; Ast.C_lt; Ast.C_le; Ast.C_gt; Ast.C_ge ]
  in
  let qual =
    let* l_rel = name and* l_attr = attr and* op = comparison in
    let* right =
      oneof
        [
          map (fun l -> Ast.Lit l) literal;
          (let* r = name and* a = attr in
           return (Ast.Attr (r, a)));
        ]
    in
    return { Ast.left = (l_rel, l_attr); op; right }
  in
  let retrieve =
    let* targets =
      list_size (int_range 1 3)
        (let* r = name and* a = oneof [ return "all"; attr ] in
         return (r, a))
    in
    let* quals = list_size (int_range 0 3) qual in
    return { Ast.targets; quals }
  in
  let assignments =
    list_size (int_range 1 3)
      (let* a = attr and* l = literal in
       return (a, l))
  in
  oneof
    [
      (let* rel = name in
       let* attrs =
         list_size (int_range 1 3)
           (let* a = attr and* ty = oneofl [ Ast.T_int; Ast.T_float; Ast.T_string ] in
            return (a, ty))
       in
       return (Ast.Create { rel; attrs }));
      (let* rel = name and* kind = oneofl [ `Btree; `Hash ] and* a = attr and* primary = bool in
       return (Ast.Index { rel; kind; attr = a; primary = (primary && kind = `Hash) }));
      (let* rel = name and* values = assignments in
       return (Ast.Append { rel; values }));
      (let* rel = name and* quals = list_size (int_range 0 2) qual in
       return (Ast.Delete { rel; quals }));
      (let* rel = name and* values = assignments and* quals = list_size (int_range 0 2) qual in
       return (Ast.Replace { rel; values; quals }));
      map (fun r -> Ast.Retrieve r) retrieve;
      map (fun r -> Ast.Explain r) retrieve;
      (let* n = name and* body = retrieve in
       return (Ast.Define_proc { name = n; body }));
      map (fun n -> Ast.Exec n) name;
      map (fun s -> Ast.Strategy s) (oneofl [ "ar"; "ci"; "avm"; "rvm" ]);
      oneofl
        [
          Ast.Show `Relations; Ast.Show `Procs; Ast.Show `Cost; Ast.Show `Network;
          Ast.Show `Script; Ast.Reset_cost; Ast.Help;
        ];
      map (fun f -> Ast.Save f) text;
      oneofl [ Ast.Begin; Ast.Commit; Ast.Abort ];
    ]

let parser_roundtrip_property =
  QCheck.Test.make ~name:"printed commands parse back to themselves" ~count:300
    (QCheck.make ~print:Ast.to_string command_gen)
    (fun cmd -> Parser.parse_command (Ast.to_string cmd) = cmd)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "literals" `Quick test_lexer_literals;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "create" `Quick test_parse_create;
          Alcotest.test_case "index" `Quick test_parse_index;
          Alcotest.test_case "retrieve with join" `Quick test_parse_retrieve_join;
          Alcotest.test_case "define/exec" `Quick test_parse_define_exec;
          Alcotest.test_case "mutations" `Quick test_parse_mutations;
          Alcotest.test_case "transaction control" `Quick test_parse_txn_control;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "script" `Quick test_parse_script;
          QCheck_alcotest.to_alcotest parser_roundtrip_property;
        ] );
      ( "interp",
        [
          Alcotest.test_case "create/show" `Quick test_interp_create_and_show;
          Alcotest.test_case "retrieve selection" `Quick test_interp_retrieve_selection;
          Alcotest.test_case "retrieve join" `Quick test_interp_retrieve_join;
          Alcotest.test_case "join order insensitive" `Quick test_interp_join_order_insensitive;
          Alcotest.test_case "paper example, all strategies" `Quick
            test_interp_paper_example_all_strategies;
          Alcotest.test_case "delete maintains procedures" `Quick test_interp_delete;
          Alcotest.test_case "strategy switch preserves procs" `Quick
            test_interp_strategy_switch_preserves_procs;
          Alcotest.test_case "cost accounting" `Quick test_interp_cost_accounting;
          Alcotest.test_case "semantic errors" `Quick test_interp_errors;
          Alcotest.test_case "projection" `Quick test_interp_projection;
          Alcotest.test_case "projection in proc" `Quick test_interp_projection_in_proc;
          Alcotest.test_case "mixed projection/.all" `Quick test_interp_mixed_projection_and_all;
          Alcotest.test_case "explain" `Quick test_interp_explain;
          Alcotest.test_case "session roundtrip" `Quick test_interp_session_roundtrip;
          Alcotest.test_case "save to file" `Quick test_interp_save_file;
          Alcotest.test_case "session dump replays every literal" `Quick
            test_interp_dump_replays_literals;
          Alcotest.test_case "script error line numbers" `Quick test_interp_script_error_line;
        ] );
      ( "txn",
        [
          Alcotest.test_case "abort rolls back" `Quick test_txn_abort_rolls_back;
          Alcotest.test_case "commit persists" `Quick test_txn_commit_persists;
          Alcotest.test_case "control errors" `Quick test_txn_control_errors;
          Alcotest.test_case "two clients: block, deadlock, victim" `Quick
            test_txn_two_clients_block_and_deadlock;
        ] );
    ]
