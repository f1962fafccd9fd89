type ty = T_int | T_float | T_string

type literal = L_int of int | L_float of float | L_string of string

type comparison = C_eq | C_ne | C_lt | C_le | C_gt | C_ge

type operand = Attr of string * string | Lit of literal

type qual = { left : string * string; op : comparison; right : operand }

type retrieve = { targets : (string * string) list; quals : qual list }

type command =
  | Create of { rel : string; attrs : (string * ty) list }
  | Index of { rel : string; kind : [ `Btree | `Hash ]; attr : string; primary : bool }
  | Append of { rel : string; values : (string * literal) list }
  | Delete of { rel : string; quals : qual list }
  | Replace of { rel : string; values : (string * literal) list; quals : qual list }
  | Retrieve of retrieve
  | Explain of retrieve
  | Define_proc of { name : string; body : retrieve }
  | Exec of string
  | Strategy of string
  | Save of string
  | Show of [ `Relations | `Procs | `Cost | `Network | `Script ]
  | Reset_cost
  | Help
  | Begin
  | Commit
  | Abort

type stmt_class = Read | Write | Ddl | Introspection | Session_file | Txn_control

let classify = function
  | Retrieve _ | Exec _ -> Read
  | Append _ | Delete _ | Replace _ -> Write
  | Create _ | Index _ | Define_proc _ | Strategy _ -> Ddl
  | Explain _ | Show _ | Help | Reset_cost -> Introspection
  | Save _ -> Session_file
  | Begin | Commit | Abort -> Txn_control

module Value = Dbproc_relation.Value

let value_of_literal = function
  | L_int i -> Value.Int i
  | L_float f -> Value.Float f
  | L_string s -> Value.Str s

let literal_of_value = function
  | Value.Int i -> L_int i
  | Value.Float f -> L_float f
  | Value.Str s -> L_string s

(* The printer is the lexer's inverse.  A float always carries a '.' or
   an exponent, or it would re-lex as an int; an infinity prints as a
   literal that overflows back to it. *)
let float_text f =
  if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* A string escapes the quote, the backslash and newline — scripts and
   WAL records are line-oriented — and writes every other byte raw. *)
let quoted s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let pp_literal ppf = function
  | L_int i -> Format.fprintf ppf "%d" i
  | L_float f -> Format.pp_print_string ppf (float_text f)
  | L_string s -> Format.pp_print_string ppf (quoted s)

(* Mirror a comparison across its operands: [lit op attr] is the same
   predicate as [attr (flip op) lit]. *)
let flip_comparison = function
  | C_eq -> C_eq
  | C_ne -> C_ne
  | C_lt -> C_gt
  | C_le -> C_ge
  | C_gt -> C_lt
  | C_ge -> C_le

let comparison_symbol = function
  | C_eq -> "="
  | C_ne -> "!="
  | C_lt -> "<"
  | C_le -> "<="
  | C_gt -> ">"
  | C_ge -> ">="

let pp_ty ppf = function
  | T_int -> Format.pp_print_string ppf "int"
  | T_float -> Format.pp_print_string ppf "float"
  | T_string -> Format.pp_print_string ppf "string"

let pp_operand ppf = function
  | Attr (r, a) -> Format.fprintf ppf "%s.%s" r a
  | Lit l -> pp_literal ppf l

let pp_qual ppf q =
  Format.fprintf ppf "%s.%s %s %a" (fst q.left) (snd q.left) (comparison_symbol q.op)
    pp_operand q.right

let pp_quals ppf = function
  | [] -> ()
  | quals ->
    Format.fprintf ppf " where %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " and ")
         pp_qual)
      quals

let pp_retrieve ppf r =
  Format.fprintf ppf "retrieve (%s)%a"
    (String.concat ", " (List.map (fun (rel, attr) -> rel ^ "." ^ attr) r.targets))
    pp_quals r.quals

let pp_command ppf = function
  | Create { rel; attrs } ->
    Format.fprintf ppf "create %s (%a)" rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (name, ty) -> Format.fprintf ppf "%s = %a" name pp_ty ty))
      attrs
  | Index { rel; kind; attr; primary } ->
    Format.fprintf ppf "index %s %s on %s%s" rel
      (match kind with `Btree -> "btree" | `Hash -> "hash")
      attr
      (if primary then " primary" else "")
  | Append { rel; values } ->
    Format.fprintf ppf "append to %s (%a)" rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (name, l) -> Format.fprintf ppf "%s = %a" name pp_literal l))
      values
  | Delete { rel; quals } -> Format.fprintf ppf "delete from %s%a" rel pp_quals quals
  | Replace { rel; values; quals } ->
    Format.fprintf ppf "replace %s (%a)%a" rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (name, l) -> Format.fprintf ppf "%s = %a" name pp_literal l))
      values pp_quals quals
  | Retrieve r -> pp_retrieve ppf r
  | Explain r -> Format.fprintf ppf "explain %a" pp_retrieve r
  | Define_proc { name; body } ->
    Format.fprintf ppf "define proc %s as %a" name pp_retrieve body
  | Exec name -> Format.fprintf ppf "exec %s" name
  | Strategy s -> Format.fprintf ppf "strategy %s" s
  | Save file -> Format.fprintf ppf "save %s" (quoted file)
  | Show `Relations -> Format.pp_print_string ppf "show relations"
  | Show `Procs -> Format.pp_print_string ppf "show procs"
  | Show `Cost -> Format.pp_print_string ppf "show cost"
  | Show `Network -> Format.pp_print_string ppf "show network"
  | Show `Script -> Format.pp_print_string ppf "show script"
  | Reset_cost -> Format.pp_print_string ppf "reset cost"
  | Help -> Format.pp_print_string ppf "help"
  | Begin -> Format.pp_print_string ppf "begin transaction"
  | Commit -> Format.pp_print_string ppf "commit"
  | Abort -> Format.pp_print_string ppf "abort"

let to_string cmd = Format.asprintf "%a" pp_command cmd
