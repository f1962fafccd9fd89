(** Abstract syntax of the QUEL-flavored command language.

    The paper's database procedures are stored QUEL queries (the examples
    in its Section 2 are literal [define view ... where ...] statements);
    this language lets a user build the same schemas, procedures and
    workloads interactively or from scripts.  Grammar sketch:

    {v
create EMP (name = string, age = int, dept = string)
index EMP btree on age
index DEPT hash on dname primary
append to EMP (name = "Susan", age = 28, dept = "Accounting")
delete from EMP where EMP.age > 60
replace EMP (dept = "Shipping") where EMP.name = "Susan"
retrieve (EMP.all) where EMP.age < 30
retrieve (EMP.all, DEPT.all) where EMP.dept = DEPT.dname and DEPT.floor = 1
define proc progs1 as retrieve (EMP.all, DEPT.all)
  where EMP.dept = DEPT.dname and EMP.job = "Programmer" and DEPT.floor = 1
exec progs1
strategy rvm
show relations | show procs | show cost
reset cost
begin [transaction]
commit
abort | rollback
v} *)

type ty = T_int | T_float | T_string

type literal = L_int of int | L_float of float | L_string of string

type comparison = C_eq | C_ne | C_lt | C_le | C_gt | C_ge

type operand =
  | Attr of string * string  (** relation.attribute *)
  | Lit of literal

type qual = { left : string * string; op : comparison; right : operand }
(** [rel.attr op operand] — the left side is always an attribute. *)

type retrieve = {
  targets : (string * string) list;
      (** (relation, attribute) projections in order; attribute ["all"]
          projects the whole tuple.  Join order follows first mention. *)
  quals : qual list;  (** conjunction *)
}

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
  | Begin  (** open an explicit transaction ([begin \[transaction\]]) *)
  | Commit  (** commit it, releasing 2PL locks *)
  | Abort  (** roll it back ([abort] or [rollback]) *)

(** What a statement does, for every layer that routes, locks, logs or
    refuses it.  The classifier is total: a new command must be given a
    class before anything compiles. *)
type stmt_class =
  | Read  (** [retrieve], [exec]: return tuples *)
  | Write  (** [append], [delete], [replace] *)
  | Ddl  (** [create], [index], [define proc], [strategy] *)
  | Introspection
      (** [explain], [show], [help], [reset cost]: describe the session
          or reset its counters, change no data *)
  | Session_file  (** [save]: writes a file where the statement runs *)
  | Txn_control  (** [begin], [commit], [abort] *)

val classify : command -> stmt_class

val to_string : command -> string
(** The one statement printer, and the lexer's inverse:
    [Parser.parse_command (to_string c) = c] for every command whose
    names are identifiers.  An int prints in decimal.  A float always
    carries a dot or an exponent, so [3.0] stays a float, and the
    infinities print as [1e999] and [-1e999].  A string escapes the
    double quote, the backslash and newline with a backslash (newline as
    [\n]) and writes every other byte raw, so no printed statement spans
    two lines.  The session dump and the statements a cluster
    coordinator sends its nodes are printed here. *)

val value_of_literal : literal -> Dbproc_relation.Value.t
val literal_of_value : Dbproc_relation.Value.t -> literal

val flip_comparison : comparison -> comparison
(** Mirror a comparison across its operands: [lit op attr] is the same
    predicate as [attr (flip_comparison op) lit].  Used to canonicalize
    mirrored quals ([where 5 = r.k]) at parse time. *)
