(** Predicates: conjunctions of simple restriction terms
    ([attribute op constant] — the paper's t-const conditions) and join
    terms ([left.attribute op right.attribute]).

    Evaluation here is pure; the query executor and Rete network charge
    [C1] per screened record themselves, so cost accounting stays in one
    place. *)

type op = Lt | Le | Eq | Ne | Ge | Gt

val eval_op : op -> Value.t -> Value.t -> bool
val negate_op : op -> op
val pp_op : Format.formatter -> op -> unit

type term = { attr : int; op : op; value : Value.t }
(** [attr] is a positional index into the tuple's schema. *)

val term : attr:int -> op:op -> value:Value.t -> term

type t = term list
(** Conjunction; the empty list is [true]. *)

val always_true : t
val eval : t -> Tuple.t -> bool

val compile_term : term -> Tuple.t -> bool
(** A term compiled, once, into a closure specialized on the constant's
    constructor and the operator — the batch executor's per-row test.
    The attribute position must be valid for every tuple evaluated (the
    field load is unchecked). *)

val compile : t -> Tuple.t -> bool
(** The conjunction compiled term by term; [always_true] compiles to a
    constant closure. *)

val equal : t -> t -> bool
(** Structural equality after sorting terms — used to detect shared
    subexpressions when building Rete networks. *)

type join_term = { left_attr : int; op : op; right_attr : int }
(** [left_attr] indexes the left input's schema, [right_attr] the
    right's. *)

val join_term : left_attr:int -> op:op -> right_attr:int -> join_term
val eval_join : join_term -> left:Tuple.t -> right:Tuple.t -> bool

val pp : Schema.t -> Format.formatter -> t -> unit
