(** The Rete discrimination network (after Forgy [For82], as used for view
    maintenance in [Han87b]).

    After an update transaction, tokens representing inserted ([+]) and
    deleted ([−]) tuples enter at the root and propagate:

    - the root broadcasts to the t-const nodes of the token's relation;
    - a t-const node screens the token against its restriction.  When the
      restriction is a single-attribute interval, discrimination is
      {e indexed}: the interval cover check is free and [C1] is charged
      only for covered tokens (rule indexing); otherwise every token
      charges [C1];
    - α- and β-memories apply the token logically at once and batch their
      stored-page refresh until the end of the transaction;
    - an and node activated from one side probes the opposite memory and
      emits a concatenated token per match, tagged like the input.

    {!apply_delta} runs one whole transaction: deletes propagate first,
    then inserts, then every memory flushes its page batch, all inside one
    page-touch dedup scope. *)

open Dbproc_relation

type sign = Plus | Minus

type token = { sign : sign; tuple : Tuple.t }

type mem_node
(** An α- or β-memory wired into the network. *)

type t

val create : io:Dbproc_storage.Io.t -> record_bytes:int -> unit -> t
val io : t -> Dbproc_storage.Io.t

(** {2 Construction} (used by {!Builder}; exposed for tests) *)

val add_tconst :
  t ->
  rel:string ->
  pred:Predicate.t ->
  interval:(int * Value.t Dbproc_index.Btree.bound * Value.t Dbproc_index.Btree.bound) option ->
  name:string ->
  mem_node
(** Add a t-const node feeding a fresh α-memory.  [interval] enables
    indexed discrimination ([(attr, lo, hi)] covering exactly the tuples
    that satisfy [pred]'s terms on [attr]). *)

val add_join :
  t -> left:mem_node -> right:mem_node -> on:Predicate.join_term -> name:string -> mem_node
(** Add an and node over two memories, feeding a fresh β-memory.  Probe
    indexes are installed on both inputs for equality joins. *)

val memory : mem_node -> Memory.t
(** The underlying memory (read it as a procedure result, inspect it in
    tests). *)

(** {2 Operation} *)

val apply_delta : t -> rel:string -> inserted:Tuple.t list -> deleted:Tuple.t list -> unit
(** Process one update transaction against base relation [rel]. *)

val memories : t -> Memory.t list
(** Every memory in the network, construction order. *)

val join_count : t -> int

val to_dot : t -> string
(** The network as a Graphviz digraph, shaped like the paper's Figures 1,
    3 and 16: root at the top, t-const nodes as boxes, α/β-memories as
    ellipses annotated with their current cardinality, and-nodes as
    diamonds.  Shared memories naturally appear with several outgoing
    edges. *)
