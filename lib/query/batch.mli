(** Tuple batches: the unit of work of the compiled executor.

    A batch holds up to ~1K tuples.  The row array is the primary
    representation — scans and probes pass the stored tuples through by
    pointer, so producing result rows costs no value copies — and a flat
    [Value.t array] per attribute materializes lazily on first columnar
    access (cached on the batch; a scan join sweeps the key column of its
    inner batch once per execution).  Predicate evaluation sweeps a
    selection vector with one comparison compiled outside the loop
    instead of dispatching a closure chain per tuple.

    Batches carry no cost accounting of their own — the compiled
    pipeline ({!Compiled}) charges pages and screens in bulk with
    exactly the counts the tuple-at-a-time interpreter charges. *)

open Dbproc_relation

type t

val empty : arity:int -> t
val length : t -> int
val arity : t -> int

val col : t -> int -> Value.t array
(** The flat column for one attribute position, materialized on first
    access and cached.  Shared, not copied: callers must not mutate it. *)

val unsafe_of_rows : arity:int -> Tuple.t array -> t
(** Batch every tuple of the array, taking ownership: the caller must
    not mutate the array afterwards. *)

val unsafe_of_rows_n : arity:int -> Tuple.t array -> int -> t
(** [unsafe_of_rows_n ~arity rows n] takes ownership of [rows] and
    batches its first [n] tuples without trimming — the producer's
    compaction buffer becomes the batch as-is. *)

val of_tuples : arity:int -> Tuple.t list -> t

val row : t -> int -> Tuple.t
(** The stored row — shared, not copied. *)

val to_tuples : t -> Tuple.t list
(** All rows, in row order (pointer-sharing, no value copies). *)

val prepend_tuples : t -> Tuple.t list -> Tuple.t list
(** [prepend_tuples b tail] is [to_tuples b @ tail], with one cons per
    row — the sink primitive for stitching emitted batches into the
    final result list. *)

val filter : Predicate.term array -> t -> t
(** Rows satisfying the conjunction, in order.  Swept term by term over
    a selection vector with comparisons compiled outside the loop;
    returns the input batch unchanged when every row survives. *)

(** Accumulates join output rows (capacity-doubling). *)
module Builder : sig
  type batch := t
  type t

  val create : arity:int -> t
  val length : t -> int

  val append_probe : t -> batch -> int -> Tuple.t -> unit
  (** [append_probe b outer i inner] appends outer row [i] concatenated
      with the fetched inner tuple. *)

  val append_pair : t -> batch -> int -> batch -> int -> unit
  (** [append_pair b outer i inner j] appends outer row [i] concatenated
      with inner row [j]. *)

  val to_batch : t -> batch
end
