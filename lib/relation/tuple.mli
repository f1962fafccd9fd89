(** Tuples: flat arrays of values matching a schema positionally. *)

type t

val create : Value.t list -> t

val arity : t -> int
val get : t -> int -> Value.t

val unsafe_get : t -> int -> Value.t
(** {!get} without the bounds check — for the batch executor's inner
    loops, where the position was validated against the schema once at
    plan-compile time. *)

val unsafe_of_array : Value.t array -> t
(** A tuple over the array itself, not a copy.  The caller must never
    mutate the array afterwards; used by the batch executor when
    materializing row views of freshly built columns. *)

val field : Schema.t -> string -> t -> Value.t
(** Positional lookup by attribute name.  @raise Not_found if absent. *)

val concat : t -> t -> t
(** Join concatenation. *)

val matches_schema : Schema.t -> t -> bool
(** Arity and per-position types agree. *)

val to_list : t -> Value.t list
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
