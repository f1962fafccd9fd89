(** The traced run's in-memory span log.

    Spans are recorded by the benchmark around its calls into each layer's
    public functions.  Each row holds a name, start and stop on the
    monotonic clock (ns), the span that was open when it started, and the
    operation it belongs to.  A disabled log records nothing and
    {!with_span} is a plain call, so the untraced run pays one closure per
    call and no clock reads. *)

val now : unit -> int
(** Monotonic clock, nanoseconds. *)

type t

val create : enabled:bool -> capacity:int -> t
(** [capacity] rows are allocated up front (when enabled); the log grows
    if the run records more. *)

val enabled : t -> bool

val intern : t -> string -> int
(** A span name's id, the same for every call with the same name. *)

val set_op : t -> int -> unit
(** The operation id stamped on spans opened from now on. *)

val with_span : t -> int -> (unit -> 'a) -> 'a
(** Time a call as a span whose parent is the innermost span open. *)

val record : t -> int -> start:int -> stop:int -> parent:int -> int
(** Log a span timed elsewhere — another process on the same monotonic
    clock, or one of several requests in flight at once — under an
    explicit parent row (-1 for a root).  Returns its row, or -1 when
    disabled. *)

val by_name : t -> string -> float array
(** Self time (span minus the time its child spans cover) of every span
    with the given name, in microseconds. *)

val coverage : t -> wall_ns:int -> float
(** The share of [wall_ns] during which at least one root span (a span
    with no parent) was open. *)

val write_tsv : t -> string -> unit
(** Every span as one tab-separated row: name, start, stop, parent row
    (-1 for a root) and operation id. *)
