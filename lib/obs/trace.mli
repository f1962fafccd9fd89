(** Lightweight span tracing over the simulated clock.

    A span is a named interval with nested children.  Timestamps come from
    a per-tracer installed clock — the workload driver installs
    [fun () -> Cost.total_ms charges cost], so span durations are priced
    simulated milliseconds, directly comparable to the paper's formulas.

    A tracer is a first-class {!t} carried in an engine context
    ({!Ctx.t}); two contexts trace independently with their own clocks.
    Tracing is off by default and every entry point is a no-op while
    disabled, so instrumented hot paths (procedure accesses, Rete
    propagation) cost one flag test when not being observed.  Completed
    root spans land in a bounded ring buffer; {!render} draws the most
    recent ones as an ASCII tree. *)

exception Unbalanced of string
(** Raised by {!end_span} when no span is open. *)

type span = {
  name : string;
  start_ms : float;
  mutable stop_ms : float;
  mutable children : span list;
}

type t
(** One tracer instance: clock, enable flag, open-span stack and the
    completed-root ring buffer. *)

val create : ?capacity:int -> unit -> t
(** A fresh tracer, disabled, with a zero clock and the given ring-buffer
    capacity (default 64). *)

val set_clock : t -> (unit -> float) -> unit

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Toggling discards any spans still open (they can no longer balance). *)

val set_capacity : t -> int -> unit
(** Ring-buffer size for completed root spans. *)

val reset : t -> unit
(** Drop all completed and open spans. *)

val begin_span : t -> string -> unit
val end_span : t -> unit

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Balanced even on exceptions. *)

val with_span_f : t -> (unit -> string) -> (unit -> 'a) -> 'a
(** Like {!with_span} but the name is computed only if tracing is on. *)

val open_depth : t -> int

val root_spans : t -> span list
(** Completed root spans, oldest first, at most the ring capacity. *)

val duration_ms : span -> float

val render : ?limit:int -> t -> string
(** The most recent [limit] (default 20) root spans as an indented ASCII
    tree with start/end/duration columns. *)
