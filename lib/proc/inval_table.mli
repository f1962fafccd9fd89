(** Recoverable procedure-validity state — the three recording schemes of
    the paper's Section 3.

    When an update invalidates a cached procedure value, the fact must
    survive a crash (serving a stale cached value after recovery would be
    incorrect).  The paper considers:

    - {b Page_flag}: read the first page of the stored object, set a flag,
      write it back — [2 C2] (60 ms) per invalidation;
    - {b Nvram}: a validity table in battery-backed memory — essentially
      free per invalidation;
    - {b Wal}: a conventional write-ahead log of (procedure, valid?)
      transitions, forced per update transaction and periodically
      checkpointed — an amortized fraction of one page write per
      invalidation plus checkpoint I/O.

    Driving a workload against each scheme and dividing the charged cost
    by {!invalidations_recorded} yields the paper's [C_inval] parameter
    made concrete (the bench's ext-wal experiment does exactly this);
    {!crash_and_recover} validates recoverability. *)

type scheme =
  | Page_flag
  | Nvram
  | Wal_logged of { checkpoint_every : int  (** transitions between checkpoints *) }

val scheme_name : scheme -> string

type t

val create : io:Dbproc_storage.Io.t -> scheme:scheme -> procs:int -> t
(** All [procs] procedures start valid.  [procs] may be 0; grow the table
    with {!ensure_capacity} as procedures register. *)

val scheme : t -> scheme

val ensure_capacity : t -> int -> unit
(** [ensure_capacity t n] grows the table to cover procedure ids below
    [n]; new entries start valid on every medium.  Pure metadata, no I/O
    charged.  No-op when the table is already large enough. *)

val is_valid : t -> int -> bool

val set_invalid : t -> int -> unit
(** Record an invalidation, charging per the scheme.  Idempotent (an
    already-invalid procedure charges nothing). *)

val set_valid : t -> int -> unit
(** Record revalidation (after a recompute), charged like
    {!set_invalid}. *)

val end_of_transaction : t -> unit
(** Commit boundary: the WAL scheme forces its tail page here (a
    transaction's invalidations must be durable before it commits). *)

val crash_volatile : t -> int
(** Tear the volatile tail off the WAL (see {!Dbproc_storage.Wal.crash}),
    returning how many logged transitions were lost; 0 for the page-flag
    and NVRAM schemes, whose records are durable the moment they are made.
    Call this before {!crash_and_recover} when simulating a real crash —
    without it the recovered table is rebuilt as if the tail had been
    forced. *)

val crash_and_recover : t -> t
(** Simulate a crash: throw away all volatile state and rebuild the table
    from durable state (the object flags, NVRAM contents, or checkpoint +
    log replay), charging recovery I/O.  The result must agree with the
    pre-crash table — tests rely on this. *)

val invalidations_recorded : t -> int

val pp : Format.formatter -> t -> unit
