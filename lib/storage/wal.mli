(** A minimal write-ahead log over the simulated disk.

    The paper's Section 3 sketches two ways to make Cache and Invalidate's
    validity table recoverable without paying two I/Os per invalidation:
    battery-backed memory, or "conventional write-ahead log recovery …
    log the identifiers of invalidated procedures.  If the data structure
    is checkpointed periodically, it can be recovered by playing the
    latest part of the log against the last checkpoint."  This module is
    that log; {!Dbproc_proc.Inval_table} builds the three recording
    schemes on top of it.

    Records append into an in-memory tail page; a page write is charged
    whenever the tail page fills or {!force} is called — so the amortized
    cost of an append is [C2 / records_per_page], far below the [2 C2]
    page-flag scheme.  Reading back charges one read per log page. *)

type 'a t

type lsn = int
(** Log sequence number: records are numbered from 0. *)

val create : io:Io.t -> record_bytes:int -> unit -> 'a t

val append : 'a t -> 'a -> lsn
(** Append a record.  Charges one page write when this record fills the
    tail page. *)

val force : 'a t -> unit
(** Write the partial tail page out (commit boundary).  No charge when
    the tail page is empty or already forced. *)

val next_lsn : 'a t -> lsn
(** The lsn the next {!append} will return. *)

val record_count : 'a t -> int
(** Records currently retained: those appended at or after {!oldest_lsn}
    that no {!crash} dropped.  O(1). *)

val page_count : 'a t -> int
(** Full pages on disk plus the tail page if non-empty. *)

val records_from : 'a t -> lsn -> (lsn * 'a) list
(** All retained records with lsn >= the given one, in order.  The lsn may
    fall in a gap a {!crash} left.  Returning [k] records charges
    [ceil (k / records_per_page)] reads, of log pages 0, 1, ….  Records
    below the truncation point are gone.  Wall time is O(log n + k) for [n]
    retained records: a binary search, then a copy of the suffix.
    @raise Invalid_argument if the lsn falls in the truncated prefix. *)

val truncate_before : 'a t -> lsn -> unit
(** Discard records with lsn < the given one (after a checkpoint).  Free:
    truncation is metadata. *)

val oldest_lsn : 'a t -> lsn
(** Smallest retained lsn ([next_lsn] when the log is empty). *)

val durable_lsn : 'a t -> lsn
(** Records with lsn below this survived the last page write or {!force};
    records at or above it are still in the volatile tail page and are
    lost by a crash. *)

val crash : 'a t -> int
(** Simulate a crash: drop the volatile tail (every record at or above
    {!durable_lsn} — the torn tail page), returning how many records were
    lost.  [next_lsn] is {e not} rewound — the lost lsns leave a gap and
    are never reused — and no I/O is charged (a crash costs nothing; the
    recovery replay pays). *)
