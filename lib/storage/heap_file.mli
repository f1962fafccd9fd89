(** Heap files of fixed-width records over the simulated disk.

    A heap file stores records of a declared byte width, [records_per_page]
    to a page, and charges page touches through its {!Io.t}.  Records are
    OCaml values — the simulator models I/O counts and placement, not byte
    encodings.

    Single-record operations charge each page touch individually.
    {!apply_batch} applies a whole transaction's worth of mutations
    charging each distinct touched page one read and one write — that is
    the paper's model of refreshing a stored object after an update
    (the Yao function counts distinct pages). *)

type rid = private { page : int; slot : int }
(** Record identifier: page number within the file and slot within the
    page. *)

val rid_equal : rid -> rid -> bool

type 'a t

val create : io:Io.t -> record_bytes:int -> unit -> 'a t
val io : 'a t -> Io.t
val file_id : 'a t -> int
val record_bytes : 'a t -> int
val records_per_page : 'a t -> int

val record_count : 'a t -> int
val page_count : 'a t -> int
(** Number of allocated pages (never shrinks below the high-water mark of
    the data distribution; empty file has 0). *)

(** {2 Single-record operations} — each page touch charged individually *)

val append : 'a t -> 'a -> rid
(** Insert into the first free slot (reusing deleted slots), charging one
    read and one write of the target page. *)

val get : 'a t -> rid -> 'a
(** One page read.  @raise Invalid_argument if the slot is empty or out of
    range. *)

val set : 'a t -> rid -> 'a -> unit
(** Overwrite in place: one read, one write. *)

val delete : 'a t -> rid -> unit
(** One read, one write.  The slot becomes reusable. *)

(** {2 Batched mutation} *)

type 'a op = Insert of 'a | Update of rid * 'a | Delete of rid

val apply_batch : 'a t -> 'a op list -> rid list
(** Apply all operations, charging each distinct touched page exactly one
    read and one write.  Returns the rids assigned to [Insert]s in order. *)

(** {2 Whole-file operations} *)

val scan : 'a t -> f:(rid -> 'a -> unit) -> unit
(** Visit every record, charging one read per allocated page. *)

val scan_chunks : 'a t -> size:int -> f:('a array -> int -> unit) -> unit
(** Visit every record in rid order, [size] records at a time, charging
    one read per allocated page — identical charges and record order to
    {!scan}.  [f buf n] receives a freshly allocated buffer whose first
    [n] cells are valid; ownership passes to [f], which may compact the
    array in place and keep it. *)

val scan_filter_chunks :
  'a t -> size:int -> keep:('a -> bool) -> f:('a array -> int -> unit) -> unit
(** {!scan_chunks} with the predicate fused into the page walk: only
    records satisfying [keep] are buffered and handed out, in rid order.
    Charges are identical to {!scan} (one read per allocated page; the
    caller accounts for the records visited, kept or not — every stored
    record is).  Buffer ownership passes to [f] as in {!scan_chunks}. *)

val fold : 'a t -> init:'b -> f:('b -> rid -> 'a -> 'b) -> 'b

val read_all : 'a t -> 'a list
(** All records in rid order, charging one read per allocated page. *)

val rewrite : 'a t -> 'a list -> unit
(** Replace the whole contents, charging one read and one write per page
    of the {e new} contents — the paper's cache-refresh cost
    [2 C2 ProcSize]. *)

val clear : 'a t -> unit
(** Drop all records without charge (used by tests and setup). *)

val contents : 'a t -> (rid * 'a) list
(** All records without any cost accounting (testing/debugging). *)
