(** A static hash index over the simulated disk.

    The index has a fixed bucket directory; each bucket is a chain of
    pages holding [page_bytes / entry_bytes] entries each.  A probe reads
    the pages of one bucket chain (one page in the common, well-sized
    case) — the paper's hash indexes on [R2.a] and [R3.c] are probed once
    per outer tuple, so join I/O is [Yao]-shaped page reads on the indexed
    relation plus one read per probe here.

    Sizing: {!create} takes the expected number of entries and aims for
    single-page buckets at ~70% occupancy. *)

type ('k, 'v) t

val create :
  io:Dbproc_storage.Io.t ->
  entry_bytes:int ->
  expected_entries:int ->
  ?hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** [hash] defaults to [Hashtbl.hash]. *)

val entry_count : _ t -> int
val bucket_count : _ t -> int

val page_count : _ t -> int
(** Total pages across all bucket chains. *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Appends to the key's bucket: reads the chain to find space, writes the
    page receiving the entry. *)

val remove : ('k, 'v) t -> 'k -> ('v -> bool) -> bool
(** Remove one entry under the key satisfying the predicate: the newest
    such entry on the first chain page that holds one.  The page's other
    entries keep their order.  Reads the chain up to that page and writes
    it. *)

val search : ('k, 'v) t -> 'k -> 'v list
(** All values under the key, charging one read per chain page: pages in
    chain order, each page's values in the order they were inserted. *)

val iter : ('k, 'v) t -> f:('k -> 'v -> unit) -> unit
(** Visit every entry, one read per page. *)

val chain_length : ('k, 'v) t -> 'k -> int
(** Pages in the key's bucket chain (no charge; sizing diagnostics). *)
