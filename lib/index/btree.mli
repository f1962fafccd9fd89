(** A page-based B+-tree over the simulated disk.

    One node occupies one page and holds up to [page_bytes / entry_bytes]
    entries (the paper's fanout [B/d], 200 with the defaults).  Every node
    visited during a search, range scan or mutation charges one page read
    through the tree's {!Dbproc_storage.Io.t}; modified nodes charge one
    page write — so searching a tree of height [H] costs [H + 1] reads,
    matching the paper's [C2 * H1] index-descent term plus the leaf.

    Duplicate keys are supported (the paper indexes non-unique selection
    attributes).  Deletion is {e lazy}: entries are removed and nodes may
    underflow, but nodes are not merged — standard practice in systems
    whose workloads do not shrink files, and the cost model only depends on
    the descent path length.

    In memory, a leaf is a sorted array of (key, insertion sequence, value)
    entries and an internal node a sorted separator array plus a child
    array, each with a live count.  Arrays grow by doubling up to the one
    overflow cell a split empties.  Wall-clock work per node visited is a
    binary search, plus one blit of the cells after the change point when
    the node is modified; none of it is charged. *)

type ('k, 'v) t

val create :
  io:Dbproc_storage.Io.t ->
  entry_bytes:int ->
  compare:('k -> 'k -> int) ->
  unit ->
  ('k, 'v) t
(** [create ~io ~entry_bytes ~compare ()] makes an empty tree whose node
    capacity is [Io.page_bytes io / entry_bytes] (at least 4). *)

val entry_count : _ t -> int

val height : _ t -> int
(** Number of levels; 1 for a tree that is a single leaf. *)

val capacity : _ t -> int
(** Entries per node. *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit

val remove : ('k, 'v) t -> 'k -> ('v -> bool) -> bool
(** [remove t key pred] deletes the oldest entry with key [key] satisfying
    [pred] and reports whether one was found.  It walks right along the
    leaf chain only while no entry in the leaf is greater than [key]. *)

val search : ('k, 'v) t -> 'k -> 'v list
(** All values stored under an exactly-equal key, in insertion order. *)

type 'k bound = Unbounded | Inclusive of 'k | Exclusive of 'k

val range : ('k, 'v) t -> lo:'k bound -> hi:'k bound -> f:('k -> 'v -> unit) -> unit
(** In-order visit of all entries within the bounds. *)

val iter : ('k, 'v) t -> f:('k -> 'v -> unit) -> unit
(** Visit everything ({!range} with unbounded ends). *)

val check_invariants : ('k, 'v) t -> unit
(** Verify ordering, key/child arity, leaf chaining and entry count; used
    by the property tests.  @raise Failure describing the violation. *)
