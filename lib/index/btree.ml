open Dbproc_storage

(* Entries carry an insertion sequence number, making every stored key
   unique.  Duplicate user keys then need no special casing in splits or
   descents: they are adjacent in composite-key order.

   A node keeps its cells in a sorted array with a live count.  Arrays
   grow by doubling, up to the overflow cell a split empties; vacated leaf
   cells are [Vacant], so removed values can be collected. *)

type ('k, 'v) entry = Vacant | Entry of 'k * int * 'v

type ('k, 'v) node =
  | Leaf of {
      mutable entries : ('k, 'v) entry array; (* [0, n) sorted by (key, seq) *)
      mutable n : int;
      mutable next : int; (* next leaf, -1 if none *)
    }
  | Internal of {
      mutable keys : ('k * int) array; (* separators, [0, nkeys) *)
      mutable children : int array; (* [0, nkeys] *)
      mutable nkeys : int;
    }

type ('k, 'v) t = {
  io : Io.t;
  file : int;
  compare : 'k -> 'k -> int;
  cap : int;
  mutable nodes : ('k, 'v) node option array;
  mutable node_count : int;
  mutable root : int;
  mutable height : int;
  mutable entry_count : int;
  mutable next_seq : int;
}

let create ~io ~entry_bytes ~compare () =
  if entry_bytes <= 0 then invalid_arg "Btree.create";
  let cap = max 4 (Io.page_bytes io / entry_bytes) in
  let t =
    {
      io;
      file = Io.fresh_file io;
      compare;
      cap;
      nodes = Array.make 8 None;
      node_count = 0;
      root = 0;
      height = 1;
      entry_count = 0;
      next_seq = 0;
    }
  in
  t.nodes.(0) <- Some (Leaf { entries = [||]; n = 0; next = -1 });
  t.node_count <- 1;
  t

let entry_count t = t.entry_count
let height t = t.height
let capacity t = t.cap

let cmp_composite t k1 s1 k2 s2 =
  match t.compare k1 k2 with 0 -> Int.compare s1 s2 | c -> c

let node t id =
  match t.nodes.(id) with
  | Some n -> n
  | None -> invalid_arg "Btree: dangling node id"

let read_node t id =
  Io.read t.io ~file:t.file ~page:id;
  node t id

let write_node t id = Io.write t.io ~file:t.file ~page:id

let alloc t n =
  if t.node_count >= Array.length t.nodes then begin
    let bigger = Array.make (2 * Array.length t.nodes) None in
    Array.blit t.nodes 0 bigger 0 t.node_count;
    t.nodes <- bigger
  end;
  let id = t.node_count in
  t.nodes.(id) <- Some n;
  t.node_count <- id + 1;
  id

let entry_key = function Entry (k, _, _) -> k | Vacant -> assert false
let sep_key (k, _) = k

(* Binary search: the number of cells among [lo, hi) whose key is below
   [key], or with [~upper] at most [key]. *)
let rec bound t key_of cells key ~upper lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    let c = t.compare (key_of cells.(mid)) key in
    if c < 0 || (upper && c = 0) then bound t key_of cells key ~upper (mid + 1) hi
    else bound t key_of cells key ~upper lo mid

(* [cells] with [x] inserted at [i] of its [n] live cells; when full, a copy
   twice as large (at most [limit] cells) whose spare cells hold [spare]. *)
let insert_cell cells n i x ~limit ~spare =
  let cells =
    if n < Array.length cells then cells
    else begin
      let bigger = Array.make (min limit (max 4 (2 * n))) spare in
      Array.blit cells 0 bigger 0 n;
      bigger
    end
  in
  Array.blit cells i cells (i + 1) (n - i);
  cells.(i) <- x;
  cells

(* The new entry's seq exceeds every stored one, so in composite order it
   follows every equal key: both the leaf position and the child to descend
   into count the cells whose key is at most [key]. *)
let rec insert_at id key seq v t =
  match read_node t id with
  | Leaf leaf ->
    let i = bound t entry_key leaf.entries key ~upper:true 0 leaf.n in
    leaf.entries <-
      insert_cell leaf.entries leaf.n i (Entry (key, seq, v)) ~limit:(t.cap + 1) ~spare:Vacant;
    leaf.n <- leaf.n + 1;
    let n = leaf.n in
    if n <= t.cap then begin
      write_node t id;
      None
    end
    else begin
      let mid = (n + 1) / 2 in
      let right = Array.sub leaf.entries mid (n - mid) in
      let right_id = alloc t (Leaf { entries = right; n = n - mid; next = leaf.next }) in
      Array.fill leaf.entries mid (n - mid) Vacant;
      leaf.n <- mid;
      leaf.next <- right_id;
      write_node t id;
      write_node t right_id;
      match right.(0) with Entry (k, s, _) -> Some ((k, s), right_id) | Vacant -> assert false
    end
  | Internal inner -> (
    let idx = bound t sep_key inner.keys key ~upper:true 0 inner.nkeys in
    match insert_at inner.children.(idx) key seq v t with
    | None -> None
    | Some (sep, new_child) ->
      let nkeys = inner.nkeys + 1 in
      inner.keys <- insert_cell inner.keys inner.nkeys idx sep ~limit:(t.cap + 1) ~spare:sep;
      inner.children <-
        insert_cell inner.children nkeys (idx + 1) new_child ~limit:(t.cap + 2) ~spare:(-1);
      inner.nkeys <- nkeys;
      if nkeys <= t.cap then begin
        write_node t id;
        None
      end
      else begin
        (* Separators are never removed, so the cells a split vacates here
           still point at live ones. *)
        let mid = nkeys / 2 in
        let promoted = inner.keys.(mid) in
        let keys = Array.sub inner.keys (mid + 1) (nkeys - mid - 1) in
        let children = Array.sub inner.children (mid + 1) (nkeys - mid) in
        let right_id = alloc t (Internal { keys; children; nkeys = nkeys - mid - 1 }) in
        inner.nkeys <- mid;
        write_node t id;
        write_node t right_id;
        Some (promoted, right_id)
      end)

let insert t key v =
  if Io.counting t.io then Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Btree_inserts;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (match insert_at t.root key seq v t with
  | None -> ()
  | Some (sep, right_id) ->
    let new_root = alloc t (Internal { keys = [| sep |]; children = [| t.root; right_id |]; nkeys = 1 }) in
    t.root <- new_root;
    t.height <- t.height + 1;
    write_node t new_root);
  t.entry_count <- t.entry_count + 1

(* Descend to the leftmost leaf that may hold [key]. *)
let rec leaf_for t id key =
  match read_node t id with
  | Leaf _ -> id
  | Internal inner ->
    leaf_for t inner.children.(bound t sep_key inner.keys key ~upper:false 0 inner.nkeys) key

(* Both walks start at the first entry not below [key] and leave the leaf
   chain at the first leaf holding an entry above it. *)
let search t key =
  if Io.counting t.io then Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Btree_searches;
  (* acc collects matches most-recent-first; entries are visited in key
     (hence insertion) order, so one final reversal restores it. *)
  let rec walk id acc =
    if id = -1 then acc
    else
      match read_node t id with
      | Internal _ -> assert false
      | Leaf leaf ->
        let rec collect i acc =
          if i = leaf.n then walk leaf.next acc
          else
            match leaf.entries.(i) with
            | Entry (k, _, v) when t.compare k key = 0 -> collect (i + 1) (v :: acc)
            | _ -> acc
        in
        collect (bound t entry_key leaf.entries key ~upper:false 0 leaf.n) acc
  in
  List.rev (walk (leaf_for t t.root key) [])

let remove t key pred =
  let rec walk id =
    if id = -1 then false
    else
      match read_node t id with
      | Internal _ -> assert false
      | Leaf leaf ->
        let rec scan i =
          if i = leaf.n then walk leaf.next
          else
            match leaf.entries.(i) with
            | Entry (k, _, v) when t.compare k key = 0 ->
              if pred v then begin
                leaf.n <- leaf.n - 1;
                Array.blit leaf.entries (i + 1) leaf.entries i (leaf.n - i);
                leaf.entries.(leaf.n) <- Vacant;
                write_node t id;
                t.entry_count <- t.entry_count - 1;
                true
              end
              else scan (i + 1)
            | _ -> false
        in
        scan (bound t entry_key leaf.entries key ~upper:false 0 leaf.n)
  in
  walk (leaf_for t t.root key)

type 'k bound = Unbounded | Inclusive of 'k | Exclusive of 'k

let range t ~lo ~hi ~f =
  if Io.counting t.io then Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Btree_range_scans;
  let above_lo k =
    match lo with
    | Unbounded -> true
    | Inclusive b -> t.compare k b >= 0
    | Exclusive b -> t.compare k b > 0
  in
  let below_hi k =
    match hi with
    | Unbounded -> true
    | Inclusive b -> t.compare k b <= 0
    | Exclusive b -> t.compare k b < 0
  in
  let start_leaf =
    match lo with
    | Unbounded ->
      (* descend along the leftmost spine *)
      let rec leftmost id =
        match read_node t id with
        | Leaf _ -> id
        | Internal inner -> leftmost inner.children.(0)
      in
      leftmost t.root
    | Inclusive b | Exclusive b -> leaf_for t t.root b
  in
  let rec walk id =
    if id <> -1 then
      match read_node t id with
      | Internal _ -> assert false
      | Leaf leaf ->
        let rec visit i =
          if i = leaf.n then walk leaf.next
          else
            match leaf.entries.(i) with
            | Entry (k, _, v) when below_hi k ->
              if above_lo k then f k v;
              visit (i + 1)
            | _ -> ()
        in
        visit 0
  in
  walk start_leaf

let iter t ~f = range t ~lo:Unbounded ~hi:Unbounded ~f

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let counted = ref 0 in
  let live id entries i =
    match entries.(i) with Entry (k, s, _) -> (k, s) | Vacant -> fail "leaf %d has a vacant cell" id
  in
  let before (k1, s1) (k2, s2) = cmp_composite t k1 s1 k2 s2 < 0 in
  let rec check id depth lo hi =
    (* keys in this subtree must satisfy lo <= k < hi (composite order) *)
    match node t id with
    | Leaf leaf ->
      if depth <> t.height then fail "leaf %d at depth %d, height %d" id depth t.height;
      for i = 0 to leaf.n - 1 do
        let e = live id leaf.entries i in
        if i > 0 && not (before (live id leaf.entries (i - 1)) e) then fail "leaf %d unsorted" id;
        (match lo with Some b when before e b -> fail "leaf %d below separator" id | _ -> ());
        match hi with Some b when not (before e b) -> fail "leaf %d above separator" id | _ -> ()
      done;
      for i = leaf.n to Array.length leaf.entries - 1 do
        if leaf.entries.(i) != Vacant then fail "leaf %d keeps a removed entry" id
      done;
      counted := !counted + leaf.n
    | Internal inner ->
      if Array.length inner.children <= inner.nkeys then fail "internal %d arity mismatch" id;
      if inner.nkeys = 0 then fail "internal %d empty" id;
      for i = 1 to inner.nkeys - 1 do
        if not (before inner.keys.(i - 1) inner.keys.(i)) then fail "internal %d unsorted" id
      done;
      for i = 0 to inner.nkeys do
        check inner.children.(i) (depth + 1)
          (if i = 0 then lo else Some inner.keys.(i - 1))
          (if i = inner.nkeys then hi else Some inner.keys.(i))
      done
  in
  check t.root 1 None None;
  if !counted <> t.entry_count then
    fail "entry count mismatch: counted %d, recorded %d" !counted t.entry_count;
  (* leaf chain must visit every entry in order *)
  let chain = ref 0 in
  let last = ref None in
  let rec leftmost id =
    match node t id with
    | Leaf _ -> id
    | Internal inner -> leftmost inner.children.(0)
  in
  let rec follow id =
    if id <> -1 then
      match node t id with
      | Internal _ -> fail "leaf chain reached internal node"
      | Leaf leaf ->
        for i = 0 to leaf.n - 1 do
          let e = live id leaf.entries i in
          (match !last with
          | Some prev when not (before prev e) -> fail "leaf chain unsorted"
          | _ -> ());
          last := Some e;
          incr chain
        done;
        follow leaf.next
  in
  follow (leftmost t.root);
  if !chain <> t.entry_count then fail "leaf chain count mismatch"
