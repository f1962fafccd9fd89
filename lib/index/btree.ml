open Dbproc_storage

(* Entries carry an insertion sequence number, making every stored key
   unique.  Duplicate user keys then need no special casing in splits or
   descents: they are adjacent in composite-key order. *)

type ('k, 'v) node =
  | Leaf of {
      mutable entries : ('k * int * 'v) list; (* sorted by (key, seq) *)
      mutable next : int; (* next leaf, -1 if none *)
    }
  | Internal of {
      mutable keys : ('k * int) list; (* separators *)
      mutable children : int list; (* length = length keys + 1 *)
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
  t.nodes.(0) <- Some (Leaf { entries = []; next = -1 });
  t.node_count <- 1;
  t

let entry_count t = t.entry_count
let height t = t.height
let capacity t = t.cap

let cmp_composite t (k1, s1) (k2, s2) =
  match t.compare k1 k2 with 0 -> compare s1 s2 | c -> c

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

(* Number of separators [<= key]: routes equal keys to the child that
   starts at that separator, which is where insertion placed them. *)
let route t keys key =
  let rec go i = function
    | [] -> i
    | sep :: rest -> if cmp_composite t sep key <= 0 then go (i + 1) rest else i
  in
  go 0 keys

(* Leftmost child that may contain [key] ignoring sequence numbers. *)
let route_leftmost t keys key =
  let rec go i = function
    | [] -> i
    | (sep_key, _) :: rest -> if t.compare sep_key key < 0 then go (i + 1) rest else i
  in
  go 0 keys

let split_list lst at =
  let rec go acc i = function
    | rest when i = at -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (x :: acc) (i + 1) rest
  in
  go [] 0 lst

let rec insert_at id ckey v t =
  match read_node t id with
  | Leaf leaf ->
    let rec ins = function
      | [] -> [ (fst ckey, snd ckey, v) ]
      | ((ek, es, _) as e) :: rest ->
        if cmp_composite t (ek, es) ckey >= 0 then (fst ckey, snd ckey, v) :: e :: rest
        else e :: ins rest
    in
    leaf.entries <- ins leaf.entries;
    let n = List.length leaf.entries in
    if n <= t.cap then begin
      write_node t id;
      None
    end
    else begin
      let left, right = split_list leaf.entries ((n + 1) / 2) in
      let right_id = alloc t (Leaf { entries = right; next = leaf.next }) in
      leaf.entries <- left;
      leaf.next <- right_id;
      write_node t id;
      write_node t right_id;
      let sep = match right with (k, s, _) :: _ -> (k, s) | [] -> assert false in
      Some (sep, right_id)
    end
  | Internal inner -> (
    let idx = route t inner.keys ckey in
    let child = List.nth inner.children idx in
    match insert_at child ckey v t with
    | None -> None
    | Some (sep, new_child) ->
      let keys_l, keys_r = split_list inner.keys idx in
      inner.keys <- keys_l @ (sep :: keys_r);
      let ch_l, ch_r = split_list inner.children (idx + 1) in
      inner.children <- ch_l @ (new_child :: ch_r);
      if List.length inner.keys <= t.cap then begin
        write_node t id;
        None
      end
      else begin
        let nkeys = List.length inner.keys in
        let mid = nkeys / 2 in
        let keys_left, keys_rest = split_list inner.keys mid in
        let promoted, keys_right =
          match keys_rest with k :: rest -> (k, rest) | [] -> assert false
        in
        let ch_left, ch_right = split_list inner.children (mid + 1) in
        let right_id = alloc t (Internal { keys = keys_right; children = ch_right }) in
        inner.keys <- keys_left;
        inner.children <- ch_left;
        write_node t id;
        write_node t right_id;
        Some (promoted, right_id)
      end)

let insert t key v =
  if Io.counting t.io then Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Btree_inserts;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (match insert_at t.root (key, seq) v t with
  | None -> ()
  | Some (sep, right_id) ->
    let new_root = alloc t (Internal { keys = [ sep ]; children = [ t.root; right_id ] }) in
    t.root <- new_root;
    t.height <- t.height + 1;
    write_node t new_root);
  t.entry_count <- t.entry_count + 1

(* Descend to the leftmost leaf that may hold [key]. *)
let rec leaf_for t id key =
  match read_node t id with
  | Leaf _ -> id
  | Internal inner ->
    let idx = route_leftmost t inner.keys key in
    leaf_for t (List.nth inner.children idx) key

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
        let acc = ref acc in
        let beyond = ref false in
        List.iter
          (fun (k, _, v) ->
            let c = t.compare k key in
            if c = 0 then acc := v :: !acc else if c > 0 then beyond := true)
          leaf.entries;
        if !beyond then !acc else walk leaf.next !acc
  in
  List.rev (walk (leaf_for t t.root key) [])

let remove t key pred =
  let rec walk id =
    if id = -1 then false
    else
      match read_node t id with
      | Internal _ -> assert false
      | Leaf leaf ->
        let removed = ref false in
        let beyond = ref false in
        let entries =
          List.filter
            (fun (k, _, v) ->
              if !removed then true
              else begin
                let c = t.compare k key in
                if c > 0 then beyond := true;
                if c = 0 && pred v then begin
                  removed := true;
                  false
                end
                else true
              end)
            leaf.entries
        in
        if !removed then begin
          leaf.entries <- entries;
          write_node t id;
          t.entry_count <- t.entry_count - 1;
          true
        end
        else if !beyond then false
        else walk leaf.next
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
        | Internal inner -> leftmost (List.hd inner.children)
      in
      leftmost t.root
    | Inclusive b | Exclusive b -> leaf_for t t.root b
  in
  let rec walk id =
    if id <> -1 then
      match read_node t id with
      | Internal _ -> assert false
      | Leaf leaf ->
        let past_end = ref false in
        List.iter
          (fun (k, _, v) ->
            if not !past_end then
              if not (below_hi k) then past_end := true
              else if above_lo k then f k v)
          leaf.entries;
        if not !past_end then walk leaf.next
  in
  walk start_leaf

let iter t ~f = range t ~lo:Unbounded ~hi:Unbounded ~f

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let counted = ref 0 in
  let rec check id depth lo hi =
    (* keys in this subtree must satisfy lo <= k <= hi (composite order) *)
    match node t id with
    | Leaf leaf ->
      if depth <> t.height then fail "leaf %d at depth %d, height %d" id depth t.height;
      let rec sorted = function
        | (k1, s1, _) :: ((k2, s2, _) :: _ as rest) ->
          if cmp_composite t (k1, s1) (k2, s2) >= 0 then fail "leaf %d unsorted" id;
          sorted rest
        | _ -> ()
      in
      sorted leaf.entries;
      List.iter
        (fun (k, s, _) ->
          (match lo with
          | Some b when cmp_composite t (k, s) b < 0 -> fail "leaf %d below separator" id
          | _ -> ());
          match hi with
          | Some b when cmp_composite t (k, s) b >= 0 -> fail "leaf %d above separator" id
          | _ -> ())
        leaf.entries;
      counted := !counted + List.length leaf.entries
    | Internal inner ->
      if List.length inner.children <> List.length inner.keys + 1 then
        fail "internal %d arity mismatch" id;
      if inner.keys = [] then fail "internal %d empty" id;
      let rec sorted = function
        | k1 :: (k2 :: _ as rest) ->
          if cmp_composite t k1 k2 >= 0 then fail "internal %d unsorted" id;
          sorted rest
        | _ -> ()
      in
      sorted inner.keys;
      let bounds =
        let rec spans prev keys =
          match keys with
          | [] -> [ (prev, hi) ]
          | k :: rest -> (prev, Some k) :: spans (Some k) rest
        in
        spans lo inner.keys
      in
      List.iter2 (fun child (clo, chi) -> check child (depth + 1) clo chi) inner.children
        bounds
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
    | Internal inner -> leftmost (List.hd inner.children)
  in
  let rec follow id =
    if id <> -1 then
      match node t id with
      | Internal _ -> fail "leaf chain reached internal node"
      | Leaf leaf ->
        List.iter
          (fun (k, s, _) ->
            (match !last with
            | Some prev when cmp_composite t prev (k, s) >= 0 -> fail "leaf chain unsorted"
            | _ -> ());
            last := Some (k, s);
            incr chain)
          leaf.entries;
        follow leaf.next
  in
  follow (leftmost t.root);
  if !chain <> t.entry_count then fail "leaf chain count mismatch"
