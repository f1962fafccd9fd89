open Dbproc_storage

(* A page's entries sit in [entries.(0) .. entries.(fill - 1)], oldest
   first; the cells past [fill] are [None]. *)
type ('k, 'v) page = { id : int; entries : ('k * 'v) option array; mutable fill : int }

type ('k, 'v) t = {
  io : Io.t;
  file : int;
  per_page : int;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  buckets : ('k, 'v) page array array; (* chain: first page first *)
  mutable pages : int; (* total allocated pages, also next page id *)
  mutable count : int;
}

let create ~io ~entry_bytes ~expected_entries ?(hash = Hashtbl.hash) ~equal () =
  if entry_bytes <= 0 then invalid_arg "Hash_index.create";
  let per_page = max 1 (Io.page_bytes io / entry_bytes) in
  let target_per_bucket = max 1 (7 * per_page / 10) in
  let buckets = max 1 ((max 1 expected_entries + target_per_bucket - 1) / target_per_bucket) in
  {
    io;
    file = Io.fresh_file io;
    per_page;
    hash;
    equal;
    buckets = Array.make buckets [||];
    pages = 0;
    count = 0;
  }

let entry_count t = t.count
let bucket_count t = Array.length t.buckets
let page_count t = t.pages

let bucket_of t k = abs (t.hash k) mod Array.length t.buckets

let fresh_page t =
  let page = { id = t.pages; entries = Array.make t.per_page None; fill = 0 } in
  t.pages <- t.pages + 1;
  page

let read_page t page = Io.read t.io ~file:t.file ~page:page.id
let write_page t page = Io.write t.io ~file:t.file ~page:page.id

let insert t k v =
  if Io.counting t.io then Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Hash_inserts;
  let b = bucket_of t k in
  let chain = t.buckets.(b) in
  let add page =
    page.entries.(page.fill) <- Some (k, v);
    page.fill <- page.fill + 1;
    write_page t page
  in
  (* Read along the chain until a page with room is found. *)
  let rec place i =
    if i = Array.length chain then begin
      let fresh = fresh_page t in
      t.buckets.(b) <- Array.append chain [| fresh |];
      add fresh
    end
    else begin
      read_page t chain.(i);
      if chain.(i).fill < t.per_page then add chain.(i) else place (i + 1)
    end
  in
  place 0;
  t.count <- t.count + 1

(* Drops the newest entry satisfying [pred] on the first page holding one:
   each page is scanned newest first. *)
let remove t k pred =
  let chain = t.buckets.(bucket_of t k) in
  let rec go i =
    i < Array.length chain
    &&
    let page = chain.(i) in
    read_page t page;
    let rec find j =
      if j < 0 then j
      else
        match page.entries.(j) with
        | Some (k', v) when t.equal k k' && pred v -> j
        | _ -> find (j - 1)
    in
    let j = find (page.fill - 1) in
    if j < 0 then go (i + 1)
    else begin
      page.fill <- page.fill - 1;
      Array.blit page.entries (j + 1) page.entries j (page.fill - j);
      page.entries.(page.fill) <- None;
      write_page t page;
      t.count <- t.count - 1;
      true
    end
  in
  go 0

let search t k =
  if Io.counting t.io then Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Hash_probes;
  let chain = t.buckets.(bucket_of t k) in
  Array.iter (read_page t) chain;
  (* Built back to front: chain order, insertion order within a page. *)
  let found = ref [] in
  for i = Array.length chain - 1 downto 0 do
    let page = chain.(i) in
    for j = page.fill - 1 downto 0 do
      match page.entries.(j) with
      | Some (k', v) when t.equal k k' -> found := v :: !found
      | _ -> ()
    done
  done;
  !found

let iter t ~f =
  Array.iter
    (Array.iter (fun page ->
         read_page t page;
         for j = 0 to page.fill - 1 do
           let k, v = Option.get page.entries.(j) in
           f k v
         done))
    t.buckets

let chain_length t k = Array.length t.buckets.(bucket_of t k)
