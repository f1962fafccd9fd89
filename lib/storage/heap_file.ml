type rid = { page : int; slot : int }

let rid_equal a b = a.page = b.page && a.slot = b.slot

type 'a page_data = { slots : 'a option array; mutable used : int }

type 'a t = {
  io : Io.t;
  file_id : int;
  record_bytes : int;
  per_page : int;
  mutable pages : 'a page_data array;
  mutable page_count : int;
  mutable record_count : int;
  mutable free : rid list; (* deleted slots available for reuse *)
}

let create ~io ~record_bytes () =
  if record_bytes <= 0 then invalid_arg "Heap_file.create";
  {
    io;
    file_id = Io.fresh_file io;
    record_bytes;
    per_page = Io.records_per_page io ~record_bytes;
    pages = [||];
    page_count = 0;
    record_count = 0;
    free = [];
  }

let io t = t.io
let file_id t = t.file_id
let record_bytes t = t.record_bytes
let records_per_page t = t.per_page
let record_count t = t.record_count
let page_count t = t.page_count

let grow t =
  let old = Array.length t.pages in
  let fresh = max 4 (2 * old) in
  let pages =
    Array.init fresh (fun i ->
        if i < old then t.pages.(i)
        else { slots = Array.make t.per_page None; used = 0 })
  in
  t.pages <- pages

let ensure_page t page =
  while page >= Array.length t.pages do
    grow t
  done;
  if page >= t.page_count then t.page_count <- page + 1;
  t.pages.(page)

(* Choose a slot for a new record without charging anything.  [reserved]
   holds slots already promised to earlier inserts of the same batch but
   not yet stored, so they must not be handed out twice. *)
let allocate_slot ?reserved t =
  let is_reserved rid =
    match reserved with None -> false | Some tbl -> Hashtbl.mem tbl rid
  in
  let reserved_on_page page =
    match reserved with
    | None -> 0
    | Some tbl ->
      Hashtbl.fold (fun rid () acc -> if rid.page = page then acc + 1 else acc) tbl 0
  in
  match t.free with
  | rid :: rest ->
    t.free <- rest;
    rid
  | [] ->
    let page =
      if t.page_count = 0 then 0
      else begin
        let last_page = t.page_count - 1 in
        let last = t.pages.(last_page) in
        if last.used + reserved_on_page last_page < t.per_page then last_page
        else t.page_count
      end
    in
    let data = ensure_page t page in
    let rec find i =
      if i >= t.per_page then invalid_arg "Heap_file.allocate_slot: no free slot"
      else if data.slots.(i) = None && not (is_reserved { page; slot = i }) then i
      else find (i + 1)
    in
    { page; slot = find 0 }

let store t rid v =
  let data = ensure_page t rid.page in
  if data.slots.(rid.slot) = None then begin
    data.used <- data.used + 1;
    t.record_count <- t.record_count + 1
  end;
  data.slots.(rid.slot) <- Some v

let remove t rid =
  if rid.page >= t.page_count then invalid_arg "Heap_file.delete: bad rid";
  let data = t.pages.(rid.page) in
  match data.slots.(rid.slot) with
  | None -> invalid_arg "Heap_file.delete: empty slot"
  | Some _ ->
    data.slots.(rid.slot) <- None;
    data.used <- data.used - 1;
    t.record_count <- t.record_count - 1;
    t.free <- rid :: t.free

let touch_rw t page =
  Io.read t.io ~file:t.file_id ~page;
  Io.write t.io ~file:t.file_id ~page

let append t v =
  let rid = allocate_slot t in
  touch_rw t rid.page;
  store t rid v;
  if Io.counting t.io then Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Heap_appends;
  rid

let get t rid =
  if rid.page >= t.page_count || rid.slot >= t.per_page then
    invalid_arg "Heap_file.get: bad rid";
  Io.read t.io ~file:t.file_id ~page:rid.page;
  match t.pages.(rid.page).slots.(rid.slot) with
  | Some v -> v
  | None -> invalid_arg "Heap_file.get: empty slot"

let set t rid v =
  if rid.page >= t.page_count || rid.slot >= t.per_page then
    invalid_arg "Heap_file.set: bad rid";
  if t.pages.(rid.page).slots.(rid.slot) = None then
    invalid_arg "Heap_file.set: empty slot";
  touch_rw t rid.page;
  store t rid v

let delete t rid =
  touch_rw t rid.page;
  remove t rid

type 'a op = Insert of 'a | Update of rid * 'a | Delete of rid

let apply_batch t ops =
  (* Deletes are applied first so their freed slots are reusable by this
     batch's inserts (update-in-place of the stored object, as the cost
     model assumes); reservations stop two inserts sharing one slot before
     being stored.  Each distinct touched page charges one read and one
     write. *)
  let touched = Hashtbl.create 16 in
  let touch page = if not (Hashtbl.mem touched page) then Hashtbl.replace touched page () in
  List.iter
    (function
      | Delete rid ->
        touch rid.page;
        remove t rid
      | Insert _ | Update _ -> ())
    ops;
  let reserved = Hashtbl.create 16 in
  let stores =
    List.filter_map
      (function
        | Insert v ->
          let rid = allocate_slot ~reserved t in
          Hashtbl.replace reserved rid ();
          touch rid.page;
          Some (rid, v, true)
        | Update (rid, v) ->
          touch rid.page;
          Some (rid, v, false)
        | Delete _ -> None)
      ops
  in
  Hashtbl.iter (fun page () -> touch_rw t page) touched;
  List.filter_map
    (fun (rid, v, is_insert) ->
      store t rid v;
      if is_insert then Some rid else None)
    stores

let scan t ~f =
  for page = 0 to t.page_count - 1 do
    Io.read t.io ~file:t.file_id ~page;
    let data = t.pages.(page) in
    for slot = 0 to t.per_page - 1 do
      match data.slots.(slot) with
      | Some v -> f { page; slot } v
      | None -> ()
    done
  done

let scan_chunks t ~size ~f =
  (* Same page-at-a-time visit (and the same one-read-per-page charge) as
     [scan], but records are handed out [size] at a time.  Each chunk's
     buffer is freshly allocated and ownership passes to [f] — a consumer
     can compact survivors in place and keep the array. *)
  let size = max 1 size in
  let buf = ref [||] in
  let n = ref 0 in
  let flush () =
    if !n > 0 then begin
      f !buf !n;
      buf := [||];
      n := 0
    end
  in
  for page = 0 to t.page_count - 1 do
    Io.read t.io ~file:t.file_id ~page;
    let data = t.pages.(page) in
    for slot = 0 to t.per_page - 1 do
      match data.slots.(slot) with
      | Some v ->
        if Array.length !buf = 0 then buf := Array.make size v;
        !buf.(!n) <- v;
        incr n;
        if !n = size then flush ()
      | None -> ()
    done
  done;
  flush ()

let scan_filter_chunks t ~size ~keep ~f =
  (* [scan_chunks] with the predicate fused into the page walk: records
     failing [keep] are never buffered, so a selective scan writes only
     survivors.  Charges are identical to [scan] — one read per page;
     the caller owns per-record accounting (every stored record is
     visited, kept or not).  Chunk buffers are freshly allocated and
     ownership passes to [f]. *)
  let size = max 1 size in
  let buf = ref [||] in
  let n = ref 0 in
  let flush () =
    if !n > 0 then begin
      f !buf !n;
      buf := [||];
      n := 0
    end
  in
  for page = 0 to t.page_count - 1 do
    Io.read t.io ~file:t.file_id ~page;
    let data = t.pages.(page) in
    for slot = 0 to t.per_page - 1 do
      match data.slots.(slot) with
      | Some v when keep v ->
        if Array.length !buf = 0 then buf := Array.make size v;
        !buf.(!n) <- v;
        incr n;
        if !n = size then flush ()
      | Some _ | None -> ()
    done
  done;
  flush ()

let fold t ~init ~f =
  let acc = ref init in
  scan t ~f:(fun rid v -> acc := f !acc rid v);
  !acc

let read_all t = List.rev (fold t ~init:[] ~f:(fun acc _ v -> v :: acc))

let reset_unlogged t =
  Array.iter
    (fun data ->
      Array.fill data.slots 0 (Array.length data.slots) None;
      data.used <- 0)
    t.pages;
  t.page_count <- 0;
  t.record_count <- 0;
  t.free <- []

let rewrite t records =
  reset_unlogged t;
  let n = List.length records in
  let new_pages = Io.pages_for_records t.io ~record_bytes:t.record_bytes ~count:n in
  for page = 0 to new_pages - 1 do
    touch_rw t page
  done;
  List.iter (fun v -> store t (allocate_slot t) v) records

let clear t = reset_unlogged t

let contents t =
  let acc = ref [] in
  for page = t.page_count - 1 downto 0 do
    let data = t.pages.(page) in
    for slot = t.per_page - 1 downto 0 do
      match data.slots.(slot) with
      | Some v -> acc := ({ page; slot }, v) :: !acc
      | None -> ()
    done
  done;
  !acc
