type lsn = int

(* Retained records sit in [cells.(lo) .. cells.(hi - 1)] in lsn order;
   cells outside that window are [None], so dropped records can be
   collected. *)
type 'a t = {
  io : Io.t;
  file : int;
  per_page : int;
  mutable cells : (lsn * 'a) option array;
  mutable lo : int;
  mutable hi : int;
  mutable next : lsn;
  mutable oldest : lsn;
  mutable tail_fill : int; (* records in the unwritten tail page *)
  mutable pages_written : int;
}

let create ~io ~record_bytes () =
  if record_bytes <= 0 then invalid_arg "Wal.create";
  {
    io;
    file = Io.fresh_file io;
    per_page = Io.records_per_page io ~record_bytes;
    cells = Array.make 16 None;
    lo = 0;
    hi = 0;
    next = 0;
    oldest = 0;
    tail_fill = 0;
    pages_written = 0;
  }

let lsn_at t i = fst (Option.get t.cells.(i))

(* Index of the first retained record with lsn >= [lsn] ([hi] if none):
   lsns increase along the window, with gaps where a crash tore a tail. *)
let first_from t lsn =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if lsn_at t mid < lsn then go (mid + 1) hi else go lo mid
  in
  go t.lo t.hi

let append t record =
  let lsn = t.next in
  t.next <- lsn + 1;
  if t.hi = Array.length t.cells then begin
    (* Full: move the window to the front of a fresh array with room for
       as many records again. *)
    let live = t.hi - t.lo in
    let cells = Array.make (max 16 (2 * live)) None in
    Array.blit t.cells t.lo cells 0 live;
    t.cells <- cells;
    t.lo <- 0;
    t.hi <- live
  end;
  t.cells.(t.hi) <- Some (lsn, record);
  t.hi <- t.hi + 1;
  t.tail_fill <- t.tail_fill + 1;
  if Io.counting t.io then
    Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Wal_records_appended;
  if t.tail_fill >= t.per_page then begin
    Io.write t.io ~file:t.file ~page:t.pages_written;
    if Io.counting t.io then
      Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Wal_pages_forced;
    t.pages_written <- t.pages_written + 1;
    t.tail_fill <- 0
  end;
  lsn

let force t =
  if t.tail_fill > 0 then begin
    Io.write t.io ~file:t.file ~page:t.pages_written;
    if Io.counting t.io then
      Dbproc_obs.Metrics.incr (Io.metrics t.io) Dbproc_obs.Metrics.Wal_pages_forced;
    t.pages_written <- t.pages_written + 1;
    t.tail_fill <- 0
  end

let next_lsn t = t.next
let record_count t = t.hi - t.lo
let durable_lsn t = t.next - t.tail_fill

let page_count t = t.pages_written + (if t.tail_fill > 0 then 1 else 0)

let oldest_lsn t = t.oldest

let records_from t lsn =
  if lsn < t.oldest then
    invalid_arg
      (Printf.sprintf "Wal.records_from: lsn %d predates truncation point %d" lsn t.oldest);
  let first = first_from t lsn in
  let wanted = ref [] in
  for i = t.hi - 1 downto first do
    wanted := Option.get t.cells.(i) :: !wanted
  done;
  (* One read per page covering the requested suffix. *)
  let pages = (t.hi - first + t.per_page - 1) / t.per_page in
  for page = 0 to pages - 1 do
    Io.read t.io ~file:t.file ~page
  done;
  !wanted

let crash t =
  let lost = t.tail_fill in
  if lost > 0 then begin
    let first = first_from t (durable_lsn t) in
    Array.fill t.cells first (t.hi - first) None;
    t.hi <- first;
    (* [next] is not rewound: the lost lsns are never reissued, so replay
       code can rely on lsns being unique across a crash.  The log simply
       has a gap where the torn tail page was. *)
    t.tail_fill <- 0
  end;
  lost

let truncate_before t lsn =
  if lsn > t.oldest then begin
    let first = first_from t lsn in
    Array.fill t.cells t.lo (first - t.lo) None;
    t.lo <- first;
    t.oldest <- lsn
  end
