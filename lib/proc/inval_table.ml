open Dbproc_storage

type scheme =
  | Page_flag
  | Nvram
  | Wal_logged of { checkpoint_every : int }

let scheme_name = function
  | Page_flag -> "page-flag (2 I/Os per invalidation)"
  | Nvram -> "nvram (free per invalidation)"
  | Wal_logged { checkpoint_every } ->
    Printf.sprintf "wal (checkpoint every %d transitions)" checkpoint_every

type transition = { proc : int; now_valid : bool }

type t = {
  io : Io.t;
  scheme : scheme;
  mutable procs : int;
  mutable valid : bool array; (* volatile truth *)
  mutable durable : bool array; (* what the durable medium holds (flags / nvram) *)
  flag_file : int; (* Page_flag: one flag page per procedure *)
  wal : transition Wal.t option;
  ckpt_file : int;
  mutable ckpt_snapshot : bool array;
  mutable ckpt_lsn : Wal.lsn;
  mutable since_ckpt : int;
  mutable recorded : int;
}

(* A checkpoint or recovery scan of the table touches this many pages: one
   validity bit per procedure, one byte each. *)
let table_pages t = max 1 (Io.pages_for_records t.io ~record_bytes:1 ~count:t.procs)

let create ~io ~scheme ~procs =
  if procs < 0 then invalid_arg "Inval_table.create";
  {
    io;
    scheme;
    procs;
    valid = Array.make procs true;
    durable = Array.make procs true;
    flag_file = Io.fresh_file io;
    wal =
      (match scheme with
      | Wal_logged _ -> Some (Wal.create ~io ~record_bytes:8 ())
      | Page_flag | Nvram -> None);
    ckpt_file = Io.fresh_file io;
    ckpt_snapshot = Array.make procs true;
    ckpt_lsn = 0;
    since_ckpt = 0;
    recorded = 0;
  }

let scheme t = t.scheme

(* Growing the table is pure metadata: new procedures start valid on every
   medium (a fresh cache is written before its first validity transition),
   so no I/O is charged. *)
let grow_array arr n = Array.init n (fun i -> if i < Array.length arr then arr.(i) else true)

let ensure_capacity t n =
  if n > t.procs then begin
    t.valid <- grow_array t.valid n;
    t.durable <- grow_array t.durable n;
    t.ckpt_snapshot <- grow_array t.ckpt_snapshot n;
    t.procs <- n
  end

let check_proc t proc =
  if proc < 0 || proc >= t.procs then invalid_arg "Inval_table: procedure out of range"

let is_valid t proc =
  check_proc t proc;
  t.valid.(proc)

let write_checkpoint t wal =
  t.ckpt_snapshot <- Array.copy t.valid;
  t.ckpt_lsn <- Wal.next_lsn wal;
  for page = 0 to table_pages t - 1 do
    Io.write t.io ~file:t.ckpt_file ~page
  done;
  Wal.truncate_before wal t.ckpt_lsn;
  t.since_ckpt <- 0

let record t proc now_valid =
  t.recorded <- t.recorded + 1;
  match t.scheme with
  | Page_flag ->
    (* read the object's first page, flip the flag, write it back *)
    Io.read t.io ~file:t.flag_file ~page:proc;
    Io.write t.io ~file:t.flag_file ~page:proc;
    t.durable.(proc) <- now_valid
  | Nvram -> t.durable.(proc) <- now_valid
  | Wal_logged { checkpoint_every } ->
    let wal = Option.get t.wal in
    ignore (Wal.append wal { proc; now_valid });
    t.since_ckpt <- t.since_ckpt + 1;
    if t.since_ckpt >= checkpoint_every then write_checkpoint t wal

let set_invalid t proc =
  check_proc t proc;
  if t.valid.(proc) then begin
    t.valid.(proc) <- false;
    record t proc false
  end

let set_valid t proc =
  check_proc t proc;
  if not t.valid.(proc) then begin
    t.valid.(proc) <- true;
    record t proc true
  end

let end_of_transaction t =
  match t.wal with Some wal -> Wal.force wal | None -> ()

let crash_volatile t =
  match t.wal with Some wal -> Wal.crash wal | None -> 0

let crash_and_recover t =
  let recovered =
    match t.scheme with
    | Page_flag ->
      (* read every object's flag page *)
      for proc = 0 to t.procs - 1 do
        Io.read t.io ~file:t.flag_file ~page:proc
      done;
      Array.copy t.durable
    | Nvram -> Array.copy t.durable
    | Wal_logged _ ->
      let wal = Option.get t.wal in
      (* read the checkpoint image, then replay the log suffix *)
      for page = 0 to table_pages t - 1 do
        Io.read t.io ~file:t.ckpt_file ~page
      done;
      let state = Array.copy t.ckpt_snapshot in
      let durable = Wal.durable_lsn wal in
      List.iter
        (fun (lsn, { proc; now_valid }) -> if lsn < durable then state.(proc) <- now_valid)
        (Wal.records_from wal t.ckpt_lsn);
      state
  in
  { t with valid = recovered; durable = Array.copy recovered }

let invalidations_recorded t = t.recorded

let pp ppf t =
  let invalid = Array.fold_left (fun acc v -> if v then acc else acc + 1) 0 t.valid in
  Format.fprintf ppf "%s: %d/%d invalid, %d transitions recorded" (scheme_name t.scheme)
    invalid t.procs t.recorded
