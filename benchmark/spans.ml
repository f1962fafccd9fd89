(* The traced run's span log: parallel preallocated arrays, one row per
   span, grown by doubling if a run outgrows its estimate. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable open_span : int;
  mutable cur_op : int;
}

let create ~enabled ~capacity =
  let cap = if enabled then Int.max 16 capacity else 0 in
  {
    enabled;
    names = Hashtbl.create 32;
    name_of = [||];
    len = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    open_span = -1;
    cur_op = 0;
  }

let enabled t = t.enabled

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
    let id = Array.length t.name_of in
    Hashtbl.add t.names s id;
    t.name_of <- Array.append t.name_of [| s |];
    id

let set_op t op = t.cur_op <- op

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- extend t.name;
  t.start <- extend t.start;
  t.stop <- extend t.stop;
  t.parent <- extend t.parent;
  t.op <- extend t.op

let add_row t id ~parent =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- parent;
  t.op.(i) <- t.cur_op;
  i

let record t id ~start ~stop ~parent =
  if not t.enabled then -1
  else begin
    let i = add_row t id ~parent in
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    i
  end

let with_span t id f =
  if not t.enabled then f ()
  else begin
    let i = add_row t id ~parent:t.open_span in
    t.open_span <- i;
    t.start.(i) <- now ();
    let close () =
      t.stop.(i) <- now ();
      t.open_span <- t.parent.(i)
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let self_times t =
  let self = Array.init t.len (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

(* Self times in microseconds grouped by span name. *)
let by_name t =
  let self = self_times t in
  let groups = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let name = t.name_of.(t.name.(i)) in
    let prev = Option.value (Hashtbl.find_opt groups name) ~default:[] in
    Hashtbl.replace groups name (float_of_int self.(i) /. 1e3 :: prev)
  done;
  fun name ->
    match Hashtbl.find_opt groups name with
    | Some l -> Array.of_list l
    | None -> [||]

let coverage t ~wall_ns =
  let roots = ref [] in
  for i = t.len - 1 downto 0 do
    if t.parent.(i) < 0 then roots := (t.start.(i), t.stop.(i)) :: !roots
  done;
  float_of_int (Quantile.union_length (Array.of_list !roots)) /. float_of_int wall_ns

let write_tsv t path =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "name\tstart_ns\tstop_ns\tparent\top\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" t.name_of.(t.name.(i)) t.start.(i)
          t.stop.(i) t.parent.(i) t.op.(i)
      done)
