open Dbproc_relation

(* Row-backed batch with lazily materialized columns.  The row array is
   primary: scans and probes hand the stored tuples through by pointer,
   and the output side returns them without reconstructing values.  The
   array may be longer than the batch ([n] is authoritative) so producers
   that compact survivors in place never re-copy to trim.  A flat
   per-attribute column materializes on first columnar access and is
   cached on the batch — a scan join sweeps the key column of its cached
   inner batch once per execution.  Filters sweep a selection vector per
   term and gather surviving row pointers. *)

type t = {
  arity : int;
  n : int; (* rows in the batch; [rows] may be longer *)
  rows : Tuple.t array;
  mutable cols : Value.t array array option; (* cols.(attr).(row), lazy *)
}

let empty ~arity = { arity; n = 0; rows = [||]; cols = None }
let length b = b.n
let arity b = b.arity

let unsafe_of_rows_n ~arity rows n =
  if n = 0 then empty ~arity else { arity; n; rows; cols = None }

let unsafe_of_rows ~arity rows = unsafe_of_rows_n ~arity rows (Array.length rows)

let of_tuples ~arity tuples =
  let rows = Array.of_list tuples in
  unsafe_of_rows ~arity rows

let row b i =
  if i < 0 || i >= b.n then invalid_arg "Batch.row";
  Array.unsafe_get b.rows i

let prepend_tuples b acc =
  let out = ref acc in
  for i = b.n - 1 downto 0 do
    out := Array.unsafe_get b.rows i :: !out
  done;
  !out

let to_tuples b = prepend_tuples b []

let col b a =
  if b.n = 0 then [||]
  else begin
    let cols =
      match b.cols with
      | Some c -> c
      | None ->
        let c = Array.make b.arity [||] in
        b.cols <- Some c;
        c
    in
    if Array.length cols.(a) <> b.n then begin
      let c = Array.make b.n (Tuple.unsafe_get b.rows.(0) a) in
      for i = 1 to b.n - 1 do
        Array.unsafe_set c i (Tuple.unsafe_get (Array.unsafe_get b.rows i) a)
      done;
      cols.(a) <- c
    end;
    cols.(a)
  end

(* ---------------------------------------------------------- predicates *)

(* One term swept over the selection vector: the comparison is compiled
   once, outside the loop ({!Predicate.compile_term}), so the per-row
   work is one field load and one monomorphic comparison. *)
let sweep_term rows (term : Predicate.term) sel n =
  let keep = Predicate.compile_term term in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let r = Array.unsafe_get sel i in
    if keep (Array.unsafe_get rows r) then begin
      Array.unsafe_set sel !m r;
      incr m
    end
  done;
  !m

let gather b sel m =
  { arity = b.arity; n = m; rows = Array.init m (fun j -> b.rows.(sel.(j))); cols = None }

let filter (terms : Predicate.term array) b =
  if Array.length terms = 0 || b.n = 0 then b
  else begin
    let sel = Array.init b.n Fun.id in
    let m = Array.fold_left (fun m term -> sweep_term b.rows term sel m) b.n terms in
    if m = b.n then b else gather b sel m
  end

(* ------------------------------------------------------------- builder *)

module Builder = struct
  type batch = t

  type t = { arity : int; mutable cap : int; mutable n : int; mutable rows : Tuple.t array }

  let dummy_row = Tuple.unsafe_of_array [||]
  let create ~arity = { arity; cap = 0; n = 0; rows = [||] }
  let length b = b.n

  let push b row =
    if b.n = b.cap then begin
      let cap = max 64 (2 * b.cap) in
      let fresh = Array.make cap dummy_row in
      Array.blit b.rows 0 fresh 0 b.n;
      b.rows <- fresh;
      b.cap <- cap
    end;
    Array.unsafe_set b.rows b.n row;
    b.n <- b.n + 1

  (* Append outer row [i] concatenated with the fetched inner tuple (an
     index-probe match). *)
  let append_probe b (outer : batch) i inner = push b (Tuple.concat outer.rows.(i) inner)

  (* Append outer row [i] concatenated with inner batch row [j] (a
     scan-join match). *)
  let append_pair b (outer : batch) i (inner : batch) j =
    push b (Tuple.concat outer.rows.(i) inner.rows.(j))

  let to_batch b = unsafe_of_rows_n ~arity:b.arity b.rows b.n
end
