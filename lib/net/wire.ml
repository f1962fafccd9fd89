open Dbproc_relation

exception Malformed of string

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* Strings and statements travel as String.escaped text, which escapes
   the tab and newline this format uses as separators.  Text without a
   backslash had nothing escaped, so it skips the costly Scanf pass. *)
let unescape what s =
  if not (String.contains s '\\') then s
  else
    match Scanf.unescaped s with
    | v -> v
    | exception (Scanf.Scan_failure _ | Failure _) -> fail "bad %s %S" what s

(* Values are tagged by one leading character.  Floats go out as OCaml's
   %h hex-float literals so every bit pattern round-trips. *)
let encode_value = function
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> Printf.sprintf "f%h" f
  | Value.Str s -> "s" ^ String.escaped s

let decode_value s =
  if String.length s = 0 then fail "empty value field";
  let rest = String.sub s 1 (String.length s - 1) in
  match s.[0] with
  | 'i' -> (
    match int_of_string_opt rest with
    | Some i -> Value.Int i
    | None -> fail "bad int field %S" s)
  | 'f' -> (
    match float_of_string_opt rest with
    | Some f -> Value.Float f
    | None -> fail "bad float field %S" s)
  | 's' -> Value.Str (unescape "string field" rest)
  | _ -> fail "unknown value tag in %S" s

let encode_tuple t =
  String.concat "\t" (List.map encode_value (Tuple.to_list t))

let decode_tuple line =
  Tuple.create (List.map decode_value (String.split_on_char '\t' line))

(* Result digest: MD5 over the sorted serialized multiset, so the digest
   is independent of partition order and per-node scan order — the
   cluster-vs-single-node differential compares these. *)
let digest_tuples tuples =
  let lines = List.sort String.compare (List.map encode_tuple tuples) in
  let buf = Buffer.create 256 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------ Tuples response body *)

let tuples_body ~ms tuples =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "ms %h" ms);
  List.iter
    (fun t ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (encode_tuple t))
    tuples;
  Buffer.contents buf

let parse_tuples_body body =
  match String.split_on_char '\n' body with
  | [] -> fail "empty tuples body"
  | header :: lines ->
    let ms =
      match String.length header >= 3 && String.sub header 0 3 = "ms " with
      | true -> (
        match float_of_string_opt (String.sub header 3 (String.length header - 3)) with
        | Some f -> f
        | None -> fail "bad ms header %S" header)
      | false -> fail "bad ms header %S" header
    in
    (ms, List.map decode_tuple lines)

(* -------------------------------------------- Wal_records response body *)

let records_body records =
  String.concat "\n"
    (List.map (fun (lsn, stmt) -> Printf.sprintf "%d\t%s" lsn (String.escaped stmt)) records)

let parse_records_body body =
  if body = "" then []
  else
    List.map
      (fun line ->
        match String.index_opt line '\t' with
        | None -> fail "bad record line %S" line
        | Some i -> (
          match int_of_string_opt (String.sub line 0 i) with
          | Some lsn ->
            let stmt = String.sub line (i + 1) (String.length line - i - 1) in
            (lsn, unescape "record statement" stmt)
          | None -> fail "bad record lsn in %S" line))
      (String.split_on_char '\n' body)

(* --------------------------------------------- Join_probe request body *)

let join_probe_body ~attr ~stmt keys =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "attr %d\nstmt %s" attr (String.escaped stmt));
  List.iter
    (fun v ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (encode_value v))
    keys;
  Buffer.contents buf

let parse_join_probe_body body =
  match String.split_on_char '\n' body with
  | attr_line :: stmt_line :: keys ->
    let attr =
      match
        String.length attr_line > 5
        && String.sub attr_line 0 5 = "attr "
        && int_of_string_opt (String.sub attr_line 5 (String.length attr_line - 5))
           <> None
      with
      | true -> int_of_string (String.sub attr_line 5 (String.length attr_line - 5))
      | false -> fail "bad attr line %S" attr_line
    in
    let stmt =
      if String.length stmt_line >= 5 && String.sub stmt_line 0 5 = "stmt " then
        unescape "probe statement" (String.sub stmt_line 5 (String.length stmt_line - 5))
      else fail "bad stmt line %S" stmt_line
    in
    (attr, stmt, List.map decode_value keys)
  | _ -> fail "truncated join probe body"
