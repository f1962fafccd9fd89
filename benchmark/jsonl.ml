module Export = Dbproc.Obs.Export

(* Shortest decimal that reads back as the same float, so a measured value
   keeps every digit it has. *)
let number f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let to_string json =
  let buf = Buffer.create 1024 in
  let rec go = function
    | Export.Null -> Buffer.add_string buf "null"
    | Export.Bool b -> Buffer.add_string buf (string_of_bool b)
    | Export.Int i -> Buffer.add_string buf (string_of_int i)
    | Export.Float f ->
      Buffer.add_string buf (if Float.is_finite f then number f else "null")
    | Export.String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | Export.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        items;
      Buffer.add_char buf ']'
    | Export.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          go (Export.String k);
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go json;
  Buffer.contents buf

let to_float = function
  | Export.Int i -> Some (float_of_int i)
  | Export.Float f -> Some f
  | _ -> None
