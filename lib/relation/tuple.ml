type t = Value.t array

let create values = Array.of_list values
let arity = Array.length

let get t i =
  if i < 0 || i >= Array.length t then invalid_arg "Tuple.get: index out of range";
  t.(i)

let unsafe_get (t : t) i = Array.unsafe_get t i
let unsafe_of_array (a : Value.t array) : t = a

let field schema name t = get t (Schema.index_of schema name)
let concat = Array.append

let matches_schema schema t =
  Schema.arity schema = Array.length t
  && Array.for_all2
       (fun (attr : Schema.attr) v -> attr.ty = Value.type_of v)
       (Array.of_list (Schema.attrs schema))
       t

let to_list = Array.to_list

let compare a b =
  let rec go i =
    if i >= Array.length a || i >= Array.length b then
      Int.compare (Array.length a) (Array.length b)
    else
      match Value.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (to_list t)
