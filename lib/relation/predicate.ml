type op = Lt | Le | Eq | Ne | Ge | Gt

let eval_op op a b =
  let c = Value.compare a b in
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Eq -> c = 0
  | Ne -> c <> 0
  | Ge -> c >= 0
  | Gt -> c > 0

let negate_op = function Lt -> Ge | Le -> Gt | Eq -> Ne | Ne -> Eq | Ge -> Lt | Gt -> Le

let pp_op ppf op =
  Format.pp_print_string ppf
    (match op with Lt -> "<" | Le -> "<=" | Eq -> "=" | Ne -> "!=" | Ge -> ">=" | Gt -> ">")

type term = { attr : int; op : op; value : Value.t }

let term ~attr ~op ~value = { attr; op; value }
let eval_term t tuple = eval_op t.op (Tuple.get tuple t.attr) t.value

type t = term list

let always_true = []
let eval terms tuple = List.for_all (fun t -> eval_term t tuple) terms

(* Compile a term, once, into a closure specialized on the constant's
   constructor and the operator: per row the work is one field load, one
   monomorphic comparison and an integer test — no term-list walk and no
   inner closure dispatch.  Integer constants (the common case) get one
   flat closure per operator; the mixed-constructor fallback keeps
   {!Value.compare} ordering.  The attribute position must already be
   validated against the schema (the binder and planner do), as the
   field load is unchecked. *)
let compile_term { attr; op; value } =
  match value with
  | Value.Int c -> (
    match op with
    | Lt -> (
      fun tuple ->
        match Tuple.unsafe_get tuple attr with
        | Value.Int x -> x < c
        | x -> Value.compare x value < 0)
    | Le -> (
      fun tuple ->
        match Tuple.unsafe_get tuple attr with
        | Value.Int x -> x <= c
        | x -> Value.compare x value <= 0)
    | Eq -> (
      fun tuple ->
        match Tuple.unsafe_get tuple attr with Value.Int x -> x = c | _ -> false)
    | Ne -> (
      fun tuple ->
        match Tuple.unsafe_get tuple attr with Value.Int x -> x <> c | _ -> true)
    | Ge -> (
      fun tuple ->
        match Tuple.unsafe_get tuple attr with
        | Value.Int x -> x >= c
        | x -> Value.compare x value >= 0)
    | Gt -> (
      fun tuple ->
        match Tuple.unsafe_get tuple attr with
        | Value.Int x -> x > c
        | x -> Value.compare x value > 0))
  | _ ->
    let cmp =
      match value with
      | Value.Int _ -> fun x -> Value.compare x value
      | Value.Float c -> (
        fun x -> match x with Value.Float x -> Float.compare x c | x -> Value.compare x value)
      | Value.Str c -> (
        fun x -> match x with Value.Str x -> String.compare x c | x -> Value.compare x value)
    in
    (match op with
    | Lt -> fun tuple -> cmp (Tuple.unsafe_get tuple attr) < 0
    | Le -> fun tuple -> cmp (Tuple.unsafe_get tuple attr) <= 0
    | Eq -> fun tuple -> cmp (Tuple.unsafe_get tuple attr) = 0
    | Ne -> fun tuple -> cmp (Tuple.unsafe_get tuple attr) <> 0
    | Ge -> fun tuple -> cmp (Tuple.unsafe_get tuple attr) >= 0
    | Gt -> fun tuple -> cmp (Tuple.unsafe_get tuple attr) > 0)

let compile = function
  | [] -> fun _ -> true
  | [ t ] -> compile_term t
  | terms ->
    let compiled = Array.of_list (List.map compile_term terms) in
    let k = Array.length compiled in
    fun tuple ->
      let rec go i = i >= k || (compiled.(i) tuple && go (i + 1)) in
      go 0

let sort_terms terms =
  List.sort
    (fun a b ->
      match compare a.attr b.attr with
      | 0 -> (
        match compare a.op b.op with 0 -> Value.compare a.value b.value | c -> c)
      | c -> c)
    terms

let equal a b =
  let a = sort_terms a and b = sort_terms b in
  List.length a = List.length b
  && List.for_all2
       (fun x y -> x.attr = y.attr && x.op = y.op && Value.equal x.value y.value)
       a b

type join_term = { left_attr : int; op : op; right_attr : int }

let join_term ~left_attr ~op ~right_attr = { left_attr; op; right_attr }

let eval_join jt ~left ~right =
  eval_op jt.op (Tuple.get left jt.left_attr) (Tuple.get right jt.right_attr)

let pp schema ppf terms =
  match terms with
  | [] -> Format.pp_print_string ppf "true"
  | _ ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " and ")
      (fun ppf t ->
        Format.fprintf ppf "%s %a %a" (Schema.attr schema t.attr).name pp_op t.op Value.pp
          t.value)
      ppf terms
