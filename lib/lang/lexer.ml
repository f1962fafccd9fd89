type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE

exception Lex_error of string

let error fmt = Format.kasprintf (fun s -> raise (Lex_error s)) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
        (* comment to end of line *)
        let rec skip j = if j < n && input.[j] <> '\n' then skip (j + 1) else j in
        go (skip i) acc
      | '(' -> go (i + 1) (LPAREN :: acc)
      | ')' -> go (i + 1) (RPAREN :: acc)
      | ',' -> go (i + 1) (COMMA :: acc)
      | '=' -> go (i + 1) (EQ :: acc)
      | '!' when i + 1 < n && input.[i + 1] = '=' -> go (i + 2) (NE :: acc)
      | '<' when i + 1 < n && input.[i + 1] = '>' -> go (i + 2) (NE :: acc)
      | '<' when i + 1 < n && input.[i + 1] = '=' -> go (i + 2) (LE :: acc)
      | '<' -> go (i + 1) (LT :: acc)
      | '>' when i + 1 < n && input.[i + 1] = '=' -> go (i + 2) (GE :: acc)
      | '>' -> go (i + 1) (GT :: acc)
      | '"' ->
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then error "unterminated string starting at offset %d" i
          else
            match input.[j] with
            | '"' -> j + 1
            | '\\' when j + 1 < n ->
              Buffer.add_char buf (if input.[j + 1] = 'n' then '\n' else input.[j + 1]);
              str (j + 2)
            | c ->
              Buffer.add_char buf c;
              str (j + 1)
        in
        let next = str (i + 1) in
        go next (STRING (Buffer.contents buf) :: acc)
      | c when is_digit c || (c = '-' && i + 1 < n && is_digit input.[i + 1]) ->
        let rec num j seen_dot =
          if j < n && (is_digit input.[j] || (input.[j] = '.' && not seen_dot)) then
            num (j + 1) (seen_dot || input.[j] = '.')
          else (j, seen_dot)
        in
        let stop, is_float = num (i + 1) false in
        (* optional exponent: [eE][+-]?digits forces a float, so %.17g
           output ("1e-05") round-trips through the shell *)
        let stop, is_float =
          if
            stop < n
            && (input.[stop] = 'e' || input.[stop] = 'E')
            &&
            let j = if stop + 1 < n && (input.[stop + 1] = '+' || input.[stop + 1] = '-') then stop + 2 else stop + 1 in
            j < n && is_digit input.[j]
          then begin
            let j = if input.[stop + 1] = '+' || input.[stop + 1] = '-' then stop + 2 else stop + 1 in
            let rec exp j = if j < n && is_digit input.[j] then exp (j + 1) else j in
            (exp j, true)
          end
          else (stop, is_float)
        in
        let text = String.sub input i (stop - i) in
        let tok =
          if is_float then FLOAT (float_of_string text)
          else
            match int_of_string_opt text with
            | Some v -> INT v
            | None -> error "bad number %S" text
        in
        go stop (tok :: acc)
      | c when is_ident_start c ->
        let rec ident j = if j < n && is_ident_char input.[j] then ident (j + 1) else j in
        let stop = ident (i + 1) in
        go stop (IDENT (String.sub input i (stop - i)) :: acc)
      | '.' -> go (i + 1) (DOT :: acc)
      | c -> error "unexpected character %C at offset %d" c i
  in
  go 0 []

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident %s" s
  | INT i -> Format.fprintf ppf "int %d" i
  | FLOAT f -> Format.fprintf ppf "float %g" f
  | STRING s -> Format.fprintf ppf "string %S" s
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | COMMA -> Format.pp_print_string ppf ","
  | DOT -> Format.pp_print_string ppf "."
  | EQ -> Format.pp_print_string ppf "="
  | NE -> Format.pp_print_string ppf "!="
  | LT -> Format.pp_print_string ppf "<"
  | LE -> Format.pp_print_string ppf "<="
  | GT -> Format.pp_print_string ppf ">"
  | GE -> Format.pp_print_string ppf ">="
