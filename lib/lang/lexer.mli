(** Tokenizer for the command language.

    Identifiers are ASCII letters/digits/underscore starting with a
    letter; keywords are recognized case-insensitively by the parser, so
    the lexer only distinguishes token shapes.  Comments run from [--] to
    end of line.  Inside a string literal a backslash takes the next byte
    literally, except that [\n] reads as a newline ({!Ast.to_string} is
    the inverse). *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | EQ  (** [=] *)
  | NE  (** [!=] *)
  | LT
  | LE
  | GT
  | GE

exception Lex_error of string
(** Raised on an unexpected character or an unterminated string; the
    message includes the offending position. *)

val tokenize : string -> token list
val pp_token : Format.formatter -> token -> unit
