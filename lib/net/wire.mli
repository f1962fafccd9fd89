(** Serialization for the coordinator-facing protocol bodies: tuples,
    replication records and semijoin probes.

    Everything is line-oriented text inside an 8-bit-clean frame body.
    Tuples serialize one per line, fields tab-separated, each field
    tagged by one leading character ([i]nt / [f]loat / [s]tring); floats
    use OCaml's [%h] hex literals so every bit pattern round-trips, and
    strings use [String.escaped], which escapes the tab/newline
    separators.  The result digest is MD5 over the {e sorted} serialized
    multiset, so it is independent of partition order and per-node scan
    order — that digest is what the cluster-vs-single-node differential
    compares. *)

open Dbproc_relation

exception Malformed of string
(** Raised by every [parse_*]/[decode_*] on input this module did not
    produce. *)

val encode_tuple : Tuple.t -> string

val digest_tuples : Tuple.t list -> string
(** MD5 hex of the sorted serialized multiset (multiplicity preserved). *)

(** {2 Protocol bodies} *)

val tuples_body : ms:float -> Tuple.t list -> string
(** {!Protocol.Tuples} body: an ["ms <%h>"] header line (the simulated
    milliseconds the node charged executing the fetch), then one
    serialized tuple per line. *)

val parse_tuples_body : string -> float * Tuple.t list

val records_body : (int * string) list -> string
(** {!Protocol.Wal_records} body: one ["<lsn>\t<statement>"] line per
    replication record, the statement escaped like a string value, so a
    client's raw newline inside a string literal ships intact. *)

val parse_records_body : string -> (int * string) list

val join_probe_body : attr:int -> stmt:string -> Value.t list -> string
(** {!Protocol.Join_probe} body: ["attr <pos>"], ["stmt <retrieve>"]
    (escaped like a record statement), then one encoded join-key value
    per line.  The node executes the retrieve locally and returns only
    tuples whose [attr] field is in the key set. *)

val parse_join_probe_body : string -> int * string * Value.t list
