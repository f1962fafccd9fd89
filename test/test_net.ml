(* Tests for Dbproc.Net: the framed wire protocol (including fuzz of the
   strict decoder), the select-loop server over a loopback socket, the
   blocking client, the Parallel.Chan queue the shards ride on, and the
   load generator's reconciliation.

   Every server here binds port 0 (ephemeral) on 127.0.0.1 and runs in
   its own domain; tests drive it through real sockets. *)

open Dbproc
module P = Net.Protocol

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------- protocol *)

let sample_requests =
  [
    P.Ping;
    P.Exec_line "show relations";
    P.Exec_line "";
    P.Exec_line "bytes \x00\x01\xff are fine";
    P.Exec_script "create R (k = int)\nappend to R (k = 1)\n";
    P.Stats;
    P.Begin;
    P.Commit;
    P.Abort;
    P.Shutdown;
    P.Fetch "retrieve (R.all) where R.k = 3";
    P.Join_probe "attr 0\nstmt retrieve (S.all)\ni 1\ni 7";
    P.Wal_pull "42";
    P.Wal_push "3\tappend to R (k = 1)\n4\tdelete from R where R.k = 0";
    P.Promote;
    P.Txn_exec "7 append to R (k = 1, v = 2)";
    P.Txn_prepare "7";
    P.Txn_commit "7";
    P.Txn_abort "12";
  ]

let sample_responses =
  [
    P.Pong;
    P.Output "3 tuples";
    P.Output "";
    P.Failed "line 2: unknown command \"nope\"";
    P.Rejected "server busy (in-flight limit)";
    P.Aborted "deadlock: transaction aborted (victim)";
    P.Tuples "ms 0x1.8p4\ni 1\ti 10";
    P.Wal_records "7\tappend to R (k = 9)";
    P.Blocked "3 -1 7";
    P.Blocked "";
  ]

let test_request_roundtrip () =
  let dec = P.Decoder.create () in
  List.iteri
    (fun i req -> P.Decoder.feed_string dec (P.request_to_string ~id:(i + 1) req))
    sample_requests;
  List.iteri
    (fun i req ->
      match P.Decoder.next_request dec with
      | P.Msg (id, got) ->
        Alcotest.(check int) "id" (i + 1) id;
        Alcotest.(check bool) "payload" true (got = req)
      | P.Awaiting -> Alcotest.fail "decoder starved"
      | P.Corrupt msg -> Alcotest.failf "corrupt: %s" msg)
    sample_requests;
  Alcotest.(check bool) "drained" true (P.Decoder.next_request dec = P.Awaiting);
  Alcotest.(check int) "clean boundary" 0 (P.Decoder.buffered dec)

let test_response_roundtrip_bytewise () =
  (* one byte at a time: framing must not depend on chunk boundaries *)
  let stream =
    String.concat ""
      (List.mapi (fun i resp -> P.response_to_string ~id:(i * 7) resp) sample_responses)
  in
  let dec = P.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      P.Decoder.feed_string dec (String.make 1 c);
      match P.Decoder.next_response dec with
      | P.Msg (id, resp) -> got := (id, resp) :: !got
      | P.Awaiting -> ()
      | P.Corrupt msg -> Alcotest.failf "corrupt: %s" msg)
    stream;
  let got = List.rev !got in
  Alcotest.(check int) "all decoded" (List.length sample_responses) (List.length got);
  List.iteri
    (fun i resp ->
      let id, r = List.nth got i in
      Alcotest.(check int) "id" (i * 7) id;
      Alcotest.(check bool) "payload" true (r = resp))
    sample_responses

let test_decoder_rejects () =
  let corrupt_after feed =
    let dec = P.Decoder.create ~max_frame:64 () in
    P.Decoder.feed_string dec feed;
    match P.Decoder.next_request dec with
    | P.Corrupt msg -> msg
    | P.Msg _ -> Alcotest.fail "decoded malformed input"
    | P.Awaiting -> Alcotest.fail "no verdict on malformed input"
  in
  let frame payload =
    let b = Buffer.create 16 in
    Buffer.add_int32_be b (Int32.of_int (String.length payload));
    Buffer.add_string b payload;
    Buffer.contents b
  in
  (* payload shorter than id + tag *)
  Alcotest.(check bool) "short payload" true (contains (corrupt_after (frame "abc")) "short");
  (* over max_frame: rejected from the length field alone *)
  let big = Buffer.create 8 in
  Buffer.add_int32_be big 65l;
  Alcotest.(check bool) "oversized" true
    (contains (corrupt_after (Buffer.contents big)) "oversized");
  (* unknown tag *)
  Alcotest.(check bool) "unknown tag" true
    (contains (corrupt_after (frame "\x00\x00\x00\x01\x7fbody")) "tag");
  (* body on a body-less tag (Ping = 0x01) *)
  Alcotest.(check bool) "body on ping" true
    (contains (corrupt_after (frame "\x00\x00\x00\x01\x01junk")) "body");
  (* response tags are not valid requests: disjoint ranges *)
  let pong = P.response_to_string ~id:9 P.Pong in
  Alcotest.(check bool) "response tag rejected as request" true
    (contains (corrupt_after pong) "tag")

(* The boundary the rejection tests skip: a payload of exactly
   [max_frame] bytes is legal and must decode — one byte more is not.
   Checked for a core tag and through every coordinator-facing tag on
   both sides of the protocol. *)
let test_decoder_exact_max_frame () =
  let max_frame = 256 in
  let body_len = max_frame - 5 (* id + tag *) in
  let decode_request encoded =
    let dec = P.Decoder.create ~max_frame () in
    P.Decoder.feed_string dec encoded;
    P.Decoder.next_request dec
  in
  let roundtrip_request what req =
    let encoded = P.request_to_string ~id:7 req in
    Alcotest.(check int) (what ^ ": frame is exactly max") (4 + max_frame)
      (String.length encoded);
    match decode_request encoded with
    | P.Msg (id, got) ->
      Alcotest.(check int) (what ^ ": id") 7 id;
      Alcotest.(check bool) (what ^ ": payload") true (got = req)
    | P.Awaiting -> Alcotest.failf "%s: starved on an exact-max frame" what
    | P.Corrupt msg -> Alcotest.failf "%s: rejected an exact-max frame: %s" what msg
  in
  let body = String.make body_len 'x' in
  roundtrip_request "exec_line" (P.Exec_line body);
  roundtrip_request "fetch" (P.Fetch body);
  roundtrip_request "join_probe" (P.Join_probe body);
  roundtrip_request "wal_pull" (P.Wal_pull body);
  roundtrip_request "wal_push" (P.Wal_push body);
  (* responses too: Tuples/Wal_records are what actually get big *)
  List.iter
    (fun (what, resp) ->
      let encoded = P.response_to_string ~id:3 resp in
      Alcotest.(check int) (what ^ ": frame is exactly max") (4 + max_frame)
        (String.length encoded);
      let dec = P.Decoder.create ~max_frame () in
      P.Decoder.feed_string dec encoded;
      match P.Decoder.next_response dec with
      | P.Msg (_, got) -> Alcotest.(check bool) (what ^ ": payload") true (got = resp)
      | P.Awaiting | P.Corrupt _ -> Alcotest.failf "%s: exact-max response rejected" what)
    [
      ("output", P.Output body);
      ("tuples", P.Tuples body);
      ("wal_records", P.Wal_records body);
    ];
  (* one byte over: rejected from the length field alone *)
  match decode_request (P.request_to_string ~id:7 (P.Exec_line (body ^ "y"))) with
  | P.Corrupt msg ->
    Alcotest.(check bool) "one-over is oversized" true (contains msg "oversized")
  | _ -> Alcotest.fail "max_frame + 1 must be rejected"

let test_decoder_poisoned_stays_poisoned () =
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec "\x00\x00\x00\x01x";
  (match P.Decoder.next_request dec with
  | P.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected corrupt");
  (* a perfectly valid frame after the fact must not resurrect it *)
  P.Decoder.feed_string dec (P.request_to_string ~id:1 P.Ping);
  (match P.Decoder.next_request dec with
  | P.Corrupt _ -> ()
  | _ -> Alcotest.fail "poisoning must be permanent");
  Alcotest.(check bool) "corrupt exposed" true (P.Decoder.corrupt dec <> None)

let test_decoder_truncated_at_eof () =
  let whole = P.request_to_string ~id:3 (P.Exec_line "show cost") in
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec (String.sub whole 0 (String.length whole - 1));
  Alcotest.(check bool) "still awaiting" true (P.Decoder.next_request dec = P.Awaiting);
  Alcotest.(check bool) "truncation visible" true (P.Decoder.buffered dec > 0)

(* Random requests, encoded back to back, fed in random chunks: the
   decoder must return exactly the input sequence. *)
let request_gen =
  let open QCheck.Gen in
  oneof
    [
      return P.Ping;
      return P.Stats;
      return P.Shutdown;
      map (fun s -> P.Exec_line s) (string_size (int_bound 80));
      map (fun s -> P.Exec_script s) (string_size (int_bound 300));
      return P.Promote;
      map (fun s -> P.Fetch s) (string_size (int_bound 80));
      map (fun s -> P.Join_probe s) (string_size (int_bound 120));
      map (fun n -> P.Wal_pull (string_of_int n)) (int_bound 1_000_000);
      map (fun s -> P.Wal_push s) (string_size (int_bound 200));
    ]

let fuzz_roundtrip_chunked =
  QCheck.Test.make ~count:200 ~name:"fuzz: chunked encode/decode is the identity"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 20) request_gen) (int_range 1 64)))
    (fun (reqs, chunk) ->
      let stream =
        String.concat "" (List.mapi (fun i r -> P.request_to_string ~id:i r) reqs)
      in
      let dec = P.Decoder.create () in
      let got = ref [] in
      let n = String.length stream in
      let rec feed off =
        if off < n then begin
          let len = min chunk (n - off) in
          P.Decoder.feed_string dec (String.sub stream off len);
          let rec drain () =
            match P.Decoder.next_request dec with
            | P.Msg (id, r) ->
              got := (id, r) :: !got;
              drain ()
            | P.Awaiting -> ()
            | P.Corrupt msg -> QCheck.Test.fail_reportf "corrupt: %s" msg
          in
          drain ();
          feed (off + len)
        end
      in
      feed 0;
      P.Decoder.buffered dec = 0
      && List.rev !got = List.mapi (fun i r -> (i, r)) reqs)

(* Arbitrary garbage must never raise — only Msg/Awaiting/Corrupt. *)
let fuzz_garbage_never_raises =
  QCheck.Test.make ~count:500 ~name:"fuzz: random bytes never crash the decoder"
    (QCheck.make QCheck.Gen.(string_size (int_bound 200)))
    (fun junk ->
      let dec = P.Decoder.create ~max_frame:4096 () in
      P.Decoder.feed_string dec junk;
      let rec drain budget =
        if budget = 0 then true
        else
          match P.Decoder.next_request dec with
          | P.Msg _ -> drain (budget - 1)
          | P.Awaiting | P.Corrupt _ -> true
      in
      drain 1000)

(* A single flipped bit in a valid stream: decodes cleanly up to the
   damage, then Awaiting or Corrupt — never an exception, never a bogus
   trailing message count. *)
let fuzz_bitflip =
  QCheck.Test.make ~count:300 ~name:"fuzz: bit flips fail clean"
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (int_range 1 8) request_gen) (int_bound 10_000) (int_bound 7)))
    (fun (reqs, byte_seed, bit) ->
      let stream =
        String.concat "" (List.mapi (fun i r -> P.request_to_string ~id:i r) reqs)
      in
      let pos = byte_seed mod String.length stream in
      let b = Bytes.of_string stream in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let dec = P.Decoder.create ~max_frame:4096 () in
      P.Decoder.feed dec b ~off:0 ~len:(Bytes.length b);
      let rec drain n =
        if n > List.length reqs then false (* more messages out than in *)
        else
          match P.Decoder.next_request dec with
          | P.Msg _ -> drain (n + 1)
          | P.Awaiting | P.Corrupt _ -> true
      in
      drain 0)

(* ------------------------------------------------------- Parallel.Chan *)

let test_chan_fifo () =
  let ch = Workload.Parallel.Chan.create () in
  Alcotest.(check bool) "empty try_pop" true (Workload.Parallel.Chan.try_pop ch = None);
  for i = 1 to 100 do
    Workload.Parallel.Chan.push ch i
  done;
  Alcotest.(check int) "length" 100 (Workload.Parallel.Chan.length ch);
  for i = 1 to 100 do
    Alcotest.(check int) "fifo order" i (Workload.Parallel.Chan.pop ch)
  done

let test_chan_cross_domain () =
  let ch = Workload.Parallel.Chan.create () in
  let out = Workload.Parallel.Chan.create () in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc =
          match Workload.Parallel.Chan.pop ch with
          | -1 -> Workload.Parallel.Chan.push out (List.rev acc)
          | v -> go (v :: acc)
        in
        go [])
  in
  for i = 1 to 50 do
    Workload.Parallel.Chan.push ch i
  done;
  Workload.Parallel.Chan.push ch (-1);
  let received = Workload.Parallel.Chan.pop out in
  Domain.join consumer;
  Alcotest.(check (list int)) "order preserved across domains" (List.init 50 (fun i -> i + 1))
    received

(* --------------------------------------------------------- server e2e *)

let with_server ?(shards = 1) ?(tweak = fun c -> c) f =
  let config =
    tweak { Net.Server.default_config with port = 0; shards; idle_timeout = 0.0 }
  in
  let server = Net.Server.create ~config () in
  let port = Net.Server.port server in
  let d = Domain.spawn (fun () -> Net.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.shutdown server;
      Domain.join d)
    (fun () -> f port)

let emp_script =
  String.concat "\n"
    [
      "create EMP (name = string, age = int, dept = string)";
      "create DEPT (dname = string, floor = int)";
      "index DEPT hash on dname primary";
      "append to DEPT (dname = \"Shipping\", floor = 1)";
      "append to EMP (name = \"Alice\", age = 30, dept = \"Shipping\")";
      "append to EMP (name = \"Bob\", age = 40, dept = \"Shipping\")";
      "show relations";
      "retrieve (EMP.name, DEPT.floor) where EMP.dept = DEPT.dname and EMP.age < 32";
      "show cost";
    ]

let test_loopback_script_matches_local () =
  (* the acceptance bar: a script over the socket is byte-identical to
     the same script against a local interpreter *)
  let local =
    match Lang.Interp.exec_script (Lang.Interp.create ()) emp_script with
    | Ok out -> out
    | Error msg -> Alcotest.failf "local script failed: %s" msg
  in
  with_server (fun port ->
      let client = Net.Client.connect ~host:"127.0.0.1" ~port () in
      let remote =
        match Net.Client.call client (P.Exec_script emp_script) with
        | P.Output out -> out
        | P.Failed msg -> Alcotest.failf "remote script failed: %s" msg
        | P.Rejected msg -> Alcotest.failf "rejected: %s" msg
        | P.Aborted msg -> Alcotest.failf "aborted: %s" msg
        | P.Pong -> Alcotest.fail "pong?"
        | P.Blocked _ -> Alcotest.fail "blocked?"
        | P.Tuples _ | P.Wal_records _ -> Alcotest.fail "node-tier frame?"
      in
      Net.Client.close client;
      Alcotest.(check string) "socket output = local output" local remote)

let test_loopback_lines_match_local () =
  (* same but line-by-line, exercising per-request framing on one
     session *)
  let lines = String.split_on_char '\n' emp_script in
  let local_session = Lang.Interp.create () in
  with_server (fun port ->
      let client = Net.Client.connect ~host:"127.0.0.1" ~port () in
      List.iter
        (fun line ->
          let local = Lang.Interp.exec_line local_session line in
          match (Net.Client.call client (P.Exec_line line), local) with
          | P.Output remote, Ok local -> Alcotest.(check string) line local remote
          | P.Failed remote, Error local ->
            Alcotest.(check string) (line ^ " (error)") local remote
          | _ -> Alcotest.failf "remote/local disagree on %S" line)
        lines;
      Net.Client.close client)

let test_save_refused_over_the_wire () =
  (* [save] would write a file where the server runs: refused as a line
     and inside a script, and no file appears *)
  let dir = Filename.temp_dir "dbproc-save" "" in
  let path = Filename.concat dir "x.dbp" in
  let save = Printf.sprintf "save %S" path in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      with_server (fun port ->
          let client = Net.Client.connect ~host:"127.0.0.1" ~port () in
          let refused what req expect =
            match Net.Client.call client req with
            | P.Failed msg -> Alcotest.(check string) what expect msg
            | P.Output out -> Alcotest.failf "%s: served: %s" what out
            | _ -> Alcotest.failf "%s: unexpected response" what
          in
          refused "line" (P.Exec_line save) Net.Node.save_refused;
          refused "script"
            (P.Exec_script ("create R (k = int)\n" ^ save))
            ("line 2: " ^ Net.Node.save_refused);
          Net.Client.close client);
      Alcotest.(check bool) "no file written" false (Sys.file_exists path))

let test_pipelined_pings () =
  with_server (fun port ->
      let client = Net.Client.connect ~host:"127.0.0.1" ~port () in
      let ids = List.init 32 (fun _ -> Net.Client.send client P.Ping) in
      List.iter
        (fun expect ->
          let id, resp = Net.Client.recv client in
          Alcotest.(check int) "responses in request order" expect id;
          Alcotest.(check bool) "pong" true (resp = P.Pong))
        ids;
      Net.Client.close client)

let test_stats_snapshot () =
  with_server (fun port ->
      let client = Net.Client.connect ~host:"127.0.0.1" ~port () in
      ignore (Net.Client.call client P.Ping);
      (match Net.Client.call client P.Stats with
      | P.Output body -> (
        match Obs.Export.parse body with
        | Error msg -> Alcotest.failf "stats JSON invalid: %s" msg
        | Ok doc -> (
          match Obs.Export.member "counters" doc with
          | Some (Obs.Export.Obj fields) ->
            let geti name =
              match List.assoc_opt name fields with
              | Some (Obs.Export.Int n) -> n
              | _ -> -1
            in
            Alcotest.(check bool) "accepted >= 1" true (geti "net.accepted" >= 1);
            Alcotest.(check int) "no bad frames" 0 (geti "net.frames_bad");
            Alcotest.(check bool) "ping served" true (geti "net.requests_served" >= 1);
            Alcotest.(check bool) "bytes counted" true
              (geti "net.bytes_in" > 0 && geti "net.bytes_out" > 0)
          | _ -> Alcotest.fail "no counters object in stats"))
      | r -> Alcotest.failf "stats: unexpected %s" (P.response_to_string ~id:0 r));
      Net.Client.close client)

let test_malformed_frame_poisons_connection () =
  with_server (fun port ->
      let client = Net.Client.connect ~host:"127.0.0.1" ~port () in
      ignore (Net.Client.call client P.Ping);
      (* hand-write garbage on the same socket via a second client's
         buffer: easiest is a raw send through a fresh socket *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let junk = "\x00\x00\x00\x03abc" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      (* server answers with one id-0 Failed frame, then closes *)
      let buf = Bytes.create 4096 in
      let dec = P.Decoder.create () in
      let rec read_all () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          P.Decoder.feed dec buf ~off:0 ~len:n;
          read_all ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      read_all ();
      (match P.Decoder.next_response dec with
      | P.Msg (0, P.Failed msg) ->
        Alcotest.(check bool) "protocol error named" true (contains msg "protocol error")
      | r ->
        Alcotest.failf "expected id-0 Failed, got %s"
          (match r with
          | P.Msg (id, m) -> P.response_to_string ~id m
          | P.Awaiting -> "nothing"
          | P.Corrupt m -> "corrupt: " ^ m));
      Unix.close fd;
      (* the healthy connection is unaffected *)
      (match Net.Client.call client P.Ping with
      | P.Pong -> ()
      | _ -> Alcotest.fail "healthy connection broken by someone else's garbage");
      (* and the server counted the bad frame *)
      (match Net.Client.call client P.Stats with
      | P.Output body -> (
        match Obs.Export.parse body with
        | Ok doc -> (
          match Obs.Export.member "counters" doc with
          | Some (Obs.Export.Obj fields) -> (
            match List.assoc_opt "net.frames_bad" fields with
            | Some (Obs.Export.Int n) -> Alcotest.(check int) "frames_bad" 1 n
            | _ -> Alcotest.fail "net.frames_bad missing")
          | _ -> Alcotest.fail "no counters")
        | Error msg -> Alcotest.failf "stats JSON invalid: %s" msg)
      | _ -> Alcotest.fail "stats failed");
      Net.Client.close client)

let test_conn_limit_rejects () =
  with_server ~tweak:(fun c -> { c with Net.Server.max_conns = 1 }) (fun port ->
      let first = Net.Client.connect ~host:"127.0.0.1" ~port () in
      ignore (Net.Client.call first P.Ping);
      let second = Net.Client.connect ~host:"127.0.0.1" ~port () in
      (match Net.Client.recv second with
      | 0, P.Rejected msg ->
        Alcotest.(check bool) "reason given" true (String.length msg > 0)
      | _ -> Alcotest.fail "expected an id-0 Rejected frame");
      Net.Client.close second;
      (* the admitted connection still works *)
      (match Net.Client.call first P.Ping with
      | P.Pong -> ()
      | _ -> Alcotest.fail "admitted connection broken");
      Net.Client.close first)

let test_conn_limit_reject_frame_complete () =
  (* Regression: the Rejected frame used to be sent with a single
     unchecked [Unix.write] — a short or interrupted write truncated the
     frame mid-stream.  Now it goes through a bounded full-write loop, so
     every rejected connection must receive one complete, well-formed
     id-0 Rejected frame, every time. *)
  with_server ~tweak:(fun c -> { c with Net.Server.max_conns = 1 }) (fun port ->
      let first = Net.Client.connect ~host:"127.0.0.1" ~port () in
      ignore (Net.Client.call first P.Ping);
      for i = 1 to 10 do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let buf = Bytes.create 4096 in
        let dec = P.Decoder.create () in
        let rec read_all () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
            P.Decoder.feed dec buf ~off:0 ~len:n;
            read_all ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
        in
        read_all ();
        (match P.Decoder.next_response dec with
        | P.Msg (0, P.Rejected msg) ->
          Alcotest.(check bool)
            (Printf.sprintf "attempt %d: reason given" i)
            true
            (String.length msg > 0)
        | r ->
          Alcotest.failf "attempt %d: expected a complete id-0 Rejected frame, got %s" i
            (match r with
            | P.Msg (id, m) -> P.response_to_string ~id m
            | P.Awaiting -> "a truncated frame"
            | P.Corrupt m -> "corrupt: " ^ m));
        Alcotest.(check int)
          (Printf.sprintf "attempt %d: clean frame boundary" i)
          0 (P.Decoder.buffered dec);
        Unix.close fd
      done;
      (* the admitted connection survived all ten rejections *)
      (match Net.Client.call first P.Ping with
      | P.Pong -> ()
      | _ -> Alcotest.fail "admitted connection broken");
      Net.Client.close first)

let test_shard_isolation () =
  (* two connections on a 2-shard server land on different shards and
     must not see each other's relations *)
  with_server ~shards:2 (fun port ->
      let a = Net.Client.connect ~host:"127.0.0.1" ~port () in
      let b = Net.Client.connect ~host:"127.0.0.1" ~port () in
      (match Net.Client.call a (P.Exec_line "create ONLY_A (k = int)") with
      | P.Output _ -> ()
      | _ -> Alcotest.fail "create on shard A failed");
      (match Net.Client.call b (P.Exec_line "show relations") with
      | P.Output out ->
        Alcotest.(check bool) "B does not see A's relation" false (contains out "ONLY_A")
      | P.Failed _ -> () (* acceptable: empty catalog phrased as an error *)
      | _ -> Alcotest.fail "show on shard B failed");
      Net.Client.close a;
      Net.Client.close b)

let test_txn_deadlock_over_loopback () =
  (* two clients on one shard force the crosswise deadlock: A parks on
     B's relation, B's request closes the cycle, B (younger) is the
     victim, A's parked statement then runs and A commits *)
  with_server (fun port ->
      let a = Net.Client.connect ~host:"127.0.0.1" ~port () in
      let b = Net.Client.connect ~host:"127.0.0.1" ~port () in
      let exec who client line =
        match Net.Client.call client (P.Exec_line line) with
        | P.Output out -> out
        | resp -> Alcotest.failf "%s: %S got tag 0x%02x" who line (P.response_tag resp)
      in
      let control who client req =
        match Net.Client.call client req with
        | P.Output _ -> ()
        | resp -> Alcotest.failf "%s: control got tag 0x%02x" who (P.response_tag resp)
      in
      ignore (exec "A" a "create T1 (k = int, v = int)");
      ignore (exec "A" a "create T2 (k = int, v = int)");
      ignore (exec "A" a "append to T1 (k = 1, v = 10)");
      ignore (exec "A" a "append to T2 (k = 1, v = 20)");
      control "A" a P.Begin;
      control "B" b P.Begin;
      ignore (exec "A" a "replace T1 (v = 111) where T1.k = 1");
      ignore (exec "B" b "replace T2 (v = 222) where T2.k = 1");
      let a_req = Net.Client.send a (P.Exec_line "replace T2 (v = 333) where T2.k = 1") in
      (match Net.Client.call b (P.Exec_line "replace T1 (v = 444) where T1.k = 1") with
      | P.Aborted msg ->
        Alcotest.(check bool) "victim message names the deadlock" true
          (contains msg "deadlock")
      | resp -> Alcotest.failf "B: expected Aborted, got tag 0x%02x" (P.response_tag resp));
      let rec await_a () =
        let id, resp = Net.Client.recv a in
        if id <> a_req then await_a () else resp
      in
      (match await_a () with
      | P.Output _ -> ()
      | resp ->
        Alcotest.failf "A: parked statement should run after the abort, got tag 0x%02x"
          (P.response_tag resp));
      control "A" a P.Commit;
      let rows = exec "A" a "retrieve (T1.v, T2.v) where T1.k = T2.k" in
      Alcotest.(check bool) "A's writes committed" true
        (contains rows "111" && contains rows "333");
      Alcotest.(check bool) "B's writes rolled back" false
        (contains rows "222" || contains rows "444");
      (* B's session survives its abort: autocommit still works *)
      ignore (exec "B" b "retrieve (T2.v) where T2.k = 1");
      Net.Client.close a;
      Net.Client.close b)

let test_txn_abort_restores_over_loopback () =
  with_server (fun port ->
      let c = Net.Client.connect ~host:"127.0.0.1" ~port () in
      let exec line =
        match Net.Client.call c (P.Exec_line line) with
        | P.Output out -> out
        | resp -> Alcotest.failf "%S got tag 0x%02x" line (P.response_tag resp)
      in
      ignore (exec "create T (k = int, v = int)");
      ignore (exec "append to T (k = 1, v = 10)");
      let before = exec "retrieve (T.v) where T.k = 1" in
      (match Net.Client.call c P.Begin with
      | P.Output _ -> ()
      | resp -> Alcotest.failf "begin got tag 0x%02x" (P.response_tag resp));
      ignore (exec "replace T (v = 99) where T.k = 1");
      ignore (exec "append to T (k = 2, v = 20)");
      (match Net.Client.call c P.Abort with
      | P.Output msg ->
        Alcotest.(check bool) "abort reports undo work" true (contains msg "undo")
      | resp -> Alcotest.failf "abort got tag 0x%02x" (P.response_tag resp));
      Alcotest.(check string) "state restored" before (exec "retrieve (T.v) where T.k = 1");
      Net.Client.close c)

let test_script_runs_as_its_connection () =
  (* A script runs on behalf of the connection that sent it: it neither
     joins another connection's open transaction nor is rolled back by
     that transaction's abort. *)
  with_server (fun port ->
      let a = Net.Client.connect ~host:"127.0.0.1" ~port () in
      let call c req what =
        match Net.Client.call c req with
        | P.Output out -> out
        | resp -> Alcotest.failf "%s got tag 0x%02x" what (P.response_tag resp)
      in
      ignore (call a (P.Exec_line "create T (k = int, v = int)") "create");
      let b = Net.Client.connect ~host:"127.0.0.1" ~port () in
      ignore (call a P.Begin "begin");
      ignore (call b (P.Exec_script "append to T (k = 1, v = 10)") "script");
      ignore (call a P.Abort "abort");
      Alcotest.(check bool) "the script's append survives the other abort" true
        (contains (call b (P.Exec_line "retrieve (T.all)") "retrieve") "(1 tuples)");
      Net.Client.close a;
      Net.Client.close b)

let test_loadgen_reconciles () =
  with_server ~shards:2 (fun port ->
      match
        Net.Loadgen.run ~host:"127.0.0.1" ~port ~conns:4 ~requests:200 ~pipeline:8
          ~seed:7 ~mode:Net.Loadgen.Mixed ()
      with
      | Error msg -> Alcotest.failf "loadgen setup failed: %s" msg
      | Ok r ->
        Alcotest.(check int) "sent all" 200 r.Net.Loadgen.sent;
        Alcotest.(check int) "no failures" 0 r.Net.Loadgen.failed;
        Alcotest.(check int) "no drops" 0 r.Net.Loadgen.dropped;
        Alcotest.(check int) "no bad frames" 0 r.Net.Loadgen.bad_frames;
        Alcotest.(check bool) "server counts fetched" true (r.Net.Loadgen.server <> None);
        Alcotest.(check bool) "reconciled" true (Net.Loadgen.reconciled r))

let test_loadgen_writes_reconcile () =
  with_server ~shards:2 (fun port ->
      match
        Net.Loadgen.run ~host:"127.0.0.1" ~port ~conns:4 ~requests:200 ~pipeline:8
          ~seed:7 ~mode:Net.Loadgen.Mixed ~write_frac:0.4 ()
      with
      | Error msg -> Alcotest.failf "loadgen setup failed: %s" msg
      | Ok r ->
        Alcotest.(check int) "sent all" 200 r.Net.Loadgen.sent;
        Alcotest.(check bool) "writes were generated" true (r.Net.Loadgen.writes_sent > 0);
        Alcotest.(check int) "conflict-free writes all land"
          r.Net.Loadgen.writes_sent r.Net.Loadgen.writes_ok;
        Alcotest.(check int) "no bad frames" 0 r.Net.Loadgen.bad_frames;
        Alcotest.(check bool) "writer counters reconcile with server" true
          (Net.Loadgen.reconciled r))

let test_shutdown_request_drains () =
  let config = { Net.Server.default_config with port = 0; shards = 1 } in
  let server = Net.Server.create ~config () in
  let port = Net.Server.port server in
  let d = Domain.spawn (fun () -> Net.Server.run server) in
  let client = Net.Client.connect ~host:"127.0.0.1" ~port () in
  (match Net.Client.call client P.Shutdown with
  | P.Output msg -> Alcotest.(check bool) "acknowledged" true (contains msg "drain")
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Net.Client.close client;
  (* run returns on its own — no shutdown call from this side *)
  Domain.join d;
  Alcotest.(check bool) "drained" true true

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip bytewise" `Quick
            test_response_roundtrip_bytewise;
          Alcotest.test_case "decoder rejects malformed" `Quick test_decoder_rejects;
          Alcotest.test_case "exactly max_frame decodes" `Quick
            test_decoder_exact_max_frame;
          Alcotest.test_case "poisoning is permanent" `Quick
            test_decoder_poisoned_stays_poisoned;
          Alcotest.test_case "truncated at EOF" `Quick test_decoder_truncated_at_eof;
          qc fuzz_roundtrip_chunked;
          qc fuzz_garbage_never_raises;
          qc fuzz_bitflip;
        ] );
      ( "chan",
        [
          Alcotest.test_case "fifo" `Quick test_chan_fifo;
          Alcotest.test_case "cross-domain" `Quick test_chan_cross_domain;
        ] );
      ( "server",
        [
          Alcotest.test_case "loopback script = local" `Quick
            test_loopback_script_matches_local;
          Alcotest.test_case "loopback lines = local" `Quick test_loopback_lines_match_local;
          Alcotest.test_case "pipelined pings" `Quick test_pipelined_pings;
          Alcotest.test_case "save refused over the wire" `Quick
            test_save_refused_over_the_wire;
          Alcotest.test_case "stats snapshot" `Quick test_stats_snapshot;
          Alcotest.test_case "malformed frame poisons connection" `Quick
            test_malformed_frame_poisons_connection;
          Alcotest.test_case "connection limit rejects" `Quick test_conn_limit_rejects;
          Alcotest.test_case "reject frame always complete" `Quick
            test_conn_limit_reject_frame_complete;
          Alcotest.test_case "shard isolation" `Quick test_shard_isolation;
          Alcotest.test_case "shutdown request drains" `Quick test_shutdown_request_drains;
          Alcotest.test_case "two-client deadlock: park, victim, commit" `Quick
            test_txn_deadlock_over_loopback;
          Alcotest.test_case "abort restores state over the wire" `Quick
            test_txn_abort_restores_over_loopback;
          Alcotest.test_case "a script runs as its connection" `Quick
            test_script_runs_as_its_connection;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "reconciles" `Quick test_loadgen_reconciles;
          Alcotest.test_case "write mix reconciles" `Quick test_loadgen_writes_reconcile;
        ] );
    ]
