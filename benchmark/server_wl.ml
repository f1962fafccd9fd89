(* server-mix: a Net.Server child process (one shard, Cache and
   Invalidate) driven over loopback by two connections with one request
   outstanding each.  The only workload that crosses the socket, the event
   loop, the shard queue, the lexer/parser and the statement cache (which
   keeps retrieve text only, so point retrieves with fresh literals miss). *)

open Dbproc
module P = Net.Protocol
module Metrics = Obs.Metrics
module Export = Obs.Export

let r1_rows = 20_000
let r2_rows = 2_000
let n_procs = 40
let width = 20 (* a procedure selects 0.1% of R1 *)
let requests_per_s = 6_500
let conns = 2
let setup_reps = 9 (* a set-up takes 0.15 s; one alone swings by a quarter *)

let setup_lines seed =
  let prng = Util.Prng.create seed in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "create R1 (id = int, a = int, sel = int)";
  add "create R2 (b = int, c = int)";
  for i = 0 to r1_rows - 1 do
    add "append to R1 (id = %d, a = %d, sel = %d)" i (Util.Prng.int prng r2_rows) i
  done;
  for b = 0 to r2_rows - 1 do
    add "append to R2 (b = %d, c = %d)" b (Util.Prng.int prng 1000)
  done;
  (* hash indexes are static and sized at creation: build them after the load *)
  add "index R1 hash on id";
  add "index R1 btree on sel";
  add "index R2 hash on b";
  add "strategy ci";
  for p = 0 to n_procs - 1 do
    let lo = Util.Prng.int prng (r1_rows - width) in
    if p mod 2 = 0 then
      add "define proc p%d as retrieve (R1.all) where R1.sel >= %d and R1.sel < %d" p lo
        (lo + width)
    else
      add
        "define proc p%d as retrieve (R1.id, R2.c) where R1.sel >= %d and R1.sel < %d \
         and R1.a = R2.b"
        p lo (lo + width)
  done;
  List.rev !lines

type kind = Access | Update | Query

let kinds = [ Access; Update; Query ]
let kind_name = function Access -> "access" | Update -> "update" | Query -> "query"

(* Connection [c] replaces only ids congruent to c mod [conns], so the
   final state does not depend on how the two streams interleave. *)
let ops seed ~conn ~n =
  let prng = Util.Prng.create ((seed * 7919) + 101 + conn) in
  Array.init n (fun _ ->
      let x = Util.Prng.float prng in
      if x < 0.60 then (Access, Printf.sprintf "exec p%d" (Util.Prng.int prng n_procs))
      else if x < 0.85 then
        ( Update,
          Printf.sprintf "replace R1 (sel = %d) where R1.id = %d" (Util.Prng.int prng r1_rows)
            ((conns * Util.Prng.int prng (r1_rows / conns)) + conn) )
      else
        ( Query,
          Printf.sprintf "retrieve (R1.all) where R1.id = %d" (Util.Prng.int prng r1_rows) ))

let final_checks = "retrieve (R1.all)" :: List.init n_procs (Printf.sprintf "exec p%d")

(* ------------------------------------------------------------- child *)

type report = {
  heap_mb : float;
  calls : (int * (int * int) array) list;
      (** per connection id, [(start, stop)] of every backend call in
          arrival order (traced runs only) *)
}

(* The server process: load the data into its shard's session, say
   "ready PORT", serve until asked to shut down, then send the report
   (marshalled) on standard output. *)
let serve_child ~seed ~trace =
  let lines = setup_lines seed in
  let port = ref 0 in
  let calls = Hashtbl.create 4 in
  let make_backend ctx =
    let b = Net.Server.node_backend ~plan_cache:true ctx in
    List.iter
      (fun line ->
        match b.Net.Server.b_request ~client:0 (P.Exec_line line) with
        | `Resp (P.Output _) -> ()
        | _ -> failwith ("server-mix setup failed: " ^ line))
      lines;
    Printf.printf "ready %d\n%!" !port;
    if not trace then b
    else
      {
        b with
        Net.Server.b_request =
          (fun ~client req ->
            let t0 = Spans.now () in
            let r = b.Net.Server.b_request ~client req in
            let prev = Option.value (Hashtbl.find_opt calls client) ~default:[] in
            Hashtbl.replace calls client ((t0, Spans.now ()) :: prev);
            r);
      }
  in
  let config = { Net.Server.default_config with Net.Server.port = 0; shards = 1 } in
  let server = Net.Server.create ~config ~backend:make_backend () in
  port := Net.Server.port server;
  Net.Server.run server;
  let report =
    {
      heap_mb = Outcome.heap_peak_mb ();
      calls = Hashtbl.fold (fun c l acc -> (c, Array.of_list (List.rev l)) :: acc) calls [];
    }
  in
  Marshal.to_channel stdout report [];
  flush stdout

(* ------------------------------------------------------------ client *)

type child = { pid : int; ic : in_channel; port : int }

let spawn ~seed ~trace =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [|
      Sys.executable_name; "serve-child"; "--seed"; string_of_int seed; "--trace";
      (if trace then "1" else "0");
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  match Scanf.sscanf (input_line ic) "ready %d" Fun.id with
  | port -> { pid; ic; port }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in ic;
    failwith ("server-mix: child did not start: " ^ Printexc.to_string e)

let stop child =
  (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] child.pid);
  close_in_noerr child.ic

type conn = { fd : Unix.file_descr; dec : P.Decoder.t; out : Buffer.t; mutable next_id : int }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; dec = P.Decoder.create (); out = Buffer.create 256; next_id = 1 }

let encode c req =
  Buffer.clear c.out;
  P.write_request c.out ~id:c.next_id req;
  c.next_id <- c.next_id + 1

let flush_out c =
  let s = Buffer.contents c.out in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

let rbuf = Bytes.create 65536

let read_some c =
  match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
  | 0 -> failwith "server-mix: server closed the connection"
  | n -> P.Decoder.feed c.dec rbuf ~off:0 ~len:n

let rec next_response c =
  match P.Decoder.next_response c.dec with
  | P.Msg (_, resp) -> resp
  | P.Corrupt msg -> failwith ("server-mix: bad frame: " ^ msg)
  | P.Awaiting ->
    read_some c;
    next_response c

let call c req =
  encode c req;
  flush_out c;
  next_response c

(* The server's merged counters, as of now. *)
let counters c =
  match call c P.Stats with
  | P.Output body -> (
    match Result.map (Export.member "counters") (Export.parse body) with
    | Ok (Some (Export.Obj fields)) -> (
      fun counter ->
        match List.assoc_opt (Metrics.counter_name counter) fields with
        | Some (Export.Int n) -> float_of_int n
        | _ -> 0.0)
    | _ -> failwith "server-mix: malformed stats")
  | _ -> failwith "server-mix: stats refused"

let priced_ms count =
  let ch = Storage.Cost.default_charges in
  (ch.Storage.Cost.c1_screen_ms *. count Metrics.Predicate_screens)
  +. (ch.Storage.Cost.c2_io_ms *. (count Metrics.Pages_read +. count Metrics.Pages_written))
  +. (ch.Storage.Cost.c3_delta_ms *. count Metrics.Delta_set_ops)
  +. (ch.Storage.Cost.c_inval_ms *. count Metrics.Invalidations)

let fetch_digest c line =
  match call c (P.Fetch line) with
  | P.Tuples body -> Net.Wire.digest_tuples (snd (Net.Wire.parse_tuples_body body))
  | _ -> "failed"

(* The oracle: the same load and, per connection in order, the same
   replaces in a local interpreter; the server's final state must match. *)
let replay ~seed ~streams =
  let session = Lang.Interp.create ~ctx:(Obs.Ctx.create ()) () in
  let exec line =
    match Lang.Interp.exec_line session line with
    | Ok _ -> ()
    | Error msg -> failwith ("server-mix replay: " ^ msg)
  in
  List.iter exec (setup_lines seed);
  Array.iter (Array.iter (fun (kind, line) -> if kind = Update then exec line)) streams;
  List.map
    (fun line ->
      match Lang.Interp.fetch session line with
      | Ok (tuples, _) -> Net.Wire.digest_tuples tuples
      | Error msg -> "error: " ^ msg)
    final_checks

(* One request on the wire: sent (before encoding), encoded, last chunk
   read (decoding starts), answer decoded. *)
type req = {
  mutable t_start : int;
  mutable t_enc : int;
  mutable t_dec : int;
  mutable t_stop : int;
}

type measured = {
  reqs : req array array;  (** per connection, in send order *)
  wall_ns : int;
  failed : int;
  before : Metrics.counter -> float;
  after : Metrics.counter -> float;
  observed : string list;  (** digests of [final_checks] *)
  report : report;
}

(* Drive the child closed-loop: each connection sends its next request as
   soon as the previous answer is decoded. *)
let measure child streams ~per_conn =
  (* Connect one at a time, each answering a ping before the next
     connects, so the server numbers them 0 and 1 in order. *)
  let cs =
    Array.init conns (fun _ ->
        let c = connect child.port in
        (match call c P.Ping with P.Pong -> () | _ -> failwith "server-mix: no pong");
        c)
  in
  let before = counters cs.(0) in
  let reqs =
    Array.init conns (fun _ ->
        Array.init per_conn (fun _ -> { t_start = 0; t_enc = 0; t_dec = 0; t_stop = 0 }))
  in
  let pos = Array.make conns 0 in
  let failed = ref 0 in
  let issue i =
    let r = reqs.(i).(pos.(i)) in
    r.t_start <- Spans.now ();
    encode cs.(i) (P.Exec_line (snd streams.(i).(pos.(i))));
    r.t_enc <- Spans.now ();
    flush_out cs.(i)
  in
  let receive i =
    let c = cs.(i) in
    read_some c;
    let r = reqs.(i).(pos.(i)) in
    r.t_dec <- Spans.now ();
    match P.Decoder.next_response c.dec with
    | P.Awaiting -> ()
    | P.Corrupt msg -> failwith ("server-mix: bad frame: " ^ msg)
    | P.Msg (_, resp) ->
      r.t_stop <- Spans.now ();
      (match resp with P.Output _ -> () | _ -> incr failed);
      pos.(i) <- pos.(i) + 1;
      if pos.(i) < per_conn then issue i
  in
  let rec drive active =
    if active <> [] then begin
      let readable, _, _ = Unix.select (List.map (fun i -> cs.(i).fd) active) [] [] (-1.0) in
      List.iter (fun i -> if List.mem cs.(i).fd readable then receive i) active;
      drive (List.filter (fun i -> pos.(i) < per_conn) active)
    end
  in
  let t_begin = Spans.now () in
  Array.iteri (fun i _ -> issue i) cs;
  drive (List.init conns Fun.id);
  let wall_ns = Spans.now () - t_begin in
  let after = counters cs.(0) in
  let observed = List.map (fetch_digest cs.(0)) final_checks in
  ignore (call cs.(0) P.Shutdown);
  Array.iter (fun c -> Unix.close c.fd) cs;
  let report : report = Marshal.from_channel child.ic in
  { reqs; wall_ns; failed = !failed; before; after; observed; report }

(* Client round trips become root spans; encode, decode and the child's
   backend call become their children, so the root's self time is the
   event loop, the shard queue and the socket. *)
let layer_metrics m streams ~n_reads ~n_updates =
  let n_reqs = Array.fold_left (fun acc r -> acc + Array.length r) 0 m.reqs in
  let spans = Spans.create ~enabled:true ~capacity:(n_reqs * 4) in
  let id = Spans.intern spans in
  let id_req = id "net.client.request" and id_enc = id "net.client.encode" in
  let id_dec = id "net.client.decode" in
  let backend k = "net.server.backend." ^ kind_name k in
  Array.iteri
    (fun i reqs ->
      (* the child's call 0 on each connection is its ping *)
      let calls = List.assoc i m.report.calls in
      Array.iteri
        (fun k r ->
          Spans.set_op spans ((k * conns) + i);
          let row = Spans.record spans id_req ~start:r.t_start ~stop:r.t_stop ~parent:(-1) in
          ignore (Spans.record spans id_enc ~start:r.t_start ~stop:r.t_enc ~parent:row);
          ignore (Spans.record spans id_dec ~start:r.t_dec ~stop:r.t_stop ~parent:row);
          let s0, s1 = calls.(k + 1) in
          ignore
            (Spans.record spans (id (backend (fst streams.(i).(k)))) ~start:s0 ~stop:s1
               ~parent:row))
        reqs)
    m.reqs;
  let self = Spans.by_name spans in
  let delta counter = m.after counter -. m.before counter in
  let layers =
    List.concat_map
      (fun k ->
        [
          (backend k ^ ".p50_us", Outcome.q (self (backend k)) 0.5);
          (backend k ^ ".p99_us", Outcome.q (self (backend k)) 0.99);
        ])
      kinds
    @ [
        ( "net.server.backend.share",
          Outcome.share ~wall_ns:m.wall_ns
            (Array.concat (List.map (fun k -> self (backend k)) kinds)) );
        ("net.client.encode_p50_us", Outcome.q (self "net.client.encode") 0.5);
        ("net.client.decode_p50_us", Outcome.q (self "net.client.decode") 0.5);
        ("net.server.loop.p50_us", Outcome.q (self "net.client.request") 0.5);
        ("net.server.loop.p99_us", Outcome.q (self "net.client.request") 0.99);
        ( "lang.plan_cache.hit_ratio",
          Outcome.ratio
            (delta Metrics.Plan_cache_hits)
            (delta Metrics.Plan_cache_hits +. delta Metrics.Plan_cache_misses) );
        ("relation.tuples_scanned_per_query", delta Metrics.Tuples_scanned /. n_reads);
        ("proc.invalidations_per_update", delta Metrics.Invalidations /. n_updates);
        ("net.bytes_out_per_op", delta Metrics.Net_bytes_out /. (n_reads +. n_updates));
        ("trace.coverage", Spans.coverage spans ~wall_ns:m.wall_ns);
      ]
  in
  (layers, spans)

let run ~seed ~seconds ~trace =
  let per_conn = requests_per_s * seconds / conns in
  let streams = Array.init conns (fun conn -> ops seed ~conn ~n:per_conn) in
  let child, setup_s =
    Outcome.repeat_setup ~reps:setup_reps ~discard:stop (fun () -> spawn ~seed ~trace)
  in
  let m =
    Fun.protect ~finally:(fun () -> stop child) (fun () -> measure child streams ~per_conn)
  in
  let t_oracle = Spans.now () in
  let expected = replay ~seed ~streams in
  let sent = conns * per_conn in
  let served = m.after Metrics.Net_requests_served -. m.before Metrics.Net_requests_served in
  let mismatches =
    (if served = float_of_int sent then []
     else [ Printf.sprintf "server served %.0f requests, %d were sent" served sent ])
    @ List.concat
        (List.map2
           (fun line (got, want) ->
             if got = want then [] else [ Printf.sprintf "%S differs from the replay" line ])
           final_checks (List.combine m.observed expected))
  in
  let oracle_ns = Spans.now () - t_oracle in
  (* Request k of each connection falls in block [block_of k]: the two
     connections move through the blocks side by side. *)
  let class_of k =
    let per_conn =
      List.init conns (fun i ->
          Outcome.by_block ~n:per_conn
            ~keep:(fun j -> fst streams.(i).(j) = k)
            (fun j ->
              let r = m.reqs.(i).(j) in
              Outcome.ms_of_ns (r.t_stop - r.t_start)))
    in
    ( kind_name k,
      Array.init Outcome.blocks (fun b -> Array.concat (List.map (fun a -> a.(b)) per_conn)) )
  in
  (* The connections drift apart over a run, so a block's throughput is
     the sum of each connection's own rate over its share of the block,
     not the block's requests over the span from the first start to the
     last stop. *)
  let throughput =
    Array.init Outcome.blocks (fun b ->
        let lo = Outcome.block_start ~n:per_conn b
        and hi = Outcome.block_start ~n:per_conn (b + 1) in
        Array.fold_left
          (fun acc rs -> acc +. Outcome.rate ~ops:(hi - lo) ~ns:(rs.(hi - 1).t_stop - rs.(lo).t_start))
          0.0 m.reqs)
  in
  let count classes =
    List.fold_left
      (fun acc (_, bs) -> acc + Array.fold_left (fun n s -> n + Array.length s) 0 bs)
      0 classes
  in
  let reads = List.map class_of [ Access; Query ] and writes = List.map class_of [ Update ] in
  let metrics, notes =
    Outcome.end_to_end ~throughput ~reads ~writes
      ~sim_ms:(priced_ms (fun c -> m.after c -. m.before c))
      ~n_reads:(count reads) ~setup_s ~heap_mb:m.report.heap_mb
  in
  let layers, spans =
    if trace then
      layer_metrics m streams
        ~n_reads:(float_of_int (count reads))
        ~n_updates:(float_of_int (count writes))
    else ([], Spans.create ~enabled:false ~capacity:0)
  in
  ( {
      Outcome.correct = mismatches = [];
      attempted = sent;
      failed = m.failed;
      metrics = metrics @ layers;
      notes =
        (if trace then []
         else Outcome.phases ~setup_s ~wall_ns:m.wall_ns ~oracle_ns :: notes)
        @ mismatches;
    },
    spans )
