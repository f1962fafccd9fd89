(* Tests for Dbproc.Storage: cost accounting, I/O layer (direct, buffered,
   touch dedup) and heap files. *)

open Dbproc.Storage

let charges = Cost.default_charges

(* ----------------------------------------------------------------- Cost *)

let test_cost_counters () =
  let c = Cost.create () in
  Cost.page_read c;
  Cost.page_read ~count:2 c;
  Cost.page_write c;
  Cost.cpu_screen ~count:5 c;
  Cost.delta_op ~count:3 c;
  Cost.invalidation c;
  Alcotest.(check int) "reads" 3 (Cost.page_reads c);
  Alcotest.(check int) "writes" 1 (Cost.page_writes c);
  Alcotest.(check int) "screens" 5 (Cost.cpu_screens c);
  Alcotest.(check int) "delta" 3 (Cost.delta_ops c);
  Alcotest.(check int) "inval" 1 (Cost.invalidations c)

let test_cost_pricing () =
  let c = Cost.create () in
  Cost.page_read ~count:2 c;
  Cost.page_write c;
  Cost.cpu_screen ~count:10 c;
  (* 3 I/Os * 30 + 10 screens * 1 = 100 *)
  Alcotest.(check (float 1e-9)) "total" 100.0 (Cost.total_ms charges c)

let test_cost_inval_pricing () =
  let c = Cost.create () in
  Cost.invalidation ~count:4 c;
  let charges = { charges with Cost.c_inval_ms = 60.0 } in
  Alcotest.(check (float 1e-9)) "inval priced" 240.0 (Cost.total_ms charges c)

let test_cost_disable () =
  let c = Cost.create () in
  Cost.with_disabled c (fun () -> Cost.page_read ~count:10 c);
  Alcotest.(check int) "suppressed" 0 (Cost.page_reads c);
  Cost.page_read c;
  Alcotest.(check int) "restored" 1 (Cost.page_reads c)

let test_cost_disable_nested () =
  let c = Cost.create () in
  Cost.with_disabled c (fun () ->
      Cost.with_disabled c (fun () -> Cost.page_read c);
      Cost.page_read c);
  Alcotest.(check int) "nested suppressed" 0 (Cost.page_reads c);
  Cost.page_read c;
  Alcotest.(check int) "fully restored" 1 (Cost.page_reads c)

let test_cost_disable_exception_safe () =
  let c = Cost.create () in
  (try Cost.with_disabled c (fun () -> failwith "boom") with Failure _ -> ());
  Cost.page_read c;
  Alcotest.(check int) "re-enabled after exception" 1 (Cost.page_reads c)

let test_cost_snapshot_diff () =
  let c = Cost.create () in
  Cost.page_read c;
  let before = Cost.snapshot c in
  Cost.page_read ~count:2 c;
  Cost.cpu_screen c;
  let after = Cost.snapshot c in
  Alcotest.(check (float 1e-9)) "diff" 61.0 (Cost.diff_ms charges ~before ~after)

let test_cost_reset () =
  let c = Cost.create () in
  Cost.page_read ~count:5 c;
  Cost.reset c;
  Alcotest.(check int) "reset" 0 (Cost.page_reads c)

(* ------------------------------------------------------------------- Io *)

let test_io_direct_charges_every_touch () =
  let c = Cost.create () in
  let io = Io.direct c ~page_bytes:4000 in
  let f = Io.fresh_file io in
  Io.read io ~file:f ~page:0;
  Io.read io ~file:f ~page:0;
  Io.write io ~file:f ~page:0;
  Alcotest.(check int) "2 reads" 2 (Cost.page_reads c);
  Alcotest.(check int) "1 write" 1 (Cost.page_writes c)

let test_io_fresh_files_distinct () =
  let io = Io.direct (Cost.create ()) ~page_bytes:4000 in
  Alcotest.(check bool) "ids differ" true (Io.fresh_file io <> Io.fresh_file io)

let test_io_records_per_page () =
  let io = Io.direct (Cost.create ()) ~page_bytes:4000 in
  Alcotest.(check int) "40 tuples of 100B" 40 (Io.records_per_page io ~record_bytes:100);
  Alcotest.(check int) "oversized record still 1" 1 (Io.records_per_page io ~record_bytes:9000);
  Alcotest.(check int) "pages for 0" 0 (Io.pages_for_records io ~record_bytes:100 ~count:0);
  Alcotest.(check int) "pages for 41" 2 (Io.pages_for_records io ~record_bytes:100 ~count:41)

let test_io_touch_dedup () =
  let c = Cost.create () in
  let io = Io.direct c ~page_bytes:4000 in
  let f = Io.fresh_file io in
  Io.with_touch_dedup io (fun () ->
      Io.read io ~file:f ~page:0;
      Io.read io ~file:f ~page:0;
      Io.read io ~file:f ~page:1;
      Io.write io ~file:f ~page:0;
      Io.write io ~file:f ~page:0);
  Alcotest.(check int) "2 distinct reads" 2 (Cost.page_reads c);
  Alcotest.(check int) "1 distinct write" 1 (Cost.page_writes c);
  (* scope over: charges resume *)
  Io.read io ~file:f ~page:0;
  Alcotest.(check int) "fresh scope charges" 3 (Cost.page_reads c)

let test_io_touch_dedup_nested () =
  let c = Cost.create () in
  let io = Io.direct c ~page_bytes:4000 in
  let f = Io.fresh_file io in
  Io.with_touch_dedup io (fun () ->
      Io.read io ~file:f ~page:0;
      Io.with_touch_dedup io (fun () -> Io.read io ~file:f ~page:0));
  Alcotest.(check int) "inner scope shares dedup set" 1 (Cost.page_reads c)

let test_io_buffered_hits () =
  let c = Cost.create () in
  let io = Io.buffered c ~page_bytes:4000 ~capacity:2 in
  let f = Io.fresh_file io in
  Io.read io ~file:f ~page:0;
  (* miss *)
  Io.read io ~file:f ~page:0;
  (* hit *)
  Alcotest.(check int) "1 charged read" 1 (Cost.page_reads c);
  Alcotest.(check int) "1 hit" 1 (Io.buffer_hits io);
  Alcotest.(check int) "1 miss" 1 (Io.buffer_misses io)

let test_io_buffered_write_hits () =
  (* Regression: the write-through path must feed the same hit/miss
     counters as reads — a pool-resident page is a write hit, an installed
     one a write miss — while still charging every write. *)
  let c = Cost.create () in
  let io = Io.buffered c ~page_bytes:4000 ~capacity:2 in
  let f = Io.fresh_file io in
  Io.write io ~file:f ~page:0;
  (* miss: installs the page *)
  Io.write io ~file:f ~page:0;
  (* hit: page is pool-resident *)
  Io.read io ~file:f ~page:0;
  (* hit: reads see the installed page *)
  Alcotest.(check int) "2 charged writes (write-through)" 2 (Cost.page_writes c);
  Alcotest.(check int) "0 charged reads" 0 (Cost.page_reads c);
  Alcotest.(check int) "2 hits (1 write, 1 read)" 2 (Io.buffer_hits io);
  Alcotest.(check int) "1 miss (first write)" 1 (Io.buffer_misses io)

let test_io_buffered_eviction () =
  let c = Cost.create () in
  let io = Io.buffered c ~page_bytes:4000 ~capacity:2 in
  let f = Io.fresh_file io in
  Io.read io ~file:f ~page:0;
  Io.read io ~file:f ~page:1;
  Io.read io ~file:f ~page:2;
  (* evicts page 0 (LRU) *)
  Io.read io ~file:f ~page:0;
  (* miss again *)
  Alcotest.(check int) "4 charged reads" 4 (Cost.page_reads c)

let test_io_buffered_lru_order () =
  let c = Cost.create () in
  let io = Io.buffered c ~page_bytes:4000 ~capacity:2 in
  let f = Io.fresh_file io in
  Io.read io ~file:f ~page:0;
  Io.read io ~file:f ~page:1;
  Io.read io ~file:f ~page:0;
  (* page 0 now most recent; loading 2 evicts 1 *)
  Io.read io ~file:f ~page:2;
  Io.read io ~file:f ~page:0;
  (* hit *)
  Alcotest.(check int) "page 0 stayed cached" 2 (Io.buffer_hits io)

let test_io_flush () =
  let c = Cost.create () in
  let io = Io.buffered c ~page_bytes:4000 ~capacity:4 in
  let f = Io.fresh_file io in
  Io.read io ~file:f ~page:0;
  Io.flush io;
  Io.read io ~file:f ~page:0;
  Alcotest.(check int) "flush drops cache" 2 (Cost.page_reads c)

(* ------------------------------------------------------------ Heap_file *)

let make_heap () =
  let c = Cost.create () in
  let io = Io.direct c ~page_bytes:400 in
  (* 4 records of 100B per page: small pages exercise page math *)
  (c, Heap_file.create ~io ~record_bytes:100 ())

let test_heap_append_get () =
  let _, h = make_heap () in
  let r1 = Heap_file.append h "a" in
  let r2 = Heap_file.append h "b" in
  Alcotest.(check string) "get a" "a" (Heap_file.get h r1);
  Alcotest.(check string) "get b" "b" (Heap_file.get h r2);
  Alcotest.(check int) "count" 2 (Heap_file.record_count h)

let test_heap_page_allocation () =
  let _, h = make_heap () in
  for i = 1 to 9 do
    ignore (Heap_file.append h (string_of_int i))
  done;
  Alcotest.(check int) "9 records need 3 pages of 4" 3 (Heap_file.page_count h)

let test_heap_set_delete () =
  let _, h = make_heap () in
  let r = Heap_file.append h "x" in
  Heap_file.set h r "y";
  Alcotest.(check string) "updated" "y" (Heap_file.get h r);
  Heap_file.delete h r;
  Alcotest.(check int) "deleted" 0 (Heap_file.record_count h);
  Alcotest.check_raises "get after delete" (Invalid_argument "Heap_file.get: empty slot")
    (fun () -> ignore (Heap_file.get h r))

let test_heap_slot_reuse () =
  let _, h = make_heap () in
  let r = Heap_file.append h "x" in
  Heap_file.delete h r;
  let r' = Heap_file.append h "y" in
  Alcotest.(check bool) "slot reused" true (Heap_file.rid_equal r r');
  Alcotest.(check int) "still 1 page" 1 (Heap_file.page_count h)

let test_heap_charges () =
  let c, h = make_heap () in
  ignore (Heap_file.append h "a");
  (* append: 1 read + 1 write *)
  Alcotest.(check int) "append reads" 1 (Cost.page_reads c);
  Alcotest.(check int) "append writes" 1 (Cost.page_writes c)

let test_heap_scan_charges_per_page () =
  let c, h = make_heap () in
  Cost.with_disabled c (fun () ->
      for i = 1 to 10 do
        ignore (Heap_file.append h (string_of_int i))
      done);
  Cost.reset c;
  let seen = ref 0 in
  Heap_file.scan h ~f:(fun _ _ -> incr seen);
  Alcotest.(check int) "10 records" 10 !seen;
  Alcotest.(check int) "3 page reads" 3 (Cost.page_reads c)

let test_heap_read_all_order () =
  let _, h = make_heap () in
  List.iter (fun s -> ignore (Heap_file.append h s)) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "rid order" [ "a"; "b"; "c" ] (Heap_file.read_all h)

let test_heap_rewrite () =
  let c, h = make_heap () in
  Cost.with_disabled c (fun () ->
      for i = 1 to 8 do
        ignore (Heap_file.append h (string_of_int i))
      done);
  Cost.reset c;
  Heap_file.rewrite h [ "x"; "y"; "z" ];
  (* 3 records on 1 page: 1 read + 1 write *)
  Alcotest.(check int) "rewrite reads" 1 (Cost.page_reads c);
  Alcotest.(check int) "rewrite writes" 1 (Cost.page_writes c);
  Alcotest.(check (list string)) "contents replaced" [ "x"; "y"; "z" ] (Heap_file.read_all h)

let test_heap_apply_batch_dedups_pages () =
  let c, h = make_heap () in
  let rids =
    Cost.with_disabled c (fun () ->
        List.init 4 (fun i -> Heap_file.append h (string_of_int i)))
  in
  Cost.reset c;
  (* Two updates on the same page: page charged once (read+write). *)
  let ops =
    [ Heap_file.Update (List.nth rids 0, "x"); Heap_file.Update (List.nth rids 1, "y") ]
  in
  ignore (Heap_file.apply_batch h ops);
  Alcotest.(check int) "1 read" 1 (Cost.page_reads c);
  Alcotest.(check int) "1 write" 1 (Cost.page_writes c)

let test_heap_apply_batch_insert_collision_regression () =
  (* Regression: two inserts in one batch must not share a slot (bug found
     by the simulation driver at high update probability). *)
  let _, h = make_heap () in
  ignore (Heap_file.apply_batch h [ Heap_file.Insert "a"; Heap_file.Insert "b" ]);
  Alcotest.(check int) "both stored" 2 (Heap_file.record_count h);
  let contents = List.map snd (Heap_file.contents h) |> List.sort compare in
  Alcotest.(check (list string)) "values" [ "a"; "b" ] contents

let test_heap_apply_batch_mixed () =
  let _, h = make_heap () in
  let r1 = Heap_file.append h "a" in
  let r2 = Heap_file.append h "b" in
  let new_rids =
    Heap_file.apply_batch h
      [ Heap_file.Delete r1; Heap_file.Insert "c"; Heap_file.Update (r2, "B") ]
  in
  Alcotest.(check int) "one insert rid" 1 (List.length new_rids);
  let contents = List.map snd (Heap_file.contents h) |> List.sort compare in
  Alcotest.(check (list string)) "final contents" [ "B"; "c" ] contents

let test_heap_apply_batch_many_inserts_spill_pages () =
  let _, h = make_heap () in
  ignore (Heap_file.apply_batch h (List.init 10 (fun i -> Heap_file.Insert (string_of_int i))));
  Alcotest.(check int) "10 records" 10 (Heap_file.record_count h);
  Alcotest.(check int) "3 pages" 3 (Heap_file.page_count h);
  let contents = List.map snd (Heap_file.contents h) |> List.sort_uniq compare in
  Alcotest.(check int) "all distinct" 10 (List.length contents)

let test_heap_fold () =
  let _, h = make_heap () in
  List.iter (fun s -> ignore (Heap_file.append h s)) [ "a"; "b"; "c" ];
  let concat = Heap_file.fold h ~init:"" ~f:(fun acc _ v -> acc ^ v) in
  Alcotest.(check string) "fold order" "abc" concat

let test_heap_clear_and_contents () =
  let _, h = make_heap () in
  ignore (Heap_file.append h "a");
  Heap_file.clear h;
  Alcotest.(check int) "empty" 0 (Heap_file.record_count h);
  Alcotest.(check int) "no pages" 0 (Heap_file.page_count h);
  Alcotest.(check int) "contents empty" 0 (List.length (Heap_file.contents h))

(* The rid type is private; build a stale one via append+clear. *)
let test_heap_stale_rid () =
  let _, h = make_heap () in
  let r = Heap_file.append h "a" in
  Heap_file.clear h;
  Alcotest.check_raises "stale rid" (Invalid_argument "Heap_file.get: bad rid") (fun () ->
      ignore (Heap_file.get h r))

let heap_model_property =
  (* Heap file behaves like a multiset under random insert/delete. *)
  QCheck.Test.make ~name:"heap file matches multiset model" ~count:100
    QCheck.(list (pair bool small_nat))
    (fun script ->
      let _, h = make_heap () in
      let model = Hashtbl.create 16 in
      let rids = Hashtbl.create 16 in
      List.iter
        (fun (is_insert, v) ->
          if is_insert then begin
            let rid = Heap_file.append h v in
            Hashtbl.add rids v rid;
            Hashtbl.replace model v (1 + Option.value (Hashtbl.find_opt model v) ~default:0)
          end
          else
            match Hashtbl.find_opt rids v with
            | Some rid ->
              Hashtbl.remove rids v;
              Heap_file.delete h rid;
              Hashtbl.replace model v (Option.get (Hashtbl.find_opt model v) - 1)
            | None -> ())
        script;
      let expected = Hashtbl.fold (fun _ c acc -> acc + c) model 0 in
      Heap_file.record_count h = expected)

(* ------------------------------------------------------------------ Wal *)

let make_wal ?(page_bytes = 80) ?(record_bytes = 8) () =
  let c = Cost.create () in
  let io = Io.direct c ~page_bytes in
  (* 10 records per page *)
  (c, Wal.create ~io ~record_bytes ())

let test_wal_append_lsns () =
  let _, w = make_wal () in
  Alcotest.(check int) "first lsn" 0 (Wal.append w "a");
  Alcotest.(check int) "second lsn" 1 (Wal.append w "b");
  Alcotest.(check int) "next" 2 (Wal.next_lsn w);
  Alcotest.(check int) "count" 2 (Wal.record_count w)

let test_wal_amortized_writes () =
  let c, w = make_wal () in
  for i = 1 to 9 do
    ignore (Wal.append w i)
  done;
  Alcotest.(check int) "no write before page fills" 0 (Cost.page_writes c);
  ignore (Wal.append w 10);
  Alcotest.(check int) "page write on fill" 1 (Cost.page_writes c);
  ignore (Wal.append w 11);
  Wal.force w;
  Alcotest.(check int) "force writes the tail" 2 (Cost.page_writes c);
  Wal.force w;
  Alcotest.(check int) "force idempotent" 2 (Cost.page_writes c)

let test_wal_durable_lsn () =
  let _, w = make_wal () in
  for i = 0 to 11 do
    ignore (Wal.append w i)
  done;
  (* one full page of 10 durable, 2 in the volatile tail *)
  Alcotest.(check int) "durable after fill" 10 (Wal.durable_lsn w);
  Wal.force w;
  Alcotest.(check int) "durable after force" 12 (Wal.durable_lsn w)

let test_wal_records_from () =
  let c, w = make_wal () in
  for i = 0 to 24 do
    ignore (Wal.append w (i * 100))
  done;
  Cost.reset c;
  let records = Wal.records_from w 20 in
  Alcotest.(check (list int)) "suffix lsns" [ 20; 21; 22; 23; 24 ] (List.map fst records);
  Alcotest.(check (list int)) "suffix payloads" [ 2000; 2100; 2200; 2300; 2400 ]
    (List.map snd records);
  Alcotest.(check int) "one page read for 5 records" 1 (Cost.page_reads c)

let test_wal_multi_page_read () =
  let c, w = make_wal () in
  for i = 0 to 34 do
    ignore (Wal.append w i)
  done;
  Wal.force w;
  Cost.reset c;
  let records = Wal.records_from w 0 in
  Alcotest.(check int) "all records" 35 (List.length records);
  (* 35 records at 10/page -> 4 page reads *)
  Alcotest.(check int) "4 page reads" 4 (Cost.page_reads c)

let test_heap_rewrite_to_empty () =
  let _, h = make_heap () in
  ignore (Heap_file.append h "a");
  Heap_file.rewrite h [];
  Alcotest.(check int) "empty" 0 (Heap_file.record_count h);
  Alcotest.(check (list string)) "reads nothing" [] (Heap_file.read_all h)

let test_wal_truncate () =
  let _, w = make_wal () in
  for i = 0 to 9 do
    ignore (Wal.append w i)
  done;
  Wal.truncate_before w 6;
  Alcotest.(check int) "oldest" 6 (Wal.oldest_lsn w);
  Alcotest.(check int) "retained" 4 (Wal.record_count w);
  Alcotest.(check bool) "reading truncated prefix rejected" true
    (try
       ignore (Wal.records_from w 3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (list int)) "suffix still readable" [ 6; 7; 8; 9 ]
    (List.map fst (Wal.records_from w 6))

let test_wal_force_empty () =
  let c, w = make_wal () in
  Wal.force w;
  Alcotest.(check int) "force on empty log charges nothing" 0 (Cost.page_writes c);
  Alcotest.(check int) "still no pages" 0 (Wal.page_count w);
  Alcotest.(check int) "durable stays 0" 0 (Wal.durable_lsn w)

let test_wal_exact_page_fill () =
  let c, w = make_wal () in
  (* 10 records per page: the 10th append writes the page itself *)
  for i = 0 to 9 do
    ignore (Wal.append w i)
  done;
  Alcotest.(check int) "one write at exact fill" 1 (Cost.page_writes c);
  Alcotest.(check int) "everything durable" 10 (Wal.durable_lsn w);
  Alcotest.(check int) "one page, no tail" 1 (Wal.page_count w);
  Wal.force w;
  Alcotest.(check int) "force after exact fill is free" 1 (Cost.page_writes c)

let test_wal_page_count_invariant () =
  (* page_count = ceil(records / per_page) at every prefix, forced or not *)
  let _, w = make_wal () in
  for i = 1 to 35 do
    ignore (Wal.append w i);
    Alcotest.(check int)
      (Printf.sprintf "page_count after %d appends" i)
      ((i + 9) / 10) (Wal.page_count w)
  done;
  Wal.force w;
  Alcotest.(check int) "force does not change page_count" 4 (Wal.page_count w)

let test_wal_replay_after_truncation () =
  let _, w = make_wal () in
  for i = 0 to 14 do
    ignore (Wal.append w i)
  done;
  Wal.truncate_before w 12;
  for i = 15 to 17 do
    ignore (Wal.append w i)
  done;
  Alcotest.(check (list int)) "replay from oldest after truncate+append"
    [ 12; 13; 14; 15; 16; 17 ]
    (List.map fst (Wal.records_from w (Wal.oldest_lsn w)))

let test_wal_crash_tears_tail () =
  let c, w = make_wal () in
  for i = 0 to 13 do
    ignore (Wal.append w i)
  done;
  Cost.reset c;
  Alcotest.(check int) "4 volatile records lost" 4 (Wal.crash w);
  Alcotest.(check int) "no reads charged" 0 (Cost.page_reads c);
  Alcotest.(check int) "no writes charged" 0 (Cost.page_writes c);
  Alcotest.(check int) "durable page intact" 1 (Wal.page_count w);
  Alcotest.(check (list int)) "only durable records replay"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map fst (Wal.records_from w 0));
  Alcotest.(check int) "crash is idempotent" 0 (Wal.crash w);
  (* the log keeps working: lsns continue past the gap *)
  Alcotest.(check int) "next lsn unchanged" 14 (Wal.next_lsn w);
  Alcotest.(check int) "append continues" 14 (Wal.append w 14)

let wal_state w =
  Printf.sprintf "n%d d%d p%d o%d x%d" (Wal.record_count w) (Wal.durable_lsn w)
    (Wal.page_count w) (Wal.oldest_lsn w) (Wal.next_lsn w)

let wal_records_from w lsn =
  match Wal.records_from w lsn with
  | records -> String.concat "," (List.map (fun (l, r) -> Printf.sprintf "%d:%d" l r) records)
  | exception Invalid_argument _ -> "truncated"

(* Seeded script of appends, forces, crashes (which leave lsn gaps),
   truncations and reads from any lsn around the retained window, gap lsns
   included.  Every charged touch, every result and the accessors after
   each step go into a pinned digest, as in test_index. *)
let test_wal_touch_digest () =
  let io = Io.direct (Cost.create ()) ~page_bytes:80 in
  let w = Wal.create ~io ~record_bytes:8 () in
  let buf = Buffer.create 65536 in
  Io.set_touch_hook io
    (Some
       (fun { Io.op; file; page } ->
         Printf.bprintf buf "%c%d.%d " (if op = `Read then 'r' else 'w') file page));
  let rng = Random.State.make [| 37 |] in
  Fun.protect
    ~finally:(fun () -> Io.set_touch_hook io None)
    (fun () ->
      for step = 1 to 5_000 do
        let span = Wal.next_lsn w - Wal.oldest_lsn w in
        (match Random.State.int rng 12 with
        | n when n < 6 -> Printf.bprintf buf "a%d" (Wal.append w step)
        | 6 -> Wal.force w
        | 7 -> Printf.bprintf buf "c%d" (Wal.crash w)
        | 8 -> Wal.truncate_before w (Wal.oldest_lsn w - 2 + Random.State.int rng (span + 3))
        | _ ->
          let lsn = Wal.oldest_lsn w - 1 + Random.State.int rng (span + 3) in
          Buffer.add_string buf (wal_records_from w lsn));
        Printf.bprintf buf " %s\n" (wal_state w)
      done);
  Alcotest.(check string) "touch trace digest" "55ab956df5498eff694bb0db32c57a30"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Shadow model: the retained records as a list, with the page arithmetic
   spelled out.  Random appends, forces, crashes, truncations and reads
   must agree with it on every suffix, on the accessors and on the pages
   each read charges (the first ceil(k / per_page) log pages). *)
let wal_vs_model =
  QCheck.Test.make ~name:"wal matches reference log" ~count:200
    QCheck.(list (pair (int_bound 5) (int_bound 40)))
    (fun script ->
      let io = Io.direct (Cost.create ()) ~page_bytes:40 in
      let w = Wal.create ~io ~record_bytes:8 () in
      let per_page = 5 in
      let reads = ref [] in
      Io.set_touch_hook io
        (Some (fun { Io.op; page; _ } -> if op = `Read then reads := page :: !reads));
      let records = ref [] and next = ref 0 and oldest = ref 0 in
      let tail = ref 0 and written = ref 0 in
      let write_tail () =
        incr written;
        tail := 0
      in
      List.for_all
        (fun (op, n) ->
          (match op with
          | 0 | 1 ->
            if Wal.append w n <> !next then failwith "append lsn disagreed";
            records := !records @ [ (!next, n) ];
            incr next;
            incr tail;
            if !tail = per_page then write_tail ()
          | 2 ->
            Wal.force w;
            if !tail > 0 then write_tail ()
          | 3 ->
            let durable = !next - !tail in
            if Wal.crash w <> !tail then failwith "crash lost count disagreed";
            records := List.filter (fun (l, _) -> l < durable) !records;
            tail := 0
          | 4 ->
            let lsn = !oldest + n - 5 in
            Wal.truncate_before w lsn;
            if lsn > !oldest then begin
              records := List.filter (fun (l, _) -> l >= lsn) !records;
              oldest := lsn
            end
          | _ ->
            let lsn = !oldest + (n mod max 1 (!next - !oldest + 2)) in
            reads := [];
            let wanted = List.filter (fun (l, _) -> l >= lsn) !records in
            if Wal.records_from w lsn <> wanted then failwith "records_from disagreed";
            let pages = (List.length wanted + per_page - 1) / per_page in
            if List.rev !reads <> List.init pages Fun.id then failwith "read charges disagreed");
          Wal.record_count w = List.length !records
          && Wal.durable_lsn w = !next - !tail
          && Wal.page_count w = !written + Bool.to_int (!tail > 0)
          && Wal.oldest_lsn w = !oldest
          && Wal.next_lsn w = !next)
        script)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "cost",
        [
          Alcotest.test_case "counters" `Quick test_cost_counters;
          Alcotest.test_case "pricing" `Quick test_cost_pricing;
          Alcotest.test_case "invalidation pricing" `Quick test_cost_inval_pricing;
          Alcotest.test_case "disable" `Quick test_cost_disable;
          Alcotest.test_case "disable nested" `Quick test_cost_disable_nested;
          Alcotest.test_case "disable exception-safe" `Quick test_cost_disable_exception_safe;
          Alcotest.test_case "snapshot diff" `Quick test_cost_snapshot_diff;
          Alcotest.test_case "reset" `Quick test_cost_reset;
        ] );
      ( "io",
        [
          Alcotest.test_case "direct charges" `Quick test_io_direct_charges_every_touch;
          Alcotest.test_case "fresh files" `Quick test_io_fresh_files_distinct;
          Alcotest.test_case "page math" `Quick test_io_records_per_page;
          Alcotest.test_case "touch dedup" `Quick test_io_touch_dedup;
          Alcotest.test_case "touch dedup nested" `Quick test_io_touch_dedup_nested;
          Alcotest.test_case "buffer hits" `Quick test_io_buffered_hits;
          Alcotest.test_case "buffer write hits" `Quick test_io_buffered_write_hits;
          Alcotest.test_case "buffer eviction" `Quick test_io_buffered_eviction;
          Alcotest.test_case "buffer LRU order" `Quick test_io_buffered_lru_order;
          Alcotest.test_case "buffer flush" `Quick test_io_flush;
        ] );
      ( "heap_file",
        [
          Alcotest.test_case "append/get" `Quick test_heap_append_get;
          Alcotest.test_case "page allocation" `Quick test_heap_page_allocation;
          Alcotest.test_case "set/delete" `Quick test_heap_set_delete;
          Alcotest.test_case "slot reuse" `Quick test_heap_slot_reuse;
          Alcotest.test_case "append charges" `Quick test_heap_charges;
          Alcotest.test_case "scan charges per page" `Quick test_heap_scan_charges_per_page;
          Alcotest.test_case "read_all order" `Quick test_heap_read_all_order;
          Alcotest.test_case "rewrite" `Quick test_heap_rewrite;
          Alcotest.test_case "batch dedups pages" `Quick test_heap_apply_batch_dedups_pages;
          Alcotest.test_case "batch insert collision (regression)" `Quick
            test_heap_apply_batch_insert_collision_regression;
          Alcotest.test_case "batch mixed ops" `Quick test_heap_apply_batch_mixed;
          Alcotest.test_case "batch inserts spill pages" `Quick
            test_heap_apply_batch_many_inserts_spill_pages;
          Alcotest.test_case "fold" `Quick test_heap_fold;
          Alcotest.test_case "clear/contents" `Quick test_heap_clear_and_contents;
          Alcotest.test_case "stale rid" `Quick test_heap_stale_rid;
          qc heap_model_property;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append lsns" `Quick test_wal_append_lsns;
          Alcotest.test_case "amortized writes" `Quick test_wal_amortized_writes;
          Alcotest.test_case "durable lsn" `Quick test_wal_durable_lsn;
          Alcotest.test_case "records_from" `Quick test_wal_records_from;
          Alcotest.test_case "multi-page read" `Quick test_wal_multi_page_read;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "heap rewrite to empty" `Quick test_heap_rewrite_to_empty;
          Alcotest.test_case "force on empty tail" `Quick test_wal_force_empty;
          Alcotest.test_case "append exactly fills a page" `Quick test_wal_exact_page_fill;
          Alcotest.test_case "page_count invariant" `Quick test_wal_page_count_invariant;
          Alcotest.test_case "replay after truncation" `Quick
            test_wal_replay_after_truncation;
          Alcotest.test_case "crash tears the volatile tail" `Quick
            test_wal_crash_tears_tail;
          Alcotest.test_case "touch trace digest" `Quick test_wal_touch_digest;
          qc wal_vs_model;
        ] );
    ]
