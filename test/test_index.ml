(* Tests for Dbproc.Index: B+-tree ordering/splitting/invariants and the
   static hash index, including their I/O charging. *)

open Dbproc.Storage
open Dbproc.Index

let make_btree ?(page_bytes = 200) ?(entry_bytes = 20) () =
  let c = Cost.create () in
  (* capacity 10 entries per node: splits happen quickly *)
  let io = Io.direct c ~page_bytes in
  (c, Btree.create ~io ~entry_bytes ~compare:Int.compare ())

(* Runs [script] with every charged page touch of [io] recorded, and
   returns the hex digest of the touch trace interleaved with whatever the
   script logs.  The constants below pin the charges and results: a change
   to how a structure is held in memory must reproduce them exactly, and
   only a deliberate change to the cost model may move them. *)
let touch_digest io script =
  let buf = Buffer.create 65536 in
  Io.set_touch_hook io
    (Some
       (fun { Io.op; file; page } ->
         Printf.bprintf buf "%c%d.%d " (if op = `Read then 'r' else 'w') file page));
  let log s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  Fun.protect ~finally:(fun () -> Io.set_touch_hook io None) (fun () -> script log);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let ints l = String.concat "," (List.map string_of_int l)

(* ---------------------------------------------------------------- Btree *)

let test_btree_empty () =
  let _, t = make_btree () in
  Alcotest.(check int) "empty count" 0 (Btree.entry_count t);
  Alcotest.(check int) "height 1" 1 (Btree.height t);
  Alcotest.(check (list int)) "search misses" [] (Btree.search t 5);
  Btree.check_invariants t

let test_btree_insert_search () =
  let _, t = make_btree () in
  List.iter (fun k -> Btree.insert t k (k * 10)) [ 5; 3; 8; 1; 9 ];
  Alcotest.(check (list int)) "find 3" [ 30 ] (Btree.search t 3);
  Alcotest.(check (list int)) "find 9" [ 90 ] (Btree.search t 9);
  Alcotest.(check (list int)) "miss" [] (Btree.search t 7);
  Btree.check_invariants t

let test_btree_split_grows_height () =
  let _, t = make_btree () in
  Alcotest.(check int) "capacity" 10 (Btree.capacity t);
  for k = 1 to 11 do
    Btree.insert t k k
  done;
  Alcotest.(check bool) "height grew" true (Btree.height t >= 2);
  Btree.check_invariants t;
  for k = 1 to 11 do
    Alcotest.(check (list int)) "still findable" [ k ] (Btree.search t k)
  done

let test_btree_many_inserts () =
  let _, t = make_btree () in
  let keys = List.init 1000 (fun i -> (i * 7919) mod 1000) in
  List.iter (fun k -> Btree.insert t k k) keys;
  Btree.check_invariants t;
  Alcotest.(check int) "count" 1000 (Btree.entry_count t);
  Alcotest.(check bool) "height >= 3" true (Btree.height t >= 3)

let test_btree_duplicates () =
  let _, t = make_btree () in
  Btree.insert t 4 100;
  Btree.insert t 4 200;
  Btree.insert t 4 300;
  Alcotest.(check (list int)) "all copies, insertion order" [ 100; 200; 300 ] (Btree.search t 4);
  Btree.check_invariants t

let test_btree_duplicates_across_splits () =
  let _, t = make_btree () in
  (* 50 copies of the same key forces splits between duplicates. *)
  for i = 1 to 50 do
    Btree.insert t 7 i
  done;
  Btree.insert t 3 0;
  Btree.insert t 9 0;
  Btree.check_invariants t;
  Alcotest.(check int) "all 50 found" 50 (List.length (Btree.search t 7))

let test_btree_remove () =
  let _, t = make_btree () in
  List.iter (fun k -> Btree.insert t k k) [ 1; 2; 3 ];
  Alcotest.(check bool) "removed" true (Btree.remove t 2 (fun _ -> true));
  Alcotest.(check (list int)) "gone" [] (Btree.search t 2);
  Alcotest.(check bool) "remove again fails" false (Btree.remove t 2 (fun _ -> true));
  Alcotest.(check int) "count" 2 (Btree.entry_count t);
  Btree.check_invariants t

let test_btree_remove_specific_value () =
  let _, t = make_btree () in
  Btree.insert t 5 1;
  Btree.insert t 5 2;
  Alcotest.(check bool) "remove v=2" true (Btree.remove t 5 (( = ) 2));
  Alcotest.(check (list int)) "v=1 remains" [ 1 ] (Btree.search t 5)

let test_btree_range () =
  let _, t = make_btree () in
  List.iter (fun k -> Btree.insert t k k) [ 1; 3; 5; 7; 9; 11 ];
  let collect lo hi =
    let acc = ref [] in
    Btree.range t ~lo ~hi ~f:(fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "inclusive range" [ 3; 5; 7 ]
    (collect (Btree.Inclusive 3) (Btree.Inclusive 7));
  Alcotest.(check (list int)) "exclusive bounds" [ 5 ]
    (collect (Btree.Exclusive 3) (Btree.Exclusive 7));
  Alcotest.(check (list int)) "unbounded" [ 1; 3; 5; 7; 9; 11 ]
    (collect Btree.Unbounded Btree.Unbounded);
  Alcotest.(check (list int)) "half open" [ 9; 11 ] (collect (Btree.Inclusive 8) Btree.Unbounded)

let test_btree_range_order_large () =
  let _, t = make_btree () in
  let keys = List.init 500 (fun i -> (i * 131) mod 500) in
  List.iter (fun k -> Btree.insert t k k) keys;
  let acc = ref [] in
  Btree.iter t ~f:(fun k _ -> acc := k :: !acc);
  let got = List.rev !acc in
  Alcotest.(check (list int)) "sorted iteration" (List.sort compare keys) got

let test_btree_search_charges_descent () =
  let c, t = make_btree () in
  Cost.with_disabled c (fun () ->
      for k = 1 to 500 do
        Btree.insert t k k
      done);
  Cost.reset c;
  ignore (Btree.search t 250);
  (* A search must read at least [height] node pages and not absurdly more. *)
  let h = Btree.height t in
  let reads = Cost.page_reads c in
  if reads < h || reads > h + 2 then Alcotest.failf "search reads %d, height %d" reads h

let test_btree_insert_charges_writes () =
  let c, t = make_btree () in
  Cost.reset c;
  Btree.insert t 1 1;
  Alcotest.(check bool) "wrote the leaf" true (Cost.page_writes c >= 1)

let test_btree_range_after_removals () =
  let _, t = make_btree () in
  for k = 0 to 99 do
    Btree.insert t k k
  done;
  for k = 0 to 99 do
    if k mod 2 = 0 then ignore (Btree.remove t k (fun _ -> true))
  done;
  Btree.check_invariants t;
  let acc = ref [] in
  Btree.range t ~lo:(Btree.Inclusive 10) ~hi:(Btree.Exclusive 20) ~f:(fun k _ ->
      acc := k :: !acc);
  Alcotest.(check (list int)) "only odds remain" [ 11; 13; 15; 17; 19 ] (List.rev !acc)

let test_btree_empty_range () =
  let _, t = make_btree () in
  List.iter (fun k -> Btree.insert t k k) [ 1; 5; 9 ];
  let acc = ref 0 in
  Btree.range t ~lo:(Btree.Inclusive 6) ~hi:(Btree.Exclusive 9) ~f:(fun _ _ -> incr acc);
  Alcotest.(check int) "gap range empty" 0 !acc;
  Btree.range t ~lo:(Btree.Inclusive 100) ~hi:Btree.Unbounded ~f:(fun _ _ -> incr acc);
  Alcotest.(check int) "past-end range empty" 0 !acc

let btree_vs_model =
  (* Random script against a reference list of (key, value) pairs, oldest
     first.  A remove drops the oldest entry that satisfies its predicate;
     search returns a key's values in insertion order; range and iter visit
     keys in order, duplicates in insertion order. *)
  let gen =
    QCheck.(list_of_size Gen.(0 -- 600) (triple (int_bound 3) (int_bound 50) (int_bound 50)))
  in
  QCheck.Test.make ~name:"btree matches reference multiset" ~count:200 gen (fun script ->
      let _, t = make_btree () in
      let model = ref [] in
      let in_key_order () = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !model in
      List.iteri
        (fun step (op, k, j) ->
          match op with
          | 0 | 1 ->
            Btree.insert t k step;
            model := !model @ [ (k, step) ]
          | 2 ->
            let pred v = j mod 2 = 1 || v mod 2 = 0 in
            let rec drop = function
              | [] -> None
              | (k', v) :: rest when k' = k && pred v -> Some rest
              | e :: rest -> Option.map (List.cons e) (drop rest)
            in
            let removed = Btree.remove t k pred in
            let expected = drop !model in
            if removed <> Option.is_some expected then failwith "remove disagreed with model";
            Option.iter (fun rest -> model := rest) expected
          | _ ->
            let bound b incl = if incl then Btree.Inclusive b else Btree.Exclusive b in
            let lo = if j mod 3 = 0 then Btree.Unbounded else bound (min k j) (j mod 2 = 0) in
            let hi = if k mod 3 = 0 then Btree.Unbounded else bound (max k j) (k mod 2 = 0) in
            let inside x =
              (match lo with
              | Btree.Unbounded -> true
              | Btree.Inclusive b -> x >= b
              | Btree.Exclusive b -> x > b)
              &&
              match hi with
              | Btree.Unbounded -> true
              | Btree.Inclusive b -> x <= b
              | Btree.Exclusive b -> x < b
            in
            let got = ref [] in
            Btree.range t ~lo ~hi ~f:(fun k v -> got := (k, v) :: !got);
            if List.rev !got <> List.filter (fun (x, _) -> inside x) (in_key_order ()) then
              failwith "range disagreed with model")
        script;
      Btree.check_invariants t;
      for k = 0 to 50 do
        if Btree.search t k <> List.filter_map (fun (x, v) -> if x = k then Some v else None) !model
        then failwith "search disagreed with model"
      done;
      let got = ref [] in
      Btree.iter t ~f:(fun k v -> got := (k, v) :: !got);
      List.rev !got = in_key_order () && Btree.entry_count t = List.length !model)

(* Seeded script over a tree with 20 entries per node (height 4 by the
   end): even keys only, so odd keys are absent; duplicates, removes with
   a selective predicate, point searches and ranges.  Every charged touch
   and every result goes into the digest. *)
let test_btree_touch_digest () =
  let io = Io.direct (Cost.create ()) ~page_bytes:400 in
  let t = Btree.create ~io ~entry_bytes:20 ~compare:Int.compare () in
  let rng = Random.State.make [| 29 |] in
  let digest =
    touch_digest io (fun log ->
        for step = 1 to 20_000 do
          let k = 2 * Random.State.int rng 1000 in
          match Random.State.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 -> Btree.insert t k step
          | 5 | 6 -> log (string_of_bool (Btree.remove t k (fun v -> v mod 3 = 0)))
          | 7 -> log (ints (Btree.search t k))
          | 8 -> log (ints (Btree.search t (k + 1)))
          | _ ->
            let bound b = if Random.State.bool rng then Btree.Inclusive b else Btree.Exclusive b in
            let lo = if k < 100 then Btree.Unbounded else bound (k + 1 - Random.State.int rng 3) in
            let hi = if k > 1900 then Btree.Unbounded else bound (k + Random.State.int rng 30) in
            let acc = ref [] in
            Btree.range t ~lo ~hi ~f:(fun k v -> acc := v :: k :: !acc);
            log (ints !acc)
        done;
        log (ints [ Btree.entry_count t; Btree.height t ]))
  in
  Btree.check_invariants t;
  Alcotest.(check bool) "height reaches 3" true (Btree.height t >= 3);
  Alcotest.(check string) "touch trace digest" "2baebaf6025c17fb2c8034c7940d0279" digest

(* ----------------------------------------------------------- Hash_index *)

let make_hash ?(page_bytes = 400) ?(expected = 100) () =
  let c = Cost.create () in
  let io = Io.direct c ~page_bytes in
  (c, Hash_index.create ~io ~entry_bytes:20 ~expected_entries:expected ~equal:Int.equal ())

let test_hash_insert_search () =
  let _, h = make_hash () in
  Hash_index.insert h 1 "a";
  Hash_index.insert h 2 "b";
  Hash_index.insert h 1 "c";
  Alcotest.(check (list string)) "duplicates in order" [ "a"; "c" ] (Hash_index.search h 1);
  Alcotest.(check (list string)) "single" [ "b" ] (Hash_index.search h 2);
  Alcotest.(check (list string)) "miss" [] (Hash_index.search h 3);
  Alcotest.(check int) "count" 3 (Hash_index.entry_count h)

let test_hash_remove () =
  let _, h = make_hash () in
  Hash_index.insert h 1 "a";
  Hash_index.insert h 1 "b";
  Alcotest.(check bool) "removed" true (Hash_index.remove h 1 (( = ) "a"));
  Alcotest.(check (list string)) "b remains" [ "b" ] (Hash_index.search h 1);
  Alcotest.(check bool) "absent" false (Hash_index.remove h 2 (fun _ -> true))

let test_hash_sizing () =
  let _, h = make_hash ~expected:1000 () in
  (* 20 entries per page at 70% target = 14 per bucket -> ~72 buckets *)
  Alcotest.(check bool) "bucket count reasonable" true
    (Hash_index.bucket_count h >= 50 && Hash_index.bucket_count h <= 100)

let test_hash_chain_growth () =
  let _, h = make_hash ~expected:1 () in
  (* One bucket: every insert chains into it. 20 entries/page. *)
  Alcotest.(check int) "single bucket" 1 (Hash_index.bucket_count h);
  for i = 1 to 45 do
    Hash_index.insert h i (string_of_int i)
  done;
  Alcotest.(check int) "3 chain pages" 3 (Hash_index.chain_length h 1);
  Alcotest.(check int) "page count" 3 (Hash_index.page_count h)

let test_hash_search_charges_chain () =
  let c, h = make_hash ~expected:1 () in
  Cost.with_disabled c (fun () ->
      for i = 1 to 45 do
        Hash_index.insert h i (string_of_int i)
      done);
  Cost.reset c;
  ignore (Hash_index.search h 7);
  Alcotest.(check int) "reads all 3 chain pages" 3 (Cost.page_reads c)

let test_hash_iter () =
  let _, h = make_hash () in
  for i = 1 to 30 do
    Hash_index.insert h i i
  done;
  let seen = ref [] in
  Hash_index.iter h ~f:(fun _ v -> seen := v :: !seen);
  Alcotest.(check (list int)) "all visited"
    (List.init 30 (fun i -> i + 1))
    (List.sort compare !seen)

let hash_vs_model =
  (* Reference: each bucket a chain of pages, each page a list of (key,
     value) pairs, oldest first.  An insert fills the first page with room;
     a remove drops the newest entry satisfying its predicate on the first
     page that holds one; search and iter read the pages in chain order and
     each page in insertion order. *)
  QCheck.Test.make ~name:"hash index matches reference multiset" ~count:200
    QCheck.(list (triple (int_bound 2) (int_bound 20) bool))
    (fun script ->
      (* 5 entries per page, 4 buckets: chains of several pages *)
      let _, h = make_hash ~page_bytes:100 ~expected:10 () in
      let per_page = 5 in
      let chains = Array.make (Hash_index.bucket_count h) [] in
      let bucket k = abs (Hashtbl.hash k) mod Array.length chains in
      List.iteri
        (fun step (op, k, any) ->
          let b = bucket k in
          if op < 2 then begin
            Hash_index.insert h k step;
            let rec place = function
              | [] -> [ [ (k, step) ] ]
              | page :: rest when List.length page < per_page -> (page @ [ (k, step) ]) :: rest
              | page :: rest -> page :: place rest
            in
            chains.(b) <- place chains.(b)
          end
          else begin
            let pred v = any || v mod 2 = 0 in
            let hit (k', v) = k' = k && pred v in
            let rec drop_first = function
              | [] -> []
              | e :: rest -> if hit e then rest else e :: drop_first rest
            in
            let rec drop = function
              | [] -> None
              | page :: rest when List.exists hit page ->
                Some (List.rev (drop_first (List.rev page)) :: rest)
              | page :: rest -> Option.map (List.cons page) (drop rest)
            in
            let removed = Hash_index.remove h k pred in
            let expected = drop chains.(b) in
            if removed <> Option.is_some expected then failwith "remove disagreed with model";
            Option.iter (fun chain -> chains.(b) <- chain) expected
          end)
        script;
      let entries = List.concat (List.concat (Array.to_list chains)) in
      let values k =
        List.concat_map
          (List.filter_map (fun (k', v) -> if k' = k then Some v else None))
          chains.(bucket k)
      in
      let seen = ref [] in
      Hash_index.iter h ~f:(fun k v -> seen := (k, v) :: !seen);
      List.for_all (fun k -> Hash_index.search h k = values k) (List.init 21 Fun.id)
      && List.rev !seen = entries
      && Hash_index.entry_count h = List.length entries)

(* Seeded script over three buckets of 20-entry pages, so chains grow to
   several pages: duplicates, removes with a selective predicate that free
   slots in the middle of a chain, inserts that refill them, searches and
   full iterations, all in the digest with every charged touch. *)
let test_hash_touch_digest () =
  let io = Io.direct (Cost.create ()) ~page_bytes:400 in
  let h = Hash_index.create ~io ~entry_bytes:20 ~expected_entries:30 ~equal:Int.equal () in
  let rng = Random.State.make [| 31 |] in
  let digest =
    touch_digest io (fun log ->
        for step = 1 to 6_000 do
          let k = Random.State.int rng 60 in
          match Random.State.int rng 20 with
          | n when n < 9 -> Hash_index.insert h k step
          | n when n < 15 -> log (string_of_bool (Hash_index.remove h k (fun v -> v mod 2 = 0)))
          | n when n < 19 -> log (ints (Hash_index.search h k))
          | _ ->
            if step mod 10 = 0 then begin
              let acc = ref [] in
              Hash_index.iter h ~f:(fun k v -> acc := v :: k :: !acc);
              log (ints !acc)
            end
        done;
        log
          (ints
             (Hash_index.entry_count h :: Hash_index.page_count h
             :: List.init 3 (fun k -> Hash_index.chain_length h k))))
  in
  Alcotest.(check int) "three buckets" 3 (Hash_index.bucket_count h);
  Alcotest.(check bool) "chains of 3+ pages" true (Hash_index.chain_length h 0 >= 3);
  Alcotest.(check string) "touch trace digest" "1abc805019b658830fb4d608f8824f14" digest

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "index"
    [
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_btree_empty;
          Alcotest.test_case "insert/search" `Quick test_btree_insert_search;
          Alcotest.test_case "split grows height" `Quick test_btree_split_grows_height;
          Alcotest.test_case "1000 inserts" `Quick test_btree_many_inserts;
          Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
          Alcotest.test_case "duplicates across splits" `Quick test_btree_duplicates_across_splits;
          Alcotest.test_case "remove" `Quick test_btree_remove;
          Alcotest.test_case "remove specific value" `Quick test_btree_remove_specific_value;
          Alcotest.test_case "range bounds" `Quick test_btree_range;
          Alcotest.test_case "sorted iteration" `Quick test_btree_range_order_large;
          Alcotest.test_case "search charges descent" `Quick test_btree_search_charges_descent;
          Alcotest.test_case "insert charges writes" `Quick test_btree_insert_charges_writes;
          Alcotest.test_case "range after removals" `Quick test_btree_range_after_removals;
          Alcotest.test_case "empty ranges" `Quick test_btree_empty_range;
          Alcotest.test_case "touch trace digest" `Quick test_btree_touch_digest;
          qc btree_vs_model;
        ] );
      ( "hash",
        [
          Alcotest.test_case "insert/search" `Quick test_hash_insert_search;
          Alcotest.test_case "remove" `Quick test_hash_remove;
          Alcotest.test_case "sizing" `Quick test_hash_sizing;
          Alcotest.test_case "chain growth" `Quick test_hash_chain_growth;
          Alcotest.test_case "search charges chain" `Quick test_hash_search_charges_chain;
          Alcotest.test_case "iter" `Quick test_hash_iter;
          Alcotest.test_case "touch trace digest" `Quick test_hash_touch_digest;
          qc hash_vs_model;
        ] );
    ]
