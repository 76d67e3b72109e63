module Pool = Dq_par.Pool

(* --- chunking ----------------------------------------------------------- *)

let test_chunk_ranges_basic () =
  Alcotest.(check (list (pair int int)))
    "n=10 size=4"
    [ (0, 4); (4, 4); (8, 2) ]
    (Pool.chunk_ranges ~n:10 ~chunk_size:4);
  Alcotest.(check (list (pair int int))) "n=0" [] (Pool.chunk_ranges ~n:0 ~chunk_size:3);
  Alcotest.(check (list (pair int int)))
    "size > n" [ (0, 2) ]
    (Pool.chunk_ranges ~n:2 ~chunk_size:100);
  Alcotest.check_raises "n < 0" (Invalid_argument "Pool.chunk_ranges: n < 0") (fun () ->
      ignore (Pool.chunk_ranges ~n:(-1) ~chunk_size:1));
  Alcotest.check_raises "chunk_size < 1"
    (Invalid_argument "Pool.chunk_ranges: chunk_size < 1") (fun () ->
      ignore (Pool.chunk_ranges ~n:4 ~chunk_size:0))

let prop_chunks_cover_exactly_once =
  QCheck.Test.make ~name:"chunk_ranges covers every index exactly once" ~count:500
    QCheck.(pair (int_range 0 300) (int_range 1 20))
    (fun (n, chunk_size) ->
      let covered =
        Pool.chunk_ranges ~n ~chunk_size
        |> List.concat_map (fun (start, len) -> List.init len (fun i -> start + i))
      in
      covered = List.init n Fun.id)

(* --- parallel map ------------------------------------------------------- *)

let test_ordering_preserved () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let input = List.init 101 (fun i -> i) in
          let expected = List.map (fun i -> i * i) input in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d" jobs)
            expected
            (Pool.map pool (fun i -> i * i) input);
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d chunked" jobs)
            expected
            (Pool.map ~chunk_size:7 pool (fun i -> i * i) input)))
    [ 1; 2; 4 ]

let test_empty_and_singleton () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool Fun.id []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map pool (fun x -> x + 1) [ 6 ]))

let test_exception_reraised () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "worker exception reaches the caller" (Failure "boom 13")
        (fun () ->
          ignore
            (Pool.map pool
               (fun i -> if i = 13 then failwith (Printf.sprintf "boom %d" i) else i)
               (List.init 50 Fun.id))))

let test_first_failing_chunk_wins () =
  (* Two failures: the one in the lowest-indexed chunk is re-raised,
     regardless of which worker hit its chunk first. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "lowest chunk's exception" (Failure "boom 3") (fun () ->
          ignore
            (Pool.map pool
               (fun i ->
                 if i = 3 || i = 47 then failwith (Printf.sprintf "boom %d" i) else i)
               (List.init 50 Fun.id))))

let test_pool_reusable_after_error () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (try ignore (Pool.map pool (fun _ -> failwith "die") (List.init 20 Fun.id))
       with Failure _ -> ());
      let input = List.init 40 Fun.id in
      Alcotest.(check (list int))
        "map after error" (List.map succ input)
        (Pool.map pool succ input))

let test_reentrant_map_falls_back_serial () =
  (* A map issued from inside a running map (worker or caller domain) must
     not deadlock; it degrades to a serial map with the same result. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let result =
        Pool.map pool
          (fun i -> List.fold_left ( + ) 0 (Pool.map pool Fun.id [ i; i; i ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested" [ 3; 6; 9; 12 ] result)

(* Back-to-back short maps, as PDES windows issue them: idle workers
   and the waiting caller spin before blocking, so most hand-overs
   happen without a condition variable. Every map must still see each
   chunk exactly once, including when one chunk outlasts the spin and
   the caller blocks. *)
let test_back_to_back_maps () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let input = Array.init 8 Fun.id in
          for round = 1 to 2000 do
            let slow = round mod 500 = 0 in
            let f i =
              if slow && i = 7 then begin
                (* About 3 ms: well past the pool's ~2k-poll spin. *)
                for _ = 1 to 100_000 do
                  Domain.cpu_relax ()
                done
              end;
              (round * 8) + i
            in
            let got = Pool.map_array pool f input in
            if got <> Array.map (fun i -> (round * 8) + i) input then
              Alcotest.failf "jobs=%d round %d: wrong map result" jobs round
          done))
    [ 2; 3 ]

let test_default_jobs_env () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"map equals List.map for any jobs/chunking" ~count:100
    QCheck.(triple (list small_int) (int_range 1 5) (int_range 1 8))
    (fun (xs, jobs, chunk_size) ->
      Pool.with_pool ~jobs (fun pool ->
          Pool.map ~chunk_size pool (fun x -> (2 * x) - 1) xs
          = List.map (fun x -> (2 * x) - 1) xs))

let () =
  Alcotest.run "par"
    [
      ( "chunking",
        [
          Alcotest.test_case "ranges" `Quick test_chunk_ranges_basic;
          QCheck_alcotest.to_alcotest prop_chunks_cover_exactly_once;
        ] );
      ( "map",
        [
          Alcotest.test_case "ordering preserved" `Quick test_ordering_preserved;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception re-raised" `Quick test_exception_reraised;
          Alcotest.test_case "first failing chunk wins" `Quick test_first_failing_chunk_wins;
          Alcotest.test_case "pool reusable after error" `Quick test_pool_reusable_after_error;
          Alcotest.test_case "re-entrant map is serial" `Quick
            test_reentrant_map_falls_back_serial;
          Alcotest.test_case "back-to-back short maps" `Quick test_back_to_back_maps;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
          QCheck_alcotest.to_alcotest prop_map_matches_list_map;
        ] );
    ]
