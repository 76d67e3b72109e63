module Qs = Dq_quorum.Quorum_system

let members n = List.init n Fun.id

let test_majority_sizes () =
  let qs = Qs.majority (members 9) in
  Alcotest.(check int) "read quorum" 5 (Qs.min_read_size qs);
  Alcotest.(check int) "write quorum" 5 (Qs.min_write_size qs);
  Alcotest.(check int) "size" 9 (Qs.size qs)

let test_rowa_sizes () =
  let qs = Qs.rowa (members 7) in
  Alcotest.(check int) "read quorum" 1 (Qs.min_read_size qs);
  Alcotest.(check int) "write quorum" 7 (Qs.min_write_size qs)

let test_threshold_predicates () =
  let qs = Qs.threshold ~name:"t" ~members:(members 5) ~read:2 ~write:4 in
  Alcotest.(check bool) "2 nodes read" true (Qs.is_read_quorum_list qs [ 0; 3 ]);
  Alcotest.(check bool) "1 node no read" false (Qs.is_read_quorum_list qs [ 0 ]);
  Alcotest.(check bool) "4 nodes write" true (Qs.is_write_quorum_list qs [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "3 nodes no write" false (Qs.is_write_quorum_list qs [ 0; 1; 2 ]);
  Alcotest.(check bool) "duplicates do not inflate" false
    (Qs.is_read_quorum_list qs [ 0; 0 ])

let test_threshold_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "r+w<=n rejected" true
    (raises (fun () -> ignore (Qs.threshold ~name:"x" ~members:(members 5) ~read:2 ~write:3)));
  Alcotest.(check bool) "2w<=n rejected" true
    (raises (fun () -> ignore (Qs.threshold ~name:"x" ~members:(members 6) ~read:4 ~write:3)));
  Alcotest.(check bool) "empty rejected" true
    (raises (fun () -> ignore (Qs.threshold ~name:"x" ~members:[] ~read:1 ~write:1)))

let test_nonconsecutive_member_ids () =
  let qs = Qs.majority [ 10; 20; 30 ] in
  Alcotest.(check bool) "mem" true (Qs.mem qs 20);
  Alcotest.(check bool) "not mem" false (Qs.mem qs 2);
  Alcotest.(check bool) "quorum of member ids" true (Qs.is_read_quorum_list qs [ 10; 30 ])

(* [index] is a member's position in [members]; servers index per-peer
   arrays with it, so it must agree with [members] for every
   construction, over ids that are neither contiguous nor zero-based. *)
let test_index_nonconsecutive () =
  let check_system qs ids =
    Alcotest.(check (list int)) (Qs.name qs ^ " members order") ids (Qs.members qs);
    List.iteri
      (fun i id ->
        Alcotest.(check int) (Printf.sprintf "%s index %d" (Qs.name qs) id) i (Qs.index qs id))
      ids;
    List.iter
      (fun id ->
        Alcotest.(check int)
          (Printf.sprintf "%s non-member %d" (Qs.name qs) id)
          (-1) (Qs.index qs id);
        Alcotest.(check bool) (Printf.sprintf "%s not mem %d" (Qs.name qs) id) false (Qs.mem qs id))
      [ -1; 0; 2; 4; 8; 12; 100; min_int; max_int ]
  in
  check_system (Qs.majority [ 3; 7; 11 ]) [ 3; 7; 11 ];
  check_system (Qs.rowa [ 11; 3; 7 ]) [ 11; 3; 7 ];
  check_system (Qs.grid ~rows:2 ~cols:2 [ 9; 3; 11; 7 ]) [ 9; 3; 11; 7 ];
  check_system
    (Qs.weighted ~name:"w" ~members:[ (7, 3); (11, 1); (3, 1) ] ~read:2 ~write:4)
    [ 7; 11; 3 ]

let test_choose_read_is_quorum () =
  let rng = Dq_util.Rng.create 4L in
  List.iter
    (fun qs ->
      for _ = 1 to 50 do
        let q = Qs.choose_read qs rng in
        Alcotest.(check bool) (Qs.name qs ^ " read choice valid") true
          (Qs.is_read_quorum_list qs q);
        Alcotest.(check int)
          (Qs.name qs ^ " minimal")
          (Qs.min_read_size qs) (List.length q)
      done)
    [ Qs.majority (members 9); Qs.rowa (members 5); Qs.grid ~rows:3 ~cols:3 (members 9) ]

let test_choose_write_is_quorum () =
  let rng = Dq_util.Rng.create 5L in
  List.iter
    (fun qs ->
      for _ = 1 to 50 do
        let q = Qs.choose_write qs rng in
        Alcotest.(check bool) (Qs.name qs ^ " write choice valid") true
          (Qs.is_write_quorum_list qs q)
      done)
    [ Qs.majority (members 9); Qs.rowa (members 5); Qs.grid ~rows:3 ~cols:3 (members 9) ]

let test_grid_read_quorum () =
  (* 2x3 grid, row-major:
       0 1 2
       3 4 5
     A read quorum covers every column. *)
  let qs = Qs.grid ~rows:2 ~cols:3 (members 6) in
  Alcotest.(check bool) "one per column" true (Qs.is_read_quorum_list qs [ 0; 4; 5 ]);
  Alcotest.(check bool) "column missing" false (Qs.is_read_quorum_list qs [ 0; 1; 3; 4 ]);
  Alcotest.(check int) "min read size" 3 (Qs.min_read_size qs)

let test_grid_write_quorum () =
  let qs = Qs.grid ~rows:2 ~cols:3 (members 6) in
  (* Full column {0,3} plus cover {1,2}. *)
  Alcotest.(check bool) "column + cover" true (Qs.is_write_quorum_list qs [ 0; 3; 1; 2 ]);
  Alcotest.(check bool) "cover without full column" false
    (Qs.is_write_quorum_list qs [ 0; 1; 2 ]);
  Alcotest.(check bool) "full column without cover" false
    (Qs.is_write_quorum_list qs [ 0; 3 ]);
  Alcotest.(check int) "min write size" 4 (Qs.min_write_size qs)

let test_weighted_votes () =
  (* Nodes 0..2 with votes 3, 1, 1 (total 5); read >= 2, write >= 4. *)
  let qs =
    Qs.weighted ~name:"w" ~members:[ (0, 3); (1, 1); (2, 1) ] ~read:2 ~write:4
  in
  Alcotest.(check bool) "heavy node alone reads" true (Qs.is_read_quorum_list qs [ 0 ]);
  Alcotest.(check bool) "one light node cannot read" false (Qs.is_read_quorum_list qs [ 1 ]);
  Alcotest.(check bool) "two light nodes read" true (Qs.is_read_quorum_list qs [ 1; 2 ]);
  Alcotest.(check bool) "heavy + light write" true (Qs.is_write_quorum_list qs [ 0; 1 ]);
  Alcotest.(check bool) "lights cannot write" false (Qs.is_write_quorum_list qs [ 1; 2 ]);
  Alcotest.(check int) "min read members" 1 (Qs.min_read_size qs);
  Alcotest.(check int) "min write members" 2 (Qs.min_write_size qs);
  Alcotest.(check (option (pair int int))) "not counting-based" None
    (Qs.counting_thresholds qs)

let test_weighted_choose () =
  let qs =
    Qs.weighted ~name:"w" ~members:[ (0, 3); (1, 1); (2, 1) ] ~read:2 ~write:4
  in
  let rng = Dq_util.Rng.create 6L in
  for _ = 1 to 50 do
    Alcotest.(check bool) "read choice valid" true
      (Qs.is_read_quorum_list qs (Qs.choose_read qs rng));
    Alcotest.(check bool) "write choice valid" true
      (Qs.is_write_quorum_list qs (Qs.choose_write qs rng))
  done

let test_weighted_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-intersecting rejected" true
    (raises (fun () ->
         ignore (Qs.weighted ~name:"w" ~members:[ (0, 2); (1, 2) ] ~read:1 ~write:3)));
  Alcotest.(check bool) "disjoint writes rejected" true
    (raises (fun () ->
         ignore (Qs.weighted ~name:"w" ~members:[ (0, 2); (1, 2) ] ~read:3 ~write:2)));
  (match Qs.validate (Qs.weighted ~name:"w" ~members:[ (0, 3); (1, 1); (2, 1) ] ~read:2 ~write:4) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg)

let test_grid_shape_validation () =
  Alcotest.(check bool) "bad shape" true
    (try
       ignore (Qs.grid ~rows:2 ~cols:3 (members 5));
       false
     with Invalid_argument _ -> true)

let test_validate_constructions () =
  List.iter
    (fun qs ->
      match Qs.validate qs with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Qs.name qs ^ ": " ^ msg))
    [
      Qs.majority (members 3);
      Qs.majority (members 5);
      Qs.majority (members 9);
      Qs.rowa (members 4);
      Qs.threshold ~name:"t" ~members:(members 7) ~read:3 ~write:5;
      Qs.grid ~rows:2 ~cols:3 (members 6);
      Qs.grid ~rows:3 ~cols:3 (members 9);
      Qs.grid ~rows:2 ~cols:2 (members 4);
    ]

let test_counting_thresholds () =
  Alcotest.(check (option (pair int int))) "majority" (Some (3, 3))
    (Qs.counting_thresholds (Qs.majority (members 5)));
  Alcotest.(check (option (pair int int))) "grid" None
    (Qs.counting_thresholds (Qs.grid ~rows:2 ~cols:2 (members 4)))

(* Random subsets: read quorums always intersect write quorums. *)
let prop_read_write_intersection =
  QCheck.Test.make ~name:"read and write quorums intersect" ~count:500
    QCheck.(triple (int_range 1 10) (int_range 0 1023) (int_range 0 1023))
    (fun (n, mask_a, mask_b) ->
      let qs = Qs.majority (members n) in
      let of_mask mask = List.filter (fun i -> mask land (1 lsl i) <> 0) (members n) in
      let a = of_mask mask_a and b = of_mask mask_b in
      if Qs.is_read_quorum_list qs a && Qs.is_write_quorum_list qs b then
        List.exists (fun x -> List.mem x b) a
      else true)

let prop_grid_quorums_intersect =
  QCheck.Test.make ~name:"grid write quorums pairwise intersect" ~count:300
    QCheck.(pair (int_range 0 4095) (int_range 0 4095))
    (fun (mask_a, mask_b) ->
      let qs = Qs.grid ~rows:3 ~cols:4 (members 12) in
      let of_mask mask = List.filter (fun i -> mask land (1 lsl i) <> 0) (members 12) in
      let a = of_mask mask_a and b = of_mask mask_b in
      if Qs.is_write_quorum_list qs a && Qs.is_write_quorum_list qs b then
        List.exists (fun x -> List.mem x b) a
      else true)

let () =
  Alcotest.run "quorum"
    [
      ( "threshold",
        [
          Alcotest.test_case "majority sizes" `Quick test_majority_sizes;
          Alcotest.test_case "rowa sizes" `Quick test_rowa_sizes;
          Alcotest.test_case "predicates" `Quick test_threshold_predicates;
          Alcotest.test_case "validation" `Quick test_threshold_validation;
          Alcotest.test_case "nonconsecutive ids" `Quick test_nonconsecutive_member_ids;
          Alcotest.test_case "index over nonconsecutive ids" `Quick test_index_nonconsecutive;
          Alcotest.test_case "counting thresholds" `Quick test_counting_thresholds;
        ] );
      ( "choice",
        [
          Alcotest.test_case "choose read" `Quick test_choose_read_is_quorum;
          Alcotest.test_case "choose write" `Quick test_choose_write_is_quorum;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "votes" `Quick test_weighted_votes;
          Alcotest.test_case "choose" `Quick test_weighted_choose;
          Alcotest.test_case "validation" `Quick test_weighted_validation;
        ] );
      ( "grid",
        [
          Alcotest.test_case "read quorum" `Quick test_grid_read_quorum;
          Alcotest.test_case "write quorum" `Quick test_grid_write_quorum;
          Alcotest.test_case "shape validation" `Quick test_grid_shape_validation;
        ] );
      ("validate", [ Alcotest.test_case "constructions" `Quick test_validate_constructions ]);
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_read_write_intersection; prop_grid_quorums_intersect ] );
    ]
