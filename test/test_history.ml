(* The operation log behind every consistency check: dense ids, id
   order across capacity growth, and the completed / gave-up
   accounting. *)

module H = Dq_harness.History
module Key = Dq_storage.Key
module Lc = Dq_storage.Lc

let key = Key.make ~volume:0 ~index:0

let begin_write h ~now =
  H.begin_op h ~client:1 ~key ~kind:H.Write ~value:(Printf.sprintf "v%g" now) ~now

let begin_read h ~now = H.begin_op h ~client:2 ~key ~kind:H.Read ~value:"" ~now

let lc = Lc.make ~count:1 ~node:0

let test_dense_ids () =
  let h = H.create () in
  let ids = List.init 5 (fun i -> begin_read h ~now:(float_of_int i)) in
  Alcotest.(check (list int)) "0 .. 4" [ 0; 1; 2; 3; 4 ] ids;
  Alcotest.(check int) "size" 5 (H.size h)

let test_id_order_across_growth () =
  let h = H.create () in
  let n = 2_500 in
  for i = 0 to n - 1 do
    ignore (begin_write h ~now:(float_of_int i))
  done;
  (* Complete every third op, out of id order, to touch old slots. *)
  for i = n - 1 downto 0 do
    if i mod 3 = 0 then H.complete_op h ~id:i ~value:"" ~lc ~now:(float_of_int (i + n))
  done;
  let ops = H.ops h in
  Alcotest.(check int) "all ops" n (List.length ops);
  List.iteri
    (fun i (op : H.op) ->
      Alcotest.(check int) "id order" i op.id;
      Alcotest.(check (float 0.)) "invoked kept" (float_of_int i) op.invoked;
      Alcotest.(check string) "write value kept" (Printf.sprintf "v%d" i) op.value;
      Alcotest.(check bool) "completion kept" (i mod 3 = 0) (Option.is_some op.responded))
    ops;
  Alcotest.(check int) "completed" ((n + 2) / 3) (H.completed_count h)

let test_complete_after_give_up () =
  let h = H.create () in
  let id = begin_read h ~now:1. in
  H.give_up_op h ~id ~now:2.;
  H.complete_op h ~id ~value:"x" ~lc ~now:3.;
  H.complete_op h ~id ~value:"y" ~lc ~now:4.;
  Alcotest.(check int) "completed once" 1 (H.completed_count h);
  Alcotest.(check int) "gave up once" 1 (H.gave_up_count h);
  match H.ops h with
  | [ op ] ->
    Alcotest.(check (option (float 0.))) "responded" (Some 4.) op.responded;
    Alcotest.(check string) "read value" "y" op.value
  | _ -> Alcotest.fail "one op"

let test_give_up_after_complete () =
  let h = H.create () in
  let id = begin_read h ~now:1. in
  H.complete_op h ~id ~value:"x" ~lc ~now:2.;
  let before = H.ops h in
  H.give_up_op h ~id ~now:3.;
  Alcotest.(check int) "no give-up counted" 0 (H.gave_up_count h);
  Alcotest.(check bool) "op unchanged" true (List.for_all2 ( == ) before (H.ops h))

let test_counts () =
  let h = H.create () in
  let ids = Array.init 40 (fun i -> begin_write h ~now:(float_of_int i)) in
  Array.iteri
    (fun i id ->
      if i mod 4 = 0 then H.complete_op h ~id ~value:"" ~lc ~now:100.
      else if i mod 4 = 1 then begin
        H.give_up_op h ~id ~now:100.;
        H.give_up_op h ~id ~now:101.
      end)
    ids;
  Alcotest.(check int) "completed" 10 (H.completed_count h);
  Alcotest.(check int) "gave up" 10 (H.gave_up_count h);
  Alcotest.(check int) "size" 40 (H.size h)

let test_unknown_ids () =
  let h = H.create () in
  for i = 0 to 2 do
    ignore (begin_read h ~now:(float_of_int i))
  done;
  List.iter
    (fun id ->
      Alcotest.check_raises "complete_op"
        (Invalid_argument "History.complete_op: unknown operation id") (fun () ->
          H.complete_op h ~id ~value:"" ~lc ~now:9.);
      Alcotest.check_raises "give_up_op"
        (Invalid_argument "History.give_up_op: unknown operation id") (fun () ->
          H.give_up_op h ~id ~now:9.))
    [ -1; H.size h ]

let () =
  Alcotest.run "history"
    [
      ( "unit",
        [
          Alcotest.test_case "dense ids" `Quick test_dense_ids;
          Alcotest.test_case "id order across growth" `Quick test_id_order_across_growth;
          Alcotest.test_case "complete after give-up" `Quick test_complete_after_give_up;
          Alcotest.test_case "give-up after complete" `Quick test_give_up_after_complete;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "unknown ids" `Quick test_unknown_ids;
        ] );
    ]
