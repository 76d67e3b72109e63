(* Histogram rendering and CSV export. *)

module Histogram = Dq_util.Histogram
module Csv = Dq_harness.Csv

let test_histogram_bucketing () =
  let h = Histogram.of_samples ~buckets:[ 10.; 100. ] [ 1.; 5.; 10.; 50.; 500. ] in
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (list (pair string int)))
    "buckets"
    [ ("< 10", 2); ("10 - 100", 2); (">= 100", 1) ]
    (Histogram.bucket_counts h)

let test_histogram_boundaries () =
  (* A sample equal to a bound falls into the next bucket. *)
  let h = Histogram.of_samples ~buckets:[ 10. ] [ 10. ] in
  Alcotest.(check (list (pair string int))) "boundary" [ ("< 10", 0); (">= 10", 1) ]
    (Histogram.bucket_counts h)

let test_histogram_render () =
  let h = Histogram.of_samples ~buckets:[ 10. ] [ 1.; 2.; 3.; 20. ] in
  let out = Histogram.render ~width:9 h in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  Alcotest.(check bool) "bars present" true (String.contains out '#')

let test_histogram_empty () =
  let h = Histogram.create ~buckets:[ 1. ] in
  Alcotest.(check string) "placeholder" "(no samples)\n" (Histogram.render h)

let test_histogram_bad_buckets () =
  Alcotest.(check bool) "unsorted rejected" true
    (try
       ignore (Histogram.create ~buckets:[ 10.; 1. ]);
       false
     with Invalid_argument _ -> true)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_csv_to_string () =
  let out = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4,5" ] ] in
  Alcotest.(check string) "rendered" "x,y\n1,2\n3,\"4,5\"\n" out

let test_csv_write_series () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dq_csv_test" in
  let path =
    Csv.write ~dir ~name:"series"
      (Csv.series ~x_label:"w"
         ~x_of:(Printf.sprintf "%.2f")
         [ (0.1, [ ("a", 1.5); ("b", 2.5) ]); (0.2, [ ("a", 3.5); ("b", 4.5) ]) ])
  in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  match List.rev !lines with
  | [ header; row1; row2 ] ->
    Alcotest.(check string) "header" "w,a,b" header;
    Alcotest.(check bool) "row1" true (String.length row1 > 0 && row1.[0] = '0');
    Alcotest.(check bool) "row2 has x=0.20" true (String.sub row2 0 4 = "0.20")
  | _ -> Alcotest.fail "three lines expected"

let () =
  Alcotest.run "util_extras"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "boundaries" `Quick test_histogram_boundaries;
          Alcotest.test_case "render" `Quick test_histogram_render;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "to_string" `Quick test_csv_to_string;
          Alcotest.test_case "write series" `Quick test_csv_write_series;
        ] );
    ]
