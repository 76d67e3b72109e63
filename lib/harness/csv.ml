let escape cell =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell
  in
  if not needs_quoting then cell
  else begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_string ~header rows =
  let line cells = String.concat "," (List.map escape cells) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let series ~x_label ~x_of points =
  let labels = match points with [] -> [] | (_, first) :: _ -> List.map fst first in
  let rows =
    List.map
      (fun (x, values) ->
        x_of x
        :: List.map
             (fun label ->
               match
                 List.find_map
                   (fun (l, v) -> if String.equal l label then Some v else None)
                   values
               with
               | Some v -> Printf.sprintf "%.17g" v
               | None -> "")
             labels)
      points
  in
  to_string ~header:(x_label :: labels) rows

let write ~dir ~name contents =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  (try output_string oc contents
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  path
