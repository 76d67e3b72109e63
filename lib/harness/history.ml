open Dq_storage

type kind = Read | Write

type op = {
  id : int;
  client : int;
  key : Key.t;
  kind : kind;
  value : string;
  lc : Lc.t option;
  invoked : float;
  responded : float option;
  gave_up : float option;
}

(* Ids are dense and issued in order, so op [i] lives in slot [i]: a
   lookup is an array read and [ops] needs no sort. [completed] and
   [gave_up] are maintained at the update points below so the hot-path
   counters are O(1) reads rather than folds. *)
type t = {
  mutable slots : op array; (* slots 0 .. next_id-1 hold ops 0 .. next_id-1 *)
  mutable next_id : int;
  mutable completed : int;
  mutable gave_up : int;
}

(* Small on purpose: many histories are built per experiment and most
   stay short; the array doubles as it fills. *)
let initial_capacity = 16

let create () = { slots = [||]; next_id = 0; completed = 0; gave_up = 0 }

let begin_op t ~client ~key ~kind ~value ~now =
  let id = t.next_id in
  let op = { id; client; key; kind; value; lc = None; invoked = now; responded = None; gave_up = None } in
  if id = Array.length t.slots then begin
    (* The new op fills the fresh slots; each is overwritten before it is read. *)
    let slots = Array.make (Stdlib.max initial_capacity (2 * id)) op in
    Array.blit t.slots 0 slots 0 id;
    t.slots <- slots
  end;
  t.slots.(id) <- op;
  t.next_id <- id + 1;
  id

let find t ~unknown id =
  if id < 0 || id >= t.next_id then invalid_arg unknown;
  t.slots.(id)

let complete_op t ~id ~value ~lc ~now =
  let op = find t ~unknown:"History.complete_op: unknown operation id" id in
  let value = match op.kind with Write -> op.value | Read -> value in
  if Option.is_none op.responded then t.completed <- t.completed + 1;
  t.slots.(id) <- { op with value; lc = Some lc; responded = Some now }

let give_up_op t ~id ~now =
  let op = find t ~unknown:"History.give_up_op: unknown operation id" id in
  if Option.is_none op.responded then begin
    if Option.is_none op.gave_up then t.gave_up <- t.gave_up + 1;
    t.slots.(id) <- { op with gave_up = Some now }
  end

let ops t =
  let rec from i acc = if i < 0 then acc else from (i - 1) (t.slots.(i) :: acc) in
  from (t.next_id - 1) []

let completed_count t = t.completed

let gave_up_count t = t.gave_up

let size t = t.next_id
