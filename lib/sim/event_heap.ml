type 'a t = {
  mutable times : float array; (* unboxed float keys *)
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int; (* slots 0 .. len-1 form a heap *)
  dummy : 'a;
}

let create ~dummy = { times = [||]; seqs = [||]; data = [||]; len = 0; dummy }

let size t = t.len

let is_empty t = t.len = 0

(* Both operands are statically floats/ints, so these compile to primitive
   (monomorphic) comparisons — no closure, no polymorphic compare. *)
let less t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let x = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- x

let ensure_capacity t =
  if t.len = Array.length t.data then begin
    let cap = Stdlib.max 16 (2 * t.len) in
    let times = Array.make cap 0. in
    let seqs = Array.make cap 0 in
    let data = Array.make cap t.dummy in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    Array.blit t.data 0 data 0 t.len;
    t.times <- times;
    t.seqs <- seqs;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let push t ~time ~seq x =
  ensure_capacity t;
  let i = t.len in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.data.(i) <- x;
  t.len <- i + 1;
  sift_up t i

let peek t = if t.len = 0 then None else Some t.data.(0)

let rec sift_down t i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = if l < t.len && less t l i then l else i in
  let smallest = if r < t.len && less t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let min_time t = if t.len = 0 then Float.infinity else t.times.(0)

let top t =
  if t.len = 0 then invalid_arg "Event_heap.top: empty heap";
  t.data.(0)

let drop_top t =
  if t.len = 0 then invalid_arg "Event_heap.drop_top: empty heap";
  let last = t.len - 1 in
  t.len <- last;
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.data.(0) <- t.data.(last);
  t.data.(last) <- t.dummy;
  if last > 0 then sift_down t 0

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    drop_top t;
    Some top
  end
