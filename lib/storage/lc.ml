type t = { count : int; node : int }

let zero = { count = 0; node = -1 }

let make ~count ~node = { count; node }

let compare a b =
  let c = Int.compare a.count b.count in
  if c <> 0 then c else Int.compare a.node b.node

let equal a b = compare a b = 0

let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0

let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b

let succ t ~node = { count = t.count + 1; node }

let pp ppf t = Format.fprintf ppf "%d.%d" t.count t.node

let to_string t = Printf.sprintf "%d.%d" t.count t.node
