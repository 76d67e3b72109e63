(** Logical clocks (write timestamps).

    The paper orders writes by logical clock values obtained from IQS
    servers. To make the order total when two clients concurrently pick
    the same counter value, a timestamp pairs the counter with the id of
    the node that issued the write, compared lexicographically — the
    standard Lamport construction. [zero] is smaller than any timestamp
    a client can produce and denotes "no write yet". *)

type t = { count : int; node : int }

val zero : t

val make : count:int -> node:int -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val max : t -> t -> t

val succ : t -> node:int -> t
(** [succ t ~node] is the smallest timestamp issued by [node] that is
    greater than [t]: counter [t.count + 1], tagged with [node]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** The {!pp} rendering, without going through [Format]. *)
