(** A hash table with an implicit default: looking up an absent key
    materializes (and remembers) a default entry. Protocol servers use
    this for their per-object and per-volume state, which conceptually
    exists for every object from the start. *)

type ('k, 'v) t

val get : ('k, 'v) t -> 'k -> 'v
(** Find, creating the default entry if absent. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Find without materializing. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit

val fold : ('k, 'v) t -> init:'a -> f:('k -> 'v -> 'a -> 'a) -> 'a

val clear : ('k, 'v) t -> unit

val length : ('k, 'v) t -> int

val of_key_default : default:(Key.t -> 'v) -> (Key.t, 'v) t
(** Convenience constructor for {!Key.t}-indexed maps. *)

val of_int_default : default:(int -> 'v) -> (int, 'v) t
(** Convenience constructor for [int]-indexed maps (volumes, nodes). *)
