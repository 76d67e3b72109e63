(** A monomorphic binary min-heap keyed by [(time : float, seq : int)] —
    the event queue of the simulation engine, specialised for its hot
    loop.

    Rather than ordering elements with a user-supplied closure (an
    indirect call and, in practice, polymorphic [compare] on every sift
    step), this heap stores its keys in two flat arrays — an
    unboxed [float array] of times and an [int array] of sequence
    numbers — and compares them with primitive float/int comparisons.
    Payloads ride along in a third array and are never inspected.

    Ordering is by ascending time, ties broken by ascending sequence
    number, which is exactly the engine's deterministic event order. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] makes an empty heap. [dummy] fills unused payload
    slots (so popped payloads are not retained); it is never returned. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val peek : 'a t -> 'a option
(** Payload of the smallest key without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the payload of the smallest key. *)

(** {2 Allocation-free access}

    The engine's loop runs these once per event, so none of them
    allocates an option. *)

val min_time : 'a t -> float
(** Time of the smallest key; [infinity] when the heap is empty. *)

val top : 'a t -> 'a
(** Payload of the smallest key. Raises [Invalid_argument] on an empty heap. *)

val drop_top : 'a t -> unit
(** Remove the smallest key. Raises [Invalid_argument] on an empty heap. *)
