(** A checker for Lamport regular register semantics over a recorded
    history (the consistency guarantee DQVL claims; Section 3.3).

    For every completed read [r] of key [k] the returned value must be
    - the value of the completed write of [k] with the highest logical
      clock among those that responded before [r] was invoked (or the
      initial value if there is none), or
    - the value of some write of [k] concurrent with [r] (its interval
      overlaps [r]'s; a write that never completed is concurrent with
      every later read).

    The checker is used two ways: asserting that the quorum protocols
    never violate regularity (even under crashes, loss, duplication and
    partitions), and {e measuring} how often ROWA-Async does. *)

type violation = {
  read : History.op;
  returned_write : History.op option;  (** the write whose value was read *)
  expected_lc : Dq_storage.Lc.t;  (** clock of the freshest completed write *)
  reason : string;
}

type report = {
  reads : int;
  checked : int;  (** completed reads *)
  violations : violation list;
}

val check : History.op list -> report
(** O(n log n) for [n] operations: each key's completed writes are
    sorted once by response time, and each completed read is one binary
    search over them. Violations are listed in history order. *)

val is_regular : History.op list -> bool

val pp_report : Format.formatter -> report -> unit

(** {2 Atomicity (paper future work, Section 6)} *)

type inversion = {
  first_read : History.op;
  second_read : History.op;  (** follows [first_read] in real time *)
  first_lc : Dq_storage.Lc.t;
  second_lc : Dq_storage.Lc.t;  (** older than [first_lc]: a new-old inversion *)
}

val new_old_inversions : History.op list -> inversion list
(** Pairs of non-overlapping completed reads of the same key where the
    later read returned an older write — permitted by regular
    semantics (when concurrent with writes) but forbidden by atomic
    (linearizable) semantics. Sorted by the two reads' ids.
    O(n log n + k) for [k] reported inversions: one sweep per key in
    invocation order over the reads that have already responded. *)

val is_atomic : History.op list -> bool
(** Regular and free of new-old inversions. For histories whose writes
    carry unique values and totally ordered logical clocks (all
    histories produced by this harness), this is the standard
    atomicity condition for read/write registers. *)

(** {2 Session guarantees (Bayou; the paper's reference [26])} *)

type session_report = {
  ryw_violations : int;
      (** completed reads that missed one of the client's own earlier
          completed writes (read-your-writes) *)
  monotonic_violations : int;
      (** completed reads older than one of the client's own earlier
          completed reads (monotonic reads) *)
}

val check_sessions : History.op list -> session_report
(** Per-client, per-key session-guarantee check. Protocols with regular
    semantics always pass; plain ROWA-Async fails when a client moves
    between replicas; session-guaranteed ROWA-Async passes again. *)
