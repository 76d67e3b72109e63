(** An input-quorum-system (IQS) server node.

    IQS nodes accept writes, grant object and volume leases to OQS
    nodes, and guarantee — before acknowledging a write — that no OQS
    write quorum can still read the overwritten version. Three ways a
    peer OQS node [j] is ruled out (paper, Section 3.2, client write):

    - {b suppress}: this node knows [j] holds no valid callback
      ([lastAckLC > lastReadLC], strictly — the equality case is
      conservatively treated as "possibly valid");
    - {b invalidate}: an object invalidation is sent to [j] and its
      acknowledgment awaited;
    - {b delay}: [j]'s volume lease has expired, so an invalidation is
      queued in [delayed] for delivery with [j]'s next lease renewal.

    Object state ([lastWriteLC], values, callback bookkeeping) is
    durable: it survives a {e fail-stop} crash. Retransmission loops are
    volatile and are rebuilt by client retransmissions after recovery.

    An {e amnesia} crash wipes the durable state too. On recovery the
    node enters [Syncing]: it refuses to vote in any quorum (all
    messages but its own state transfer are dropped) while it rebuilds
    its objects from a read quorum of IQS peers, one volume chunk at a
    time ([Sync_req]/[Sync_resp]), resumably — a fail-stop crash
    mid-sync continues at the saved cursor. Even once the transfer
    completes it stays quarantined until every lease it could have
    granted before the wipe has expired at its holder, and the first
    post-wipe volume grant to each holder bumps the epoch strictly above
    the holder's cached one, invalidating all pre-wipe object leases.

    Per-OQS-peer state (acknowledged invalidations, object-lease
    grants, volume leases) lives in arrays indexed by the peer's slot
    in the OQS ({!Dq_quorum.Quorum_system.index}). This relies on an
    invariant of {!Cluster}: OQS servers run only on OQS members, so
    every renewal request and acknowledgment comes from a member.
    Handling such a message from a non-member, or asking an
    introspection function about one, raises [Invalid_argument] naming
    the node. *)

open Dq_storage

type t

val create :
  net:Message.t Dq_net.Net.t -> clock:Dq_sim.Clock.t -> config:Config.t -> me:int -> t

val handle : t -> src:int -> Message.t -> unit
(** Process one protocol message. Messages that are not addressed to an
    IQS role are ignored (the node dispatcher may host several roles). *)

val on_recover : t -> wiped:bool -> unit
(** Discard volatile runtime state (in-flight write loops) after a
    crash. With [wiped:false] durable object state is retained (and an
    interrupted state transfer resumes); with [wiped:true] the durable
    state is discarded too and the node enters [Syncing]. *)

(** {2 Introspection (tests, examples, experiment assertions)} *)

val logical_clock : t -> Lc.t

val stored : t -> Key.t -> Versioned.t

val last_read_lc : t -> Key.t -> Lc.t

val last_ack_lc : t -> Key.t -> oqs:int -> Lc.t

val lease_expires : t -> volume:int -> oqs:int -> float
(** In this node's local clock; [neg_infinity] if never granted. *)

val epoch : t -> volume:int -> oqs:int -> int

val delayed_count : t -> volume:int -> oqs:int -> int

val local_time : t -> float
(** This node's local clock reading (for cross-node invariant checks). *)

val lease_valid_for : t -> volume:int -> oqs:int -> bool
(** Does this node consider [oqs]'s volume lease currently valid? *)

val callback_possible : t -> Dq_storage.Key.t -> oqs:int -> bool
(** Could this node believe [oqs] holds a valid object callback? The
    safety invariant requires this whenever [oqs] actually holds one. *)

val active_write_loops : t -> int

val is_syncing : t -> bool
(** The node is catching up after an amnesia crash (or still inside the
    post-sync lease quarantine) and refuses to vote in any quorum. *)

val was_wiped : t -> bool
(** The node has lost its durable state at least once in its history. *)

val sync_progress : t -> (int * int * int) option
(** [(cursor, bytes, objects)] of the in-progress state transfer. *)
