(* Message-level unit tests of the IQS and OQS server state machines,
   mirroring the paper's pseudocode (Figures 4 and 5) case by case.
   Servers are driven directly through [handle]; outgoing messages are
   captured by sink handlers on the peer nodes. *)

module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Net = Dq_net.Net
module Clock = Dq_sim.Clock
module Config = Dq_core.Config
module M = Dq_core.Message
module Iqs = Dq_core.Iqs_server
module Oqs = Dq_core.Oqs_server
open Dq_storage

let key = Key.make ~volume:0 ~index:0

let lc c = Lc.make ~count:c ~node:9

(* Node 0 hosts the server under test; messages it sends to nodes 1 and
   2 are captured. *)
type world = {
  engine : Engine.t;
  net : M.t Net.t;
  config : Config.t;
  sent : (int * M.t) list ref; (* (destination, message), oldest first *)
}

let make_world () =
  let engine = Engine.create ~seed:3L () in
  let topology = Topology.make ~n_servers:3 ~n_clients:1 () in
  let servers = Topology.servers topology in
  let config = Config.dqvl ~servers ~volume_lease_ms:1_000. ~proactive_renew:false () in
  let net = Net.create engine topology ~classify:M.classify () in
  let sent = ref [] in
  List.iter
    (fun node -> Net.register net ~node (fun ~src:_ msg -> sent := (node, msg) :: !sent))
    [ 1; 2; 3 ];
  { engine; net; config; sent }

let flush w = Engine.run ~until:(Engine.now w.engine +. 10_000.) w.engine

let captured w = List.rev !(w.sent)

let make_iqs w = Iqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config:w.config ~me:0

let make_oqs w =
  Oqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config:w.config
    ~rng:(Engine.split_rng w.engine) ~me:0

(* --- IQS: processLCReadRequest / processWriteRequest ------------------- *)

let test_iqs_lc_read_returns_global_clock () =
  let w = make_world () in
  let iqs = make_iqs w in
  Iqs.handle iqs ~src:1 (M.Lc_read_req { op = 7 });
  flush w;
  match captured w with
  | [ (1, M.Lc_read_reply { op = 7; lc }) ] ->
    Alcotest.(check bool) "initial clock is zero" true (Lc.equal lc Lc.zero)
  | _ -> Alcotest.fail "expected one Lc_read_reply to node 1"

let test_iqs_write_applies_only_newer () =
  let w = make_world () in
  let iqs = make_iqs w in
  Iqs.handle iqs ~src:1 (M.Iqs_write_req { op = 1; key; value = "new"; lc = lc 5 });
  Alcotest.(check string) "applied" "new" (Iqs.stored iqs key).Versioned.value;
  (* An older write must not clobber the value... *)
  Iqs.handle iqs ~src:1 (M.Iqs_write_req { op = 2; key; value = "old"; lc = lc 3 });
  Alcotest.(check string) "not regressed" "new" (Iqs.stored iqs key).Versioned.value;
  (* ...but is still acknowledged (it is ordered before the newer one). *)
  flush w;
  let acks =
    List.filter (fun (_, m) -> match m with M.Iqs_write_ack _ -> true | _ -> false) (captured w)
  in
  Alcotest.(check int) "both writes acknowledged" 2 (List.length acks);
  Alcotest.(check bool) "global clock advanced" true (Lc.equal (Iqs.logical_clock iqs) (lc 5))

let test_iqs_obj_renewal_grants_and_tracks () =
  let w = make_world () in
  let iqs = make_iqs w in
  Iqs.handle iqs ~src:1 (M.Iqs_write_req { op = 1; key; value = "v"; lc = lc 2 });
  Iqs.handle iqs ~src:1 (M.Obj_renew_req { key; t0 = 0. });
  flush w;
  let grants =
    List.filter_map
      (fun (dst, m) -> match m with M.Obj_renew_reply { grant } -> Some (dst, grant) | _ -> None)
      (captured w)
  in
  (match grants with
  | [ (1, grant) ] ->
    Alcotest.(check string) "grant carries the value" "v" grant.M.g_value;
    Alcotest.(check bool) "grant carries lastWriteLC" true (Lc.equal grant.M.g_lc (lc 2))
  | _ -> Alcotest.fail "expected one grant to node 1");
  (* lastReadLC := lastWriteLC at grant time. *)
  Alcotest.(check bool) "lastReadLC bumped" true (Lc.equal (Iqs.last_read_lc iqs key) (lc 2))

let test_iqs_suppress_vs_through () =
  let w = make_world () in
  let iqs = make_iqs w in
  (* Node 1 acknowledges an invalidation newer than any grant: i now
     knows node 1 holds no valid callback, so a later write needs no
     invalidation to it (write suppress, case a). *)
  Iqs.handle iqs ~src:1 (M.Inval_ack { key; lc = lc 1 });
  Alcotest.(check bool) "ack recorded" true (Lc.equal (Iqs.last_ack_lc iqs key ~oqs:1) (lc 1));
  Iqs.handle iqs ~src:2 (M.Inval_ack { key; lc = lc 1 });
  Iqs.handle iqs ~src:0 (M.Inval_ack { key; lc = lc 1 });
  w.sent := [];
  Iqs.handle iqs ~src:3 (M.Iqs_write_req { op = 9; key; value = "w"; lc = lc 2 });
  flush w;
  let invals =
    List.filter (fun (_, m) -> match m with M.Inval _ -> true | _ -> false) (captured w)
  in
  Alcotest.(check int) "suppressed: no invalidations" 0 (List.length invals);
  let acked =
    List.exists
      (fun (dst, m) -> dst = 3 && match m with M.Iqs_write_ack { op = 9; _ } -> true | _ -> false)
      (captured w)
  in
  Alcotest.(check bool) "write acknowledged" true acked

let test_iqs_vol_renewal_carries_delayed_invals () =
  let w = make_world () in
  let iqs = make_iqs w in
  (* Grant node 1 a volume lease, let it expire, then write: the
     invalidation must be queued as delayed and delivered with node 1's
     next renewal. *)
  Iqs.handle iqs ~src:1 (M.Vol_renew_req { volume = 0; t0 = 0.; want = None; epoch = 0 });
  Iqs.handle iqs ~src:1 (M.Obj_renew_req { key; t0 = 0. });
  flush w;
  (* Advance past the 1 s lease. *)
  ignore (Engine.schedule w.engine ~delay:2_000. (fun () -> ()));
  Engine.run w.engine;
  w.sent := [];
  Iqs.handle iqs ~src:3 (M.Iqs_write_req { op = 1; key; value = "w"; lc = lc 4 });
  flush w;
  Alcotest.(check int) "one delayed invalidation queued" 1
    (Iqs.delayed_count iqs ~volume:0 ~oqs:1);
  let direct_invals_to_1 =
    List.filter (fun (dst, m) -> dst = 1 && match m with M.Inval _ -> true | _ -> false)
      (captured w)
  in
  Alcotest.(check int) "no direct invalidation to expired node" 0
    (List.length direct_invals_to_1);
  (* The renewal delivers it... *)
  w.sent := [];
  Iqs.handle iqs ~src:1 (M.Vol_renew_req { volume = 0; t0 = 2_000.; want = None; epoch = 0 });
  flush w;
  (match
     List.filter_map
       (fun (dst, m) ->
         match m with M.Vol_renew_reply { delayed; _ } when dst = 1 -> Some delayed | _ -> None)
       (captured w)
   with
  | [ [ (k, klc) ] ] ->
    Alcotest.(check bool) "delayed inval for the key" true (Key.equal k key);
    Alcotest.(check bool) "at the write's clock" true (Lc.equal klc (lc 4))
  | _ -> Alcotest.fail "expected one renewal reply with one delayed invalidation");
  (* ...and the acknowledgment clears the queue. *)
  Iqs.handle iqs ~src:1 (M.Vol_renew_ack { volume = 0; upto = lc 4 });
  Alcotest.(check int) "queue cleared" 0 (Iqs.delayed_count iqs ~volume:0 ~oqs:1)

let test_iqs_epoch_advances_on_overflow () =
  let w = make_world () in
  let config = { w.config with Config.max_delayed = 2 } in
  let iqs = Iqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config ~me:0 in
  Iqs.handle iqs ~src:1 (M.Vol_renew_req { volume = 0; t0 = 0.; want = None; epoch = 0 });
  (* Install callbacks on three objects. *)
  let keys = List.init 3 (fun i -> Key.make ~volume:0 ~index:i) in
  List.iter (fun k -> Iqs.handle iqs ~src:1 (M.Obj_renew_req { key = k; t0 = 0. })) keys;
  ignore (Engine.schedule w.engine ~delay:2_000. (fun () -> ()));
  Engine.run w.engine;
  List.iteri
    (fun i k ->
      Iqs.handle iqs ~src:3
        (M.Iqs_write_req { op = i; key = k; value = "w"; lc = lc (i + 1) }))
    keys;
  flush w;
  Alcotest.(check int) "epoch advanced" 1 (Iqs.epoch iqs ~volume:0 ~oqs:1);
  Alcotest.(check bool) "queue within bound" true
    (Iqs.delayed_count iqs ~volume:0 ~oqs:1 <= 2)

(* --- OQS: processInval / processRenewReply / processVLRenewReply -------- *)

let test_oqs_inval_is_monotone () =
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1 (M.Inval { key; lc = lc 5 });
  (* A stale invalidation must not regress the per-node clock. *)
  Oqs.handle oqs ~src:1 (M.Inval { key; lc = lc 3 });
  flush w;
  let acks =
    List.filter_map
      (fun (dst, m) -> match m with M.Inval_ack { lc; _ } when dst = 1 -> Some lc | _ -> None)
      (captured w)
  in
  Alcotest.(check int) "both invalidations acknowledged" 2 (List.length acks);
  Alcotest.(check bool) "object invalid" false (Oqs.object_valid_from oqs key ~iqs:1)

let test_oqs_stale_grant_does_not_validate () =
  (* The guard on line 42 of Figure 5: a renewal reply older than an
     already-received invalidation must not mark the object valid. *)
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1 (M.Inval { key; lc = lc 5 });
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 3; g_value = "stale";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Alcotest.(check bool) "still invalid" false (Oqs.object_valid_from oqs key ~iqs:1);
  (* A grant at (or beyond) the invalidation's clock validates. *)
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 5; g_value = "fresh";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Alcotest.(check bool) "validated by equal clock" true (Oqs.object_valid_from oqs key ~iqs:1);
  Alcotest.(check string) "value is the freshest" "fresh" (Oqs.cached oqs key).Versioned.value

let test_oqs_vol_reply_applies_delayed_and_acks () =
  let w = make_world () in
  let oqs = make_oqs w in
  (* Validate the object first. *)
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 1; g_value = "v1";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 0; t0 = 0.; delayed = [ (key, lc 4) ];
         grant = None });
  Alcotest.(check bool) "volume valid" true (Oqs.volume_valid_from oqs ~volume:0 ~iqs:1);
  Alcotest.(check bool) "delayed invalidation applied" false
    (Oqs.object_valid_from oqs key ~iqs:1);
  flush w;
  let acks =
    List.filter_map
      (fun (dst, m) ->
        match m with M.Vol_renew_ack { upto; _ } when dst = 1 -> Some upto | _ -> None)
      (captured w)
  in
  match acks with
  | [ upto ] -> Alcotest.(check bool) "acked up to the delayed clock" true (Lc.equal upto (lc 4))
  | _ -> Alcotest.fail "expected one volume renewal acknowledgment"

let test_oqs_epoch_mismatch_invalidates () =
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1
    (M.Obj_renew_reply
       { grant = { M.g_key = key; g_epoch = 0; g_lc = lc 1; g_value = "v";
                   g_lease_ms = infinity; g_t0 = 0. } });
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 0; t0 = 0.; delayed = []; grant = None });
  Alcotest.(check bool) "valid under epoch 0" true (Oqs.object_valid_from oqs key ~iqs:1);
  (* A renewal with a higher epoch retires every object lease at once. *)
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 1; t0 = 1.; delayed = []; grant = None });
  Alcotest.(check bool) "epoch mismatch invalidates" false
    (Oqs.object_valid_from oqs key ~iqs:1)

let test_oqs_expired_volume_blocks_validity () =
  let w = make_world () in
  let oqs = make_oqs w in
  Oqs.handle oqs ~src:1
    (M.Vol_renew_reply
       { volume = 0; lease_ms = 1_000.; epoch = 0; t0 = 0.; delayed = []; grant = None });
  Alcotest.(check bool) "valid now" true (Oqs.volume_valid_from oqs ~volume:0 ~iqs:1);
  ignore (Engine.schedule w.engine ~delay:2_000. (fun () -> ()));
  Engine.run w.engine;
  Alcotest.(check bool) "expired later" false (Oqs.volume_valid_from oqs ~volume:0 ~iqs:1)

(* --- Per-peer state over sparse member ids ------------------------------- *)

(* IQS {3, 5, 7} and OQS {2, 5, 6} over nine servers: member ids are
   neither zero-based nor contiguous, and node 5 sits at IQS slot 1 but
   OQS slot 1 of a different list, so state filed under the wrong peer
   or slot shows up as a wrong answer for a neighbour. *)
let make_sparse_world ?object_lease_ms () =
  let engine = Engine.create ~seed:3L () in
  let topology = Topology.make ~n_servers:9 ~n_clients:1 () in
  let config =
    {
      (Config.dqvl ~servers:(Topology.servers topology) ~volume_lease_ms:1_000.
         ~proactive_renew:false ?object_lease_ms ())
      with
      Config.iqs = Dq_quorum.Quorum_system.majority [ 3; 5; 7 ];
      oqs = Dq_quorum.Quorum_system.rowa [ 2; 5; 6 ];
    }
  in
  let net = Net.create engine topology ~classify:M.classify () in
  let sent = ref [] in
  List.iter
    (fun node -> Net.register net ~node (fun ~src:_ msg -> sent := (node, msg) :: !sent))
    (Topology.nodes topology);
  { engine; net; config; sent }

let client = 9

let raises_naming node f =
  match f () with
  | () -> Alcotest.failf "no Invalid_argument for non-member %d" node
  | exception Invalid_argument msg ->
    let needle = Printf.sprintf "node %d " node in
    let rec found i =
      i + String.length needle <= String.length msg
      && (String.sub msg i (String.length needle) = needle || found (i + 1))
    in
    Alcotest.(check bool) (Printf.sprintf "message names node %d: %s" node msg) true (found 0)

let test_iqs_sparse_peers () =
  let w = make_sparse_world () in
  let iqs = Iqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config:w.config ~me:5 in
  let lc_of name expected actual = Alcotest.(check bool) name true (Lc.equal expected actual) in
  (* A holder reporting a higher epoch than granted makes the grantor
     jump past it, for that holder only. *)
  Iqs.handle iqs ~src:6 (M.Vol_renew_req { volume = 0; t0 = 0.; want = None; epoch = 4 });
  Alcotest.(check int) "epoch of 6" 5 (Iqs.epoch iqs ~volume:0 ~oqs:6);
  Alcotest.(check int) "epoch of 2" 0 (Iqs.epoch iqs ~volume:0 ~oqs:2);
  Alcotest.(check int) "epoch of 5" 0 (Iqs.epoch iqs ~volume:0 ~oqs:5);
  Alcotest.(check bool) "lease of 6" true (Iqs.lease_valid_for iqs ~volume:0 ~oqs:6);
  Alcotest.(check bool) "no lease of 2" false (Iqs.lease_valid_for iqs ~volume:0 ~oqs:2);
  Iqs.handle iqs ~src:2 (M.Vol_renew_req { volume = 0; t0 = 0.; want = None; epoch = 0 });
  Iqs.handle iqs ~src:2 (M.Obj_renew_req { key; t0 = 0. });
  Iqs.handle iqs ~src:6 (M.Inval_ack { key; lc = lc 1 });
  lc_of "ack of 6" (lc 1) (Iqs.last_ack_lc iqs key ~oqs:6);
  lc_of "ack of 2" Lc.zero (Iqs.last_ack_lc iqs key ~oqs:2);
  Alcotest.(check bool) "6 ruled out by its ack" false (Iqs.callback_possible iqs key ~oqs:6);
  Alcotest.(check bool) "2 may hold a callback" true (Iqs.callback_possible iqs key ~oqs:2);
  (* Past every lease, a write queues delayed invalidations for the
     peers that may hold a callback (2, and 5 which never renewed) and
     none for 6, whose acknowledgment already settles it. *)
  ignore (Engine.schedule w.engine ~delay:2_000. (fun () -> ()));
  Engine.run w.engine;
  Iqs.handle iqs ~src:client (M.Iqs_write_req { op = 1; key; value = "w"; lc = lc 4 });
  flush w;
  Alcotest.(check int) "delayed for 2" 1 (Iqs.delayed_count iqs ~volume:0 ~oqs:2);
  Alcotest.(check int) "delayed for 5" 1 (Iqs.delayed_count iqs ~volume:0 ~oqs:5);
  Alcotest.(check int) "none for 6" 0 (Iqs.delayed_count iqs ~volume:0 ~oqs:6);
  (* 2's renewal carries its queue; the acknowledgment clears it and
     counts as 2's ack, leaving 5's queue alone. *)
  w.sent := [];
  Iqs.handle iqs ~src:2 (M.Vol_renew_req { volume = 0; t0 = 2_000.; want = None; epoch = 0 });
  flush w;
  let carried =
    List.filter_map
      (fun (dst, m) ->
        match m with
        | M.Vol_renew_reply { delayed; _ } -> Some (dst, List.length delayed)
        | _ -> None)
      (captured w)
  in
  Alcotest.(check (list (pair int int))) "renewal reply to 2 carries one" [ (2, 1) ] carried;
  Iqs.handle iqs ~src:2 (M.Vol_renew_ack { volume = 0; upto = lc 4 });
  Alcotest.(check int) "2's queue cleared" 0 (Iqs.delayed_count iqs ~volume:0 ~oqs:2);
  Alcotest.(check int) "5's queue kept" 1 (Iqs.delayed_count iqs ~volume:0 ~oqs:5);
  lc_of "2 acked the write" (lc 4) (Iqs.last_ack_lc iqs key ~oqs:2);
  lc_of "5 did not" Lc.zero (Iqs.last_ack_lc iqs key ~oqs:5);
  (* Node 3 is an IQS member but no OQS member: it never holds leases. *)
  raises_naming 3 (fun () -> Iqs.handle iqs ~src:3 (M.Inval_ack { key; lc = lc 1 }));
  raises_naming 3 (fun () -> ignore (Iqs.epoch iqs ~volume:0 ~oqs:3))

let test_iqs_sparse_object_grants () =
  let w = make_sparse_world ~object_lease_ms:500. () in
  let iqs = Iqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config:w.config ~me:5 in
  Iqs.handle iqs ~src:6 (M.Obj_renew_req { key; t0 = 0. });
  Alcotest.(check bool) "6 holds a granted lease" true (Iqs.callback_possible iqs key ~oqs:6);
  Alcotest.(check bool) "2 was never granted" false (Iqs.callback_possible iqs key ~oqs:2);
  Alcotest.(check bool) "5 was never granted" false (Iqs.callback_possible iqs key ~oqs:5);
  ignore (Engine.schedule w.engine ~delay:1_000. (fun () -> ()));
  Engine.run w.engine;
  Alcotest.(check bool) "6's lease lapsed" false (Iqs.callback_possible iqs key ~oqs:6)

let test_oqs_sparse_peers () =
  let w = make_sparse_world () in
  let oqs =
    Oqs.create ~net:w.net ~clock:(Clock.perfect w.engine) ~config:w.config
      ~rng:(Engine.split_rng w.engine) ~me:5
  in
  let grant ?(epoch = 0) c =
    { M.g_key = key; g_epoch = epoch; g_lc = lc c; g_value = "v"; g_lease_ms = infinity; g_t0 = 0. }
  in
  let vol_reply ?(epoch = 0) ?(delayed = []) ?grant src =
    Oqs.handle oqs ~src
      (M.Vol_renew_reply { volume = 0; lease_ms = 1_000.; epoch; t0 = 0.; delayed; grant })
  in
  Oqs.handle oqs ~src:7 (M.Obj_renew_reply { grant = grant 1 });
  Alcotest.(check bool) "object from 7" true (Oqs.object_valid_from oqs key ~iqs:7);
  Alcotest.(check bool) "not from 3" false (Oqs.object_valid_from oqs key ~iqs:3);
  Alcotest.(check bool) "not from 5" false (Oqs.object_valid_from oqs key ~iqs:5);
  (* A new epoch from 7 retires 7's object lease only. *)
  vol_reply ~epoch:2 7;
  Alcotest.(check int) "epoch from 7" 2 (Oqs.epoch_from oqs ~volume:0 ~iqs:7);
  Alcotest.(check int) "epoch from 3" 0 (Oqs.epoch_from oqs ~volume:0 ~iqs:3);
  Alcotest.(check bool) "volume from 7" true (Oqs.volume_valid_from oqs ~volume:0 ~iqs:7);
  Alcotest.(check bool) "no volume from 3" false (Oqs.volume_valid_from oqs ~volume:0 ~iqs:3);
  Alcotest.(check bool) "7's object retired" false (Oqs.object_valid_from oqs key ~iqs:7);
  Alcotest.(check bool) "C needs two members" false (Oqs.is_locally_valid oqs key);
  (* Leases from 3 and 5, a majority of {3, 5, 7}: condition C holds. *)
  vol_reply ~grant:(grant 1) 3;
  Alcotest.(check bool) "one member is not a quorum" false (Oqs.is_locally_valid oqs key);
  vol_reply ~grant:(grant 1) 5;
  Alcotest.(check bool) "C holds" true (Oqs.is_locally_valid oqs key);
  (* A delayed invalidation from 5 invalidates 5's copy only. *)
  flush w;
  w.sent := [];
  vol_reply ~delayed:[ (key, lc 4) ] 5;
  Alcotest.(check bool) "5's copy invalid" false (Oqs.object_valid_from oqs key ~iqs:5);
  Alcotest.(check bool) "3's copy valid" true (Oqs.object_valid_from oqs key ~iqs:3);
  Alcotest.(check bool) "C lost" false (Oqs.is_locally_valid oqs key);
  (* An invalidation from 3 is acknowledged to 3. *)
  Oqs.handle oqs ~src:3 (M.Inval { key; lc = lc 6 });
  flush w;
  let acks =
    List.filter_map
      (fun (dst, m) ->
        match m with
        | M.Vol_renew_ack _ -> Some (dst, "vol_renew_ack")
        | M.Inval_ack _ -> Some (dst, "inval_ack")
        | _ -> None)
      (captured w)
  in
  Alcotest.(check (list (pair int string)))
    "acks go to their senders"
    [ (5, "vol_renew_ack"); (3, "inval_ack") ]
    acks;
  Alcotest.(check bool) "3's copy invalid" false (Oqs.object_valid_from oqs key ~iqs:3);
  (* Node 2 is an OQS member but no IQS member: it grants nothing. *)
  raises_naming 2 (fun () -> Oqs.handle oqs ~src:2 (M.Inval { key; lc = lc 9 }));
  raises_naming 6 (fun () -> ignore (Oqs.epoch_from oqs ~volume:0 ~iqs:6))

let () =
  Alcotest.run "server_units"
    [
      ( "iqs (figure 4)",
        [
          Alcotest.test_case "lc read" `Quick test_iqs_lc_read_returns_global_clock;
          Alcotest.test_case "write ordering" `Quick test_iqs_write_applies_only_newer;
          Alcotest.test_case "object renewal" `Quick test_iqs_obj_renewal_grants_and_tracks;
          Alcotest.test_case "suppress vs through" `Quick test_iqs_suppress_vs_through;
          Alcotest.test_case "delayed invalidations" `Quick
            test_iqs_vol_renewal_carries_delayed_invals;
          Alcotest.test_case "epoch overflow" `Quick test_iqs_epoch_advances_on_overflow;
        ] );
      ( "oqs (figure 5)",
        [
          Alcotest.test_case "inval monotone" `Quick test_oqs_inval_is_monotone;
          Alcotest.test_case "stale grant guard" `Quick test_oqs_stale_grant_does_not_validate;
          Alcotest.test_case "volume reply" `Quick test_oqs_vol_reply_applies_delayed_and_acks;
          Alcotest.test_case "epoch mismatch" `Quick test_oqs_epoch_mismatch_invalidates;
          Alcotest.test_case "volume expiry" `Quick test_oqs_expired_volume_blocks_validity;
        ] );
      ( "sparse member ids",
        [
          Alcotest.test_case "iqs acks, epochs, delayed" `Quick test_iqs_sparse_peers;
          Alcotest.test_case "iqs object grants" `Quick test_iqs_sparse_object_grants;
          Alcotest.test_case "oqs leases and condition C" `Quick test_oqs_sparse_peers;
        ] );
    ]
