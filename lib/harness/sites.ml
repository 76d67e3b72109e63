(* Site-partitioned synthetic workload for the parallel (PDES) engine.

   [n_sites] edge sites, each one PDES partition holding one edge
   server and [clients_per_site] closed-loop clients. Every site owns
   a volume of [keys_per_site] keys homed on its server: clients write
   their own site's keys (single home server per key, so logical
   clocks are totally ordered per key and the history is regular by
   construction) and read either locally or — with probability
   [remote_ratio] — from another site's server across the WAN, which
   is what exercises the cross-partition mailboxes. Faults: per-send
   Bernoulli loss and seeded server crash windows; clients retry on a
   timeout and give up after [max_retries].

   Every piece of mutable state (server stores, client loop state,
   per-partition History and Metrics) is in flat preallocated arrays
   and owned by exactly one partition, so the run is deterministic
   under any domain interleaving; per-partition results are merged
   deterministically afterwards. The serial and pooled runs of the
   same config are bit-identical — the determinism test in
   test/test_pdes.ml holds this as an invariant. *)

open Dq_storage

type config = {
  n_sites : int;
  clients_per_site : int;
  keys_per_site : int;
  ops_per_client : int;
  remote_ratio : float; (* fraction of reads served by a remote site *)
  write_ratio : float;
  loss : float;
  batch_ms : float; (* intra-site delivery batching; 0 = exact *)
  crash_sites : int; (* servers given one seeded crash window *)
  seed : int64;
}

let default =
  {
    n_sites = 4;
    clients_per_site = 4;
    keys_per_site = 8;
    ops_per_client = 50;
    remote_ratio = 0.2;
    write_ratio = 0.3;
    loss = 0.;
    batch_ms = 0.;
    crash_sites = 0;
    seed = 1L;
  }

type result = {
  ops_completed : int;
  ops_gave_up : int;
  events : int; (* engine events executed, summed over partitions *)
  windows : int; (* PDES barrier windows *)
  msgs_sent : int;
  msgs_delivered : int;
  msgs_dropped : int;
  metrics_json : string; (* merged per-partition metrics *)
  history : History.op list; (* merged and renumbered *)
  checked_reads : int;
  violations : int;
}

type payload =
  | Req of { op : int; client : int; site : int; ix : int; write : bool; value : string }
  | Resp of { op : int; value : string; lc : Lc.t; write : bool }

(* Delays: paper topology numbers — 8 ms client <-> own-site server,
   80 ms across sites, 0.05 ms to self. Lookahead is then 80 ms. *)
let lan_ms = 8.
let wan_ms = 80.
let local_ms = 0.05
let timeout_ms = 250.
let think_ms = 1.
let max_retries = 2

let run ?pool cfg =
  if cfg.n_sites < 1 then invalid_arg "Sites.run: n_sites must be >= 1";
  let n_servers = cfg.n_sites in
  let n_clients = cfg.n_sites * cfg.clients_per_site in
  let site_of node = if node < n_servers then node else (node - n_servers) / cfg.clients_per_site in
  let remote_ratio = if cfg.n_sites > 1 then cfg.remote_ratio else 0. in
  let topo =
    Dq_net.Topology.custom ~n_servers ~n_clients
      ~delay:(fun ~src ~dst ->
        if src = dst then local_ms
        else if site_of src = site_of dst then lan_ms
        else wan_ms)
      ~closest:site_of
  in
  let lookahead =
    let la = Dq_net.Pnet.lookahead topo ~part_of:site_of in
    if la < Float.infinity then la else wan_ms
  in
  let pdes = Dq_sim.Pdes.create ~seed:cfg.seed ~lookahead cfg.n_sites in
  let dummy = Resp { op = -1; value = ""; lc = Lc.zero; write = false } in
  let net =
    Dq_net.Pnet.create pdes topo ~part_of:site_of ~dummy ~loss:cfg.loss
      ~batch_ms:cfg.batch_ms ()
  in
  (* Server stores: key (site, ix) lives at values/lcs.(site * keys + ix). *)
  let n_keys = n_servers * cfg.keys_per_site in
  let values = Array.make n_keys "" in
  let lcs = Array.make n_keys Lc.zero in
  (* Per-partition accounting, single-writer each. *)
  let histories = Array.init cfg.n_sites (fun _ -> History.create ()) in
  let metrics = Array.init cfg.n_sites (fun _ -> Dq_telemetry.Metrics.create ()) in
  (* Client loop state, indexed by client offset [0, n_clients). *)
  let setup_rng = Dq_util.Rng.create (Int64.add cfg.seed 0x9e3779b97f4a7c15L) in
  let client_rngs = Array.init n_clients (fun _ -> Dq_util.Rng.split setup_rng) in
  let remaining = Array.make n_clients cfg.ops_per_client in
  let pending = Array.make n_clients (-1) in (* partition-local history id *)
  let attempt = Array.make n_clients 0 in
  let vseq = Array.make n_clients 0 in
  let p_site = Array.make n_clients 0 in (* target site of the pending op *)
  let p_ix = Array.make n_clients 0 in
  let p_write = Array.make n_clients false in
  let p_value = Array.make n_clients "" in
  let p_invoked = Array.make n_clients 0. in
  let node_of c = n_servers + c in
  let client_engine c = Dq_net.Pnet.node_engine net (node_of c) in

  (* Server side: apply and reply. Runs on the server's partition. *)
  let on_server server ~src msg =
    match msg with
    | Req { op; client; site; ix; write; value } ->
      let slot = (site * cfg.keys_per_site) + ix in
      if write then begin
        lcs.(slot) <- Lc.succ lcs.(slot) ~node:server;
        values.(slot) <- value
      end;
      Dq_net.Pnet.send net ~src:server ~dst:src
        (Resp { op; value = values.(slot); lc = lcs.(slot); write });
      ignore client
    | Resp _ -> ()
  in

  (* Client side: closed loop with retries. All of these run on the
     client's partition. *)
  let send_req c =
    let site = p_site.(c) in
    let my_site = site_of (node_of c) in
    let m = metrics.(my_site) in
    Dq_telemetry.Metrics.record_msg m
      ~label:
        (if p_write.(c) then "write"
         else if site = my_site then "read_local"
         else "read_remote")
      ~local:(site = my_site)
      ~bytes:(16 + String.length p_value.(c))
      ();
    Dq_net.Pnet.send net ~src:(node_of c) ~dst:site
      (Req
         {
           op = pending.(c);
           client = node_of c;
           site;
           ix = p_ix.(c);
           write = p_write.(c);
           value = p_value.(c);
         })
  in
  let rec start_next c =
    if remaining.(c) > 0 then begin
      remaining.(c) <- remaining.(c) - 1;
      let rng = client_rngs.(c) in
      let my_site = site_of (node_of c) in
      let write = Dq_util.Rng.bernoulli rng cfg.write_ratio in
      let site =
        if write || not (Dq_util.Rng.bernoulli rng remote_ratio) then my_site
        else begin
          (* a uniformly random *other* site *)
          let s = Dq_util.Rng.int rng (cfg.n_sites - 1) in
          if s >= my_site then s + 1 else s
        end
      in
      let ix = Dq_util.Rng.int rng cfg.keys_per_site in
      let value =
        if write then begin
          vseq.(c) <- vseq.(c) + 1;
          Printf.sprintf "c%d:%d" c vseq.(c)
        end
        else ""
      in
      let eng = client_engine c in
      let now = Dq_sim.Engine.now eng in
      let id =
        History.begin_op histories.(my_site) ~client:(node_of c)
          ~key:(Key.make ~volume:site ~index:ix)
          ~kind:(if write then History.Write else History.Read)
          ~value ~now
      in
      pending.(c) <- id;
      attempt.(c) <- 0;
      p_site.(c) <- site;
      p_ix.(c) <- ix;
      p_write.(c) <- write;
      p_value.(c) <- value;
      p_invoked.(c) <- now;
      send_req c;
      arm_timeout c id 0
    end
  and arm_timeout c id att =
    Dq_net.Pnet.timer net ~node:(node_of c) ~delay_ms:timeout_ms (fun () ->
        if pending.(c) = id && attempt.(c) = att then begin
          if att >= max_retries then begin
            let my_site = site_of (node_of c) in
            let eng = client_engine c in
            History.give_up_op histories.(my_site) ~id ~now:(Dq_sim.Engine.now eng);
            pending.(c) <- -1;
            ignore (Dq_sim.Engine.schedule eng ~delay:think_ms (fun () -> start_next c))
          end
          else begin
            attempt.(c) <- att + 1;
            send_req c;
            arm_timeout c id (att + 1)
          end
        end)
  in
  let on_client c ~src msg =
    ignore src;
    match msg with
    | Resp { op; value; lc; write } ->
      if pending.(c) = op then begin
        pending.(c) <- -1;
        let my_site = site_of (node_of c) in
        let eng = client_engine c in
        let now = Dq_sim.Engine.now eng in
        History.complete_op histories.(my_site) ~id:op ~value ~lc ~now;
        Dq_telemetry.Metrics.record_latency metrics.(my_site)
          ~kind:(if write then "write" else "read")
          (now -. p_invoked.(c));
        ignore (Dq_sim.Engine.schedule eng ~delay:think_ms (fun () -> start_next c))
      end
    | Req _ -> ()
  in

  for s = 0 to n_servers - 1 do
    Dq_net.Pnet.register net ~node:s (on_server s)
  done;
  for c = 0 to n_clients - 1 do
    Dq_net.Pnet.register net ~node:(node_of c) (on_client c)
  done;

  (* Seeded crash windows: the first [crash_sites] servers each go down
     once. Drawn from the setup stream before the run, so the schedule
     is part of the workload, not of the execution. *)
  for s = 0 to Stdlib.min cfg.crash_sites n_servers - 1 do
    let t0 = 300. +. Dq_util.Rng.float setup_rng 500. in
    let dur = 400. +. Dq_util.Rng.float setup_rng 600. in
    Dq_net.Pnet.crash_at net ~node:s ~time:t0;
    Dq_net.Pnet.recover_at net ~node:s ~time:(t0 +. dur)
  done;

  (* Kick off every client at a deterministic stagger. *)
  for c = 0 to n_clients - 1 do
    let t0 = 1. +. (0.01 *. float_of_int c) in
    ignore (Dq_sim.Engine.schedule_at (client_engine c) ~time:t0 (fun () -> start_next c))
  done;

  Dq_sim.Pdes.run ?pool pdes;

  (* Deterministic merges: metrics commute; histories merge in
     (invocation time, partition, partition-local id) order and are
     renumbered. A partition issues ids as its clock advances, and that
     clock never goes backwards, so each partition's ops are already in
     (invoked, id) order (checked while collecting them). Concatenating
     the partitions in partition order and stable-sorting on [invoked]
     alone therefore yields exactly that order: ties keep partition
     order, then id order. *)
  let merged_metrics = Dq_telemetry.Metrics.create () in
  Array.iter (fun m -> Dq_telemetry.Metrics.merge_into ~src:m ~dst:merged_metrics) metrics;
  let in_invocation_order p h =
    let ops = Array.of_list (History.ops h) in
    for i = 1 to Array.length ops - 1 do
      if not (ops.(i).History.invoked >= ops.(i - 1).History.invoked) then
        invalid_arg
          (Printf.sprintf "Sites.run: partition %d invoked op %d before op %d" p ops.(i).History.id
             ops.(i - 1).History.id)
    done;
    ops
  in
  let merged = Array.concat (Array.to_list (Array.mapi in_invocation_order histories)) in
  Array.stable_sort
    (fun (a : History.op) (b : History.op) -> Float.compare a.invoked b.invoked)
    merged;
  let rec renumber i acc =
    if i < 0 then acc else renumber (i - 1) ({ (merged.(i)) with History.id = i } :: acc)
  in
  let history = renumber (Array.length merged - 1) [] in
  let report = Regular_checker.check history in
  {
    ops_completed = Array.fold_left (fun acc h -> acc + History.completed_count h) 0 histories;
    ops_gave_up = Array.fold_left (fun acc h -> acc + History.gave_up_count h) 0 histories;
    events = Dq_sim.Pdes.total_events pdes;
    windows = Dq_sim.Pdes.windows pdes;
    msgs_sent = Dq_net.Pnet.sent net;
    msgs_delivered = Dq_net.Pnet.delivered net;
    msgs_dropped = Dq_net.Pnet.dropped net;
    metrics_json = Dq_telemetry.Metrics.to_json merged_metrics;
    history;
    checked_reads = report.checked;
    violations = List.length report.violations;
  }
