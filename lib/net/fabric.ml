type fault = Pass | Drop | Duplicate | Delay of Sim.Time.t

type fault_hook =
  src:Node.t -> dst:Node.t -> cls:Stats.cls -> size:int -> fault

type t = {
  config : Config.t;
  stats : Stats.t;
  mutable next_id : int;
  mutable nodes : Node.t list; (* reverse creation order *)
  mutable fault_hook : fault_hook option;
}

let create ?(config = Config.default) () =
  Config.validate config;
  {
    config;
    stats = Stats.create ();
    next_id = 0;
    nodes = [];
    fault_hook = None;
  }

let set_fault_hook t h = t.fault_hook <- h
let config t = t.config
let stats t = t.stats

let add_node t ?attached_to ~name kind =
  (match (kind, attached_to) with
  | Node.Smart_nic, None ->
    invalid_arg "Fabric.add_node: Smart_nic requires ~attached_to"
  | (Node.Host_cpu | Node.Wimpy_cpu), Some _ ->
    invalid_arg "Fabric.add_node: only Smart_nic can be attached"
  | _ -> ());
  let node = Node.make ~id:t.next_id ~name ~kind ~attached_to in
  t.next_id <- t.next_id + 1;
  t.nodes <- node :: t.nodes;
  node

let nodes t = List.rev t.nodes

let base_latency t ~src ~dst =
  let cfg = t.config in
  Config.scale_time cfg.scale_fabric
    (if src.Node.id = dst.Node.id then cfg.loopback_oneway
     else if Node.same_machine src dst then
       cfg.loopback_oneway + cfg.pcie_extra
     else cfg.wire_oneway)

let send t ~src ~dst ?(cls = Stats.Control) ~size deliver =
  let cfg = t.config in
  let fault =
    match t.fault_hook with None -> Pass | Some h -> h ~src ~dst ~cls ~size
  in
  let on_network = not (Node.same_machine src dst) in
  (* Lossy faults model the switch; the intra-machine path (loopback QP /
     PCIe DMA) is a reliable transport, so Drop and Duplicate are
     downgraded to Pass for local sends — a "dropped" local syscall would
     otherwise vanish inside a machine with no packet loss to blame, and
     its fabric.xfer span and fault counters would claim a switch drop
     that never happened. The hook has already drawn its randomness, so
     fault streams stay aligned whatever the topology. Delay still
     applies (DMA-engine stalls are real). *)
  let fault =
    match fault with
    | (Drop | Duplicate) when not on_network ->
      Obs.Metrics.incr src.Node.ins.Node.i_fault_local_ignored;
      Pass
    | f -> f
  in
  Stats.record t.stats ~src ~dst ~cls ~bytes:size ~on_network;
  Obs.Metrics.incr src.Node.ins.Node.i_tx_msgs;
  Obs.Metrics.incr ~by:size src.Node.ins.Node.i_tx_bytes;
  (match fault with
  | Pass -> ()
  | Drop -> Obs.Metrics.incr src.Node.ins.Node.i_fault_drops
  | Duplicate -> Obs.Metrics.incr src.Node.ins.Node.i_fault_dups
  | Delay _ -> Obs.Metrics.incr src.Node.ins.Node.i_fault_delays);
  (* journal the fault as seen on the wire (post-downgrade), attributed
     to the sending node so the flight recorder shows where loss hit *)
  (if fault <> Pass && Obs.Journal.enabled () then
     let kind =
       match fault with
       | Drop -> "net.drop"
       | Duplicate -> "net.dup"
       | Delay _ -> "net.delay"
       | Pass -> assert false
     in
     Obs.Journal.record_lazy ~node:src.Node.name ~sev:Obs.Journal.Warn ~kind
       ~detail:(fun () ->
         Printf.sprintf "dst=%s cls=%s size=%d%s" dst.Node.name
           (match cls with Stats.Control -> "control" | Stats.Data -> "data")
           size
           (match fault with
           | Delay d -> " delay=" ^ Sim.Time.to_string d
           | _ -> ""))
       ());
  (* One fabric.xfer span per message, from post to delivery, as a leaf
     under the sender's ambient context (it never becomes the parent of
     the receiver's spans — channels propagate the *sender's* ctx). Its
     ("q", ns) attribute is the NIC queueing share of the interval, which
     Obs.Analysis splits out as the queue category. *)
  let sp =
    if Obs.Span.enabled () then
      Obs.Span.start ~node:src.Node.name ~name:"fabric.xfer"
        ~attrs:
          [
            ("src", src.Node.name);
            ("dst", dst.Node.name);
            ("bytes", string_of_int size);
            ("cls", match cls with Stats.Control -> "ctrl" | Stats.Data -> "data");
            ("local", string_of_bool (not on_network));
          ]
        ()
    else 0
  in
  (* The duplicate copy (fault injection) re-runs the raw [deliver]
     without this span-finish wrapper, so the fabric.xfer span is finished
     exactly once; receivers deduplicate at the endpoint layer. *)
  let deliver_once =
    if sp = 0 then deliver
    else
      fun () ->
        Obs.Span.finish sp;
        deliver ()
  in
  let wire_bytes = size + cfg.header_bytes in
  let base = base_latency t ~src ~dst in
  let now = Sim.Engine.now () in
  let extra = match fault with Delay d when d > 0 -> d | _ -> 0 in
  if on_network then begin
    let ser =
      Config.scale_time cfg.scale_fabric
        (Config.bytes_time ~bw_bps:cfg.net_bandwidth_bps wire_bytes)
    in
    let tx_done = Sim.Resource.reserve src.Node.tx ~duration:ser in
    let tx_start = tx_done - ser in
    match fault with
    | Drop ->
      (* serialized out of the sender's NIC, then lost in the switch *)
      if sp <> 0 then begin
        Obs.Span.set_attr sp "fault" "drop";
        Sim.Engine.schedule (tx_done - now) (fun () -> Obs.Span.finish sp)
      end
    | Pass | Duplicate | Delay _ ->
      let rx_done =
        Sim.Resource.reserve_at dst.Node.rx ~start:(tx_start + base)
          ~duration:ser
      in
      if sp <> 0 then begin
        let rx_start = rx_done - ser in
        Obs.Span.set_attr sp "q"
          (string_of_int ((tx_start - now) + (rx_start - (tx_start + base))))
      end;
      Sim.Engine.schedule (rx_done + extra - now) deliver_once;
      (match fault with
      | Duplicate ->
        Sim.Engine.schedule (rx_done + extra + base - now) deliver
      | _ -> ())
  end
  else begin
    (* intra-machine: loopback QP / PCIe DMA, off the switch. Drop and
       Duplicate were downgraded above, so every local message is
       delivered — and its span finished — exactly once. *)
    let ser =
      Config.scale_time cfg.scale_fabric
        (Config.bytes_time ~bw_bps:cfg.pcie_bandwidth_bps wire_bytes)
    in
    let dma_done = Sim.Resource.reserve src.Node.dma ~duration:ser in
    let dma_start = dma_done - ser in
    if sp <> 0 then Obs.Span.set_attr sp "q" (string_of_int (dma_start - now));
    Sim.Engine.schedule (dma_done + base + extra - now) deliver_once
  end

let transfer t ~src ~dst ?cls ~size () =
  let done_ = Sim.Ivar.create () in
  (* try_fill: a duplicated message (fault injection) may deliver twice *)
  send t ~src ~dst ?cls ~size (fun () ->
      ignore (Sim.Ivar.try_fill done_ ()));
  Sim.Ivar.await done_

type utilization = {
  u_node : string;
  u_tx : float;
  u_rx : float;
  u_dma : float;
}

let utilization t ~elapsed =
  let frac busy =
    if elapsed <= 0 then 0.
    else float_of_int (Sim.Resource.busy_time busy) /. float_of_int elapsed
  in
  List.map
    (fun (n : Node.t) ->
      { u_node = n.name; u_tx = frac n.tx; u_rx = frac n.rx; u_dma = frac n.dma })
    (nodes t)

let pp_utilization fmt us =
  List.iter
    (fun u ->
      Format.fprintf fmt "%-12s tx %5.1f%%  rx %5.1f%%  dma %5.1f%%@." u.u_node
        (100. *. u.u_tx) (100. *. u.u_rx) (100. *. u.u_dma))
    us

let transfer_chunked t ~src ~dst ?cls ~size () =
  let chunk = t.config.bounce_chunk in
  if size <= chunk then transfer t ~src ~dst ?cls ~size ()
  else begin
    let done_ = Sim.Ivar.create () in
    let rec post off =
      let n = min chunk (size - off) in
      let last = off + n >= size in
      send t ~src ~dst ?cls ~size:n (fun () ->
          if last then ignore (Sim.Ivar.try_fill done_ ()));
      if not last then post (off + n)
    in
    post 0;
    Sim.Ivar.await done_
  end
