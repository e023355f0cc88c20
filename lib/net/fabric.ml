type fault = Pass | Drop | Duplicate | Delay of Sim.Time.t

type fault_hook =
  src:Node.t -> dst:Node.t -> cls:Stats.cls -> size:int -> fault

type t = {
  config : Config.t;
  stats : Stats.t;
  mutable next_id : int;
  mutable ctrl_ids : int; (* the last id [next_ctrl_id] gave; same below *)
  mutable pids : int;
  mutable copy_ids : int;
  mutable nodes : Node.t list; (* reverse creation order *)
  mutable fault_hook : fault_hook option;
  mutable dup_at : Sim.Time.t; (* [book]'s result beside the delivery *)
}

let create ?(config = Config.default) () =
  Config.validate config;
  {
    config;
    stats = Stats.create ();
    next_id = 0;
    ctrl_ids = 0;
    pids = 0;
    copy_ids = 0;
    nodes = [];
    fault_hook = None;
    dup_at = -1;
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

let next_ctrl_id t =
  t.ctrl_ids <- t.ctrl_ids + 1;
  t.ctrl_ids

let next_pid t =
  t.pids <- t.pids + 1;
  t.pids

let next_copy_id t =
  t.copy_ids <- t.copy_ids + 1;
  t.copy_ids

let base_latency t ~src ~dst =
  let cfg = t.config in
  Config.scale_time cfg.scale_fabric
    (if src.Node.id = dst.Node.id then Config.loopback_oneway
     else if Node.same_machine src dst then
       Config.loopback_oneway + Config.pcie_extra
     else Config.wire_oneway)

(* The one delivery model, shared by [send] and [transfer]: account the
   message, apply its fault, book the NIC or DMA engines and return the
   delivery instant, or -1 for a message lost in the switch. A duplicate's
   second copy arrives one base latency after the delivery instant;
   [book] leaves that instant in [dup_at] (-1 for no duplicate) for the
   caller to schedule. The instants are known here, so [book] closes the
   message's fabric.xfer span too: the caller schedules the same events
   whether tracing is on or off. *)
let book t ~src ~dst ~cls ~size =
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
  Obs.Metrics.incr_by src.Node.ins.Node.i_tx_bytes size;
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
  t.dup_at <- -1;
  let wire_bytes = size + Config.header_bytes in
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
        Obs.Span.finish_at sp tx_done
      end;
      -1
    | Pass | Duplicate | Delay _ ->
      let rx_done =
        Sim.Resource.reserve_at dst.Node.rx ~start:(tx_start + base)
          ~duration:ser
      in
      let at = rx_done + extra in
      if sp <> 0 then begin
        let rx_start = rx_done - ser in
        Obs.Span.set_attr sp "q"
          (string_of_int ((tx_start - now) + (rx_start - (tx_start + base))));
        Obs.Span.finish_at sp at
      end;
      (match fault with Duplicate -> t.dup_at <- at + base | _ -> ());
      at
  end
  else begin
    (* intra-machine: loopback QP / PCIe DMA, off the switch. Drop and
       Duplicate were downgraded above, so every local message is
       delivered — and its span finished — exactly once. *)
    let ser =
      Config.scale_time cfg.scale_fabric
        (Config.bytes_time ~bw_bps:Config.pcie_bandwidth_bps wire_bytes)
    in
    let dma_done = Sim.Resource.reserve src.Node.dma ~duration:ser in
    let dma_start = dma_done - ser in
    let at = dma_done + base + extra in
    if sp <> 0 then begin
      Obs.Span.set_attr sp "q" (string_of_int (dma_start - now));
      Obs.Span.finish_at sp at
    end;
    at
  end

(* A duplicate's second copy (fault injection) is one more delivery
   event; receivers deduplicate at the endpoint layer. *)
let send_with t ~src ~dst ?(cls = Stats.Control) ~size g x =
  let at = book t ~src ~dst ~cls ~size in
  if at >= 0 then begin
    let now = Sim.Engine.now () in
    Sim.Engine.schedule_with (at - now) g x;
    if t.dup_at >= 0 then Sim.Engine.schedule_with (t.dup_at - now) g x
  end

(* [send_with] with an int beside [x], for a message and its sequence
   number ([Endpoint.post]) *)
let send_with_n t ~src ~dst ?(cls = Stats.Control) ~size g x n =
  let at = book t ~src ~dst ~cls ~size in
  if at >= 0 then begin
    let now = Sim.Engine.now () in
    Sim.Engine.schedule_with_n (at - now) g x n;
    if t.dup_at >= 0 then Sim.Engine.schedule_with_n (t.dup_at - now) g x n
  end

let send t ~src ~dst ?cls ~size deliver =
  send_with t ~src ~dst ?cls ~size deliver ()

(* A timed wake on the delivery instant. Sleeping puts the wake-up in
   the heap slot [send]'s delivery event would take, and the one yield
   after it puts the resume in the slot that event's wake-up of an
   awaiting fiber would take, so a transfer orders against every other
   event exactly as a [send] whose callback fills an awaited ivar. A
   duplicate still pushes its (empty) event; a dropped message never
   wakes the caller. *)
let transfer t ~src ~dst ?(cls = Stats.Control) ~size () =
  let at = book t ~src ~dst ~cls ~size in
  if at < 0 then Sim.Engine.suspend ignore
  else begin
    let now = Sim.Engine.now () in
    if t.dup_at >= 0 then Sim.Engine.schedule (t.dup_at - now) ignore;
    Sim.Engine.sleep (at - now);
    Sim.Engine.yield ()
  end

(* [transfer] for code that runs as events: the delivery instant's event
   takes the heap slot of [transfer]'s wake-up, and the one it pushes in
   turn that of its yield, where [g x] then runs. That pair is one
   [Sim.Engine.relay_with], which allocates nothing. *)
let transfer_then t ~src ~dst ?(cls = Stats.Control) ~size g x =
  let at = book t ~src ~dst ~cls ~size in
  if at >= 0 then begin
    let now = Sim.Engine.now () in
    if t.dup_at >= 0 then Sim.Engine.schedule (t.dup_at - now) ignore;
    Sim.Engine.relay_with (at - now) g x
  end

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
  (* every chunk but the last is sent; the caller waits for the last *)
  let rec post off =
    let n = min chunk (size - off) in
    if off + n >= size then transfer t ~src ~dst ?cls ~size:n ()
    else begin
      send t ~src ~dst ?cls ~size:n ignore;
      post (off + n)
    end
  in
  post 0
