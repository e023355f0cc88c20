type t = {
  loopback_oneway : Sim.Time.t;
  wire_oneway : Sim.Time.t;
  pcie_extra : Sim.Time.t;
  net_bandwidth_bps : int;
  pcie_bandwidth_bps : int;
  header_bytes : int;
  c_msg : Sim.Time.t;
  c_lookup : Sim.Time.t;
  c_serialize : Sim.Time.t;
  c_cap_transfer : Sim.Time.t;
  c_revoke : Sim.Time.t;
  snic_m_msg : float;
  snic_m_lookup : float;
  snic_m_serialize : float;
  snic_m_cap : float;
  wimpy_factor : float;
  bounce_chunk : int;
  copy_setup : Sim.Time.t;
  memcpy_bw_bps : int;
  hw_copies : bool;
  double_buffering : bool;
  copy_window : int;
  copy_streams : int;
  copy_open_timeout : Sim.Time.t;
  nvme_read_latency : Sim.Time.t;
  nvme_write_latency : Sim.Time.t;
  nvme_bandwidth_bps : int;
  nvme_queue_depth : int;
  gpu_launch : Sim.Time.t;
  gpu_per_image : Sim.Time.t;
  gpu_alloc : Sim.Time.t;
  proc_syscall : Sim.Time.t;
  service_work : Sim.Time.t;
  kernel_io_path : Sim.Time.t;
  rcuda_call_overhead : Sim.Time.t;
  congestion_window : int;
  capspace_quota : int;
  track_delegations : bool;
  ctrl_batch : int;
  c_doorbell : Sim.Time.t;
  ctrl_queue_bound : int;
  translation_cache : bool;
  peer_ack_timeout : Sim.Time.t;
  (* Sharded capability spaces (Controller.connect_shards): inert until a
     shard group exists — a lone controller (or plain Controller.connect)
     behaves bit-identically to the pre-shard code. *)
  shard_placement : bool;
      (* scatter fresh Memory / derived-Request objects across the group
         by the deterministic shard map (root Requests stay pinned to
         their provider's controller: delivery locality; diminish and
         revtree children stay on their parent's controller: revocation
         trees use controller-local oids) *)
  (* What-if (causal-profiler) hooks: each factor virtually scales one
     component's service time — the Coz virtual-speedup idea made exact
     by the simulator. 1.0 is bit-identical to the calibrated model (the
     scaling sites skip the float round-trip entirely); Obs.Whatif
     re-runs a seeded scenario with one factor lowered and attributes
     the goodput/p99 delta to that component. *)
  scale_ctrl : float;  (* controller cost classes incl. doorbell *)
  scale_fabric : float;  (* link latency + wire/DMA serialization *)
  scale_device : float;  (* GPU engine + NVMe media/bus *)
  scale_client : float;  (* process syscall post + service compute *)
}

let default =
  {
    loopback_oneway = 1_210;
    wire_oneway = 1_650;
    pcie_extra = 630;
    net_bandwidth_bps = 10_000_000_000;
    pcie_bandwidth_bps = 64_000_000_000;
    header_bytes = 60;
    c_msg = 290;
    c_lookup = 280;
    c_serialize = 2_200;
    c_cap_transfer = 2_400;
    c_revoke = 400;
    snic_m_msg = 1.4;
    snic_m_lookup = 5.0;
    snic_m_serialize = 2.8;
    snic_m_cap = 1.6;
    wimpy_factor = 2.0;
    bounce_chunk = 16 * 1024;
    copy_setup = 4_000;
    memcpy_bw_bps = 80_000_000_000;
    hw_copies = false;
    double_buffering = true;
    copy_window = 1;
    copy_streams = 1;
    copy_open_timeout = Sim.Time.ms 5;
    nvme_read_latency = Sim.Time.us 70;
    nvme_write_latency = Sim.Time.us 12;
    nvme_bandwidth_bps = 20_000_000_000;
    nvme_queue_depth = 8;
    gpu_launch = Sim.Time.us 10;
    gpu_per_image = Sim.Time.us 25;
    gpu_alloc = Sim.Time.us 5;
    proc_syscall = 150;
    service_work = 1_500;
    kernel_io_path = Sim.Time.us 8;
    rcuda_call_overhead = Sim.Time.us 15;
    congestion_window = 64;
    capspace_quota = 4096;
    track_delegations = false;
    ctrl_batch = 1;
    c_doorbell = 0;
    ctrl_queue_bound = 0;
    translation_cache = false;
    peer_ack_timeout = Sim.Time.ms 2;
    shard_placement = false;
    scale_ctrl = 1.0;
    scale_fabric = 1.0;
    scale_device = 1.0;
    scale_client = 1.0;
  }

(* The what-if component namespace: the strings Obs.Whatif and the
   `fractos analyze --whatif` CLI rank by. *)
let components = [ "ctrl"; "fabric"; "device"; "client" ]

let scale_component t name f =
  match name with
  | "ctrl" -> Some { t with scale_ctrl = f }
  | "fabric" -> Some { t with scale_fabric = f }
  | "device" -> Some { t with scale_device = f }
  | "client" -> Some { t with scale_client = f }
  | _ -> None

(* Scale a duration by a what-if factor. The [s = 1.0] fast path is not
   an optimization but a correctness guarantee: no float round-trip, so
   an unscaled config reproduces the calibrated model bit for bit. *)
let scale_time s t =
  if s = 1.0 || t = 0 then t
  else max 0 (int_of_float (Float.round (float_of_int t *. s)))

(* Reject, at fabric construction, every value that would otherwise fail
   mid-simulation: the copy engine divides by the chunk/window/stream
   knobs ([chunk_sizes] would loop forever on a non-positive chunk);
   [bytes_time] divides by [bw_bps / 1_000_000]; a zero congestion window
   or NVMe queue depth is a zero-permit semaphore that deadlocks the
   first request; a non-positive timeout would expire before any peer
   reply could land. *)
let validate t =
  let pos name v =
    if v <= 0 then
      invalid_arg (Printf.sprintf "Net.Config: %s must be positive (got %d)" name v)
  in
  let bw name v =
    if v < 1_000_000 then
      invalid_arg
        (Printf.sprintf "Net.Config: %s must be at least 1_000_000 (got %d)"
           name v)
  in
  pos "bounce_chunk" t.bounce_chunk;
  pos "copy_window" t.copy_window;
  pos "copy_streams" t.copy_streams;
  bw "net_bandwidth_bps" t.net_bandwidth_bps;
  bw "pcie_bandwidth_bps" t.pcie_bandwidth_bps;
  bw "memcpy_bw_bps" t.memcpy_bw_bps;
  bw "nvme_bandwidth_bps" t.nvme_bandwidth_bps;
  pos "congestion_window" t.congestion_window;
  pos "nvme_queue_depth" t.nvme_queue_depth;
  pos "copy_open_timeout" t.copy_open_timeout;
  pos "peer_ack_timeout" t.peer_ack_timeout;
  let posf name v =
    if not (v > 0.) then
      invalid_arg
        (Printf.sprintf "Net.Config: %s must be positive (got %g)" name v)
  in
  posf "scale_ctrl" t.scale_ctrl;
  posf "scale_fabric" t.scale_fabric;
  posf "scale_device" t.scale_device;
  posf "scale_client" t.scale_client

let bytes_time ~bw_bps n =
  if n <= 0 then 0
  else
    let bits = n * 8 in
    (* ceil (bits * 1e9 / bw) without overflow for any realistic size *)
    let t = (bits * 1_000 + (bw_bps / 1_000_000) - 1) / (bw_bps / 1_000_000) in
    max t 1
