(* Calibration constants: each is pinned to a paper measurement (see
   config.mli for the anchors) and no workload varies it. *)
let loopback_oneway = 1_210
let wire_oneway = 1_650
let pcie_extra = 630
let pcie_bandwidth_bps = 64_000_000_000
let header_bytes = 60
let c_lookup = 280
let c_serialize = 2_200
let c_cap_transfer = 2_400
let c_revoke = 400
let snic_m_msg = 1.4
let snic_m_lookup = 5.0
let snic_m_serialize = 2.8
let snic_m_cap = 1.6
let wimpy_factor = 2.0
let copy_setup = 4_000
let memcpy_bw_bps = 80_000_000_000
let copy_open_timeout = Sim.Time.ms 5
let nvme_read_latency = Sim.Time.us 70
let nvme_write_latency = Sim.Time.us 12
let nvme_bandwidth_bps = 20_000_000_000
let gpu_launch = Sim.Time.us 10
let gpu_per_image = Sim.Time.us 25
let gpu_alloc = Sim.Time.us 5
let proc_syscall = 150
let service_work = 1_500
let kernel_io_path = Sim.Time.us 8
let rcuda_call_overhead = Sim.Time.us 15

type t = {
  net_bandwidth_bps : int;
  c_msg : Sim.Time.t;
  bounce_chunk : int;
  hw_copies : bool;
  double_buffering : bool;
  copy_window : int;
  copy_streams : int;
  nvme_queue_depth : int;
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
    net_bandwidth_bps = 10_000_000_000;
    c_msg = 290;
    bounce_chunk = 16 * 1024;
    hw_copies = false;
    double_buffering = true;
    copy_window = 1;
    copy_streams = 1;
    nvme_queue_depth = 8;
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

let fast_path =
  {
    default with
    c_msg = 190;
    c_doorbell = 100;
    ctrl_batch = 16;
    translation_cache = true;
    ctrl_queue_bound = 256;
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
   knobs; [bytes_time] divides by [bw_bps / 1_000_000]; a zero congestion window
   or NVMe queue depth is a zero-permit semaphore that deadlocks the
   first request; a non-positive timeout would expire before any peer
   reply could land. *)
let validate t =
  let pos name v =
    if v <= 0 then
      invalid_arg (Printf.sprintf "Net.Config: %s must be positive (got %d)" name v)
  in
  pos "bounce_chunk" t.bounce_chunk;
  pos "copy_window" t.copy_window;
  pos "copy_streams" t.copy_streams;
  if t.net_bandwidth_bps < 1_000_000 then
    invalid_arg
      (Printf.sprintf
         "Net.Config: net_bandwidth_bps must be at least 1_000_000 (got %d)"
         t.net_bandwidth_bps);
  pos "congestion_window" t.congestion_window;
  pos "nvme_queue_depth" t.nvme_queue_depth;
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
