(** Calibration constants for the simulated data-center fabric and devices.

    Every constant is annotated with the measurement from the FractOS paper
    (EuroSys'22, §6) that anchors it. We calibrate so that the {e shapes} of
    the paper's tables and figures reproduce — absolute values track the
    paper's 3-node 10 Gbps RoCEv2 testbed closely but are not the point.

    The controller compute-cost model follows the paper's own breakdown:
    distinct cost classes (fixed message handling, capability/object lookups,
    request (de)serialization, per-capability delegation work) that scale
    differently on SmartNIC cores. The paper observes that sNIC slowdowns are
    dominated by atomic-heavy lookups (">30% of the time is spent on atomic
    shared_ptr operations"), so the lookup class carries the largest sNIC
    multiplier. *)

type t = {
  (* -------- wire / fabric -------- *)
  loopback_oneway : Sim.Time.t;
      (** One-way latency through a NIC loopback queue pair on the same
          node. Anchor: ibv_rc_pingpong RTT 2.42 us (Table 3) => 1210 ns. *)
  wire_oneway : Sim.Time.t;
      (** One-way cross-node latency (NIC + switch + NIC). Anchor: 1-byte
          RDMA read takes 3.3 us round trip (§6.1) => 1650 ns. *)
  pcie_extra : Sim.Time.t;
      (** Extra one-way latency for crossing PCIe between a host CPU and its
          own SmartNIC. Anchor: raw ping-pong with server @ sNIC is 3.68 us
          vs 2.42 us @ CPU (Table 3) => (3.68-2.42)/2 = 630 ns. *)
  net_bandwidth_bps : int;
      (** Fabric line rate. Paper: 10 Gbps fabric and switch (Table 2). *)
  pcie_bandwidth_bps : int;
      (** Intra-machine DMA bandwidth (NIC loopback / PCIe): local RDMA
          between a Process and a co-located Controller moves data over
          PCIe, not the switch, at ~8 GB/s — which is how the prototype's
          bounce-buffer path still reaches line rate end to end (Fig. 5). *)
  header_bytes : int;
      (** Fixed per-message on-wire overhead (headers, CRC). RoCEv2 ~ 60 B. *)
  (* -------- controller compute-cost classes (host-CPU values) -------- *)
  c_msg : Sim.Time.t;
      (** Handling one queue message (poll, dispatch, post response slot).
          Anchor: FractOS null op @ CPU adds 0.58 us over raw ping-pong
          (Table 3); a null op handles request + response => 290 ns each. *)
  c_lookup : Sim.Time.t;
      (** One capability/object table lookup (refcounts, validation).
          Anchor: Request handling adds 1.41 us total @ CPU (Fig. 6), of
          which ~0.83 us beyond the two message handlings is ~3 lookups. *)
  c_serialize : Sim.Time.t;
      (** (De)serializing a Request for the wire, each direction. Anchor:
          cross-node Request invocation adds 4.41 us @ CPU (Fig. 6) => ~2.2
          us per direction. *)
  c_cap_transfer : Sim.Time.t;
      (** Per-capability delegation work during an invocation (validate,
          insert into receiver cap space). Anchor: one capability argument
          adds ~2.4 us @ CPU to an RPC (Fig. 7). *)
  c_revoke : Sim.Time.t;
      (** Invalidating one revocation-tree object at its owner. *)
  (* -------- SmartNIC multipliers per cost class -------- *)
  snic_m_msg : float;
      (** Anchor: null op @ sNIC adds 0.82 us vs 0.58 us @ CPU => 1.4x. *)
  snic_m_lookup : float;
      (** Anchor: Request handling 5.11 us @ sNIC vs 1.41 us @ CPU; the gap
          is lookup-dominated (atomics on wimpy ARM cores) => ~5x. *)
  snic_m_serialize : float;
      (** Anchor: 12.21 us vs 4.41 us (Fig. 6) => ~2.8x. *)
  snic_m_cap : float;  (** Anchor: 3.8 us vs 2.4 us (Fig. 7) => ~1.6x. *)
  wimpy_factor : float;
      (** Flat compute multiplier for wimpy device-adaptor CPUs (all cost
          classes). No paper anchor (adaptors ran on host CPUs); 2x is a
          conservative embedded-core estimate. *)
  (* -------- memory_copy path -------- *)
  bounce_chunk : int;
      (** Bounce-buffer chunk size; copies larger than this are split and
          double-buffered. Paper: double buffering for > 16 KiB (Fig. 5). *)
  copy_setup : Sim.Time.t;
      (** Software setup per memory_copy on the owning controller. Anchor:
          1-byte copy takes 12.7 us with CPU controllers (Fig. 5). *)
  memcpy_bw_bps : int;
      (** Local memory touch bandwidth for staging data in bounce buffers. *)
  hw_copies : bool;
      (** When true, model third-party RDMA in the NIC: memory_copy moves
          data directly between the endpoint buffers with no bounce-buffer
          staging (the paper's "HW copies" projection in Fig. 5). *)
  double_buffering : bool;
      (** Pipeline bounce-buffer chunks (read chunk i+1 while chunk i is in
          flight). The prototype enables this for copies > 16 KiB; turning
          it off is the ablation knob. Only meaningful on the serial engine
          (see [copy_window]/[copy_streams]). *)
  copy_window : int;
      (** Maximum chunks in flight per copy session (windowed pipelining
          with credit-based flow control: the destination grants one credit
          back per drained bounce-buffer slot, bounding its staging memory
          to [copy_window * bounce_chunk]). 1 (default) selects the serial
          engine — bit-for-bit the pre-windowing behavior. *)
  copy_streams : int;
      (** Parallel chunk streams per copy session (modeling multi-QP RDMA):
          chunks are assigned round-robin to this many source fibers, and
          the destination writer coalesces them by offset. Streams share
          the session's [copy_window] credit pool. 1 (default) = single
          stream; any value > 1 selects the pipelined engine. *)
  copy_open_timeout : Sim.Time.t;
      (** How long a destination controller keeps state for a copy session
          whose [P_copy_open] has not arrived (chunks parked out of order,
          or an open-time failure waiting for its final chunk) before
          reclaiming it. Lost opens (fault injection) would otherwise leak
          parked chunks forever; a reclaimed final chunk replies [Timeout].
          0 = keep forever (the pre-timeout behavior). *)
  (* -------- NVMe device model -------- *)
  nvme_read_latency : Sim.Time.t;
      (** 4 KiB random-read device latency. Anchor: "NVMe latency dominates
          (70 usec)" (§6.4). *)
  nvme_write_latency : Sim.Time.t;
      (** Device-level write latency with the on-device write cache hit. *)
  nvme_bandwidth_bps : int;
      (** Internal device bandwidth (Samsung 970evo Plus ~ 2.5 GB/s read —
          above line rate, so the network is the bottleneck, as in the
          paper). *)
  nvme_queue_depth : int;  (** Parallel in-flight device commands. *)
  (* -------- GPU device model -------- *)
  gpu_launch : Sim.Time.t;  (** Kernel launch overhead (driver + doorbell). *)
  gpu_per_image : Sim.Time.t;
      (** Face-verification kernel time per image (K80-class). *)
  gpu_alloc : Sim.Time.t;  (** Device memory de/allocation cost. *)
  gpu_dma_bw_bps : int;  (** On-device DMA engine bandwidth. *)
  (* -------- misc software costs -------- *)
  proc_syscall : Sim.Time.t;
      (** User-side cost of posting/polling one FractOS syscall. *)
  service_work : Sim.Time.t;
      (** Generic service-logic cost per handled request (FS metadata
          lookup, adaptor bookkeeping, ...). *)
  kernel_io_path : Sim.Time.t;
      (** In-kernel software path for baseline stacks (NVMe-oF / NFS
          request processing in Linux). *)
  rcuda_call_overhead : Sim.Time.t;
      (** Client+server marshalling per interposed CUDA driver call in the
          rCUDA baseline. rCUDA interposes every driver call separately
          (alloc, copy, launch, synchronize), which is why it loses to
          FractOS's single-roundtrip kernel invocation (Fig. 9). *)
  congestion_window : int;
      (** Max outstanding FractOS responses per Process (§4 congestion
          control). *)
  capspace_quota : int;
      (** Maximum capabilities per Process ("a set amount of memory for
          the capability space as set at Process creation time (can be
          capped via quotas)", §4). *)
  track_delegations : bool;
      (** Ablation knob: when true, every cross-controller capability
          insertion/removal sends a reference-count update to the owner —
          the delegation-tracking design the paper explicitly rejects
          (§3.5) because it puts messages on the critical path. Revocation
          cleanup then needs no broadcast. Default false (the paper's
          owner-centric design). *)
  (* -------- controller fast path (batching / caching / backpressure) -- *)
  ctrl_batch : int;
      (** Doorbell coalescing: maximum messages a controller service loop
          drains per scheduler wakeup. One wakeup pays [c_doorbell] once
          and services up to this many already-queued messages. Default 1
          (no coalescing — every message is its own wakeup). *)
  c_doorbell : Sim.Time.t;
      (** Per-wakeup queue-poll/doorbell cost on a controller core, scaled
          like the [Msg] class on SmartNICs. The Table 3 calibration folds
          this into [c_msg], so the default is 0; experiments that study
          coalescing split part of [c_msg] out into this knob (keeping
          [c_msg + c_doorbell] constant) so batching can amortize it. *)
  ctrl_queue_bound : int;
      (** Admission bound on a controller's syscall queue. Above the bound
          new requests are rejected at arrival with [Error.Overloaded]
          (receiver-not-ready, as an RC QP would RNR-NAK) instead of
          queueing without limit — the queue bends at saturation rather
          than collapsing. 0 (default) = unbounded, the seed behavior.
          Flow-control credits are never shed. *)
  translation_cache : bool;
      (** Per-capspace memoization of cid -> capability-entry translation,
          invalidated wholesale by a generation bump on any revocation,
          cleanup, process death or controller reboot. A hit skips the
          charged capability-space lookup ([c_lookup], the class with the
          largest SmartNIC multiplier); object-table epoch/validity checks
          still run on every use, so a cached translation can never
          outlive the object or epoch it names. Default false. *)
  peer_ack_timeout : Sim.Time.t;
      (** Upper bound on waiting for a peer acknowledgment that is on a
          syscall's critical path only under the [track_delegations]
          ablation (the [P_ref_inc] ack). If the owner's ack does not
          arrive in time (crash mid-delegation, partition, message loss)
          the insertion proceeds best-effort instead of blocking forever.
          0 = wait without bound. *)
  (* -------- sharded capability spaces -------- *)
  shard_placement : bool;
      (** When the deployment forms a shard group
          ([Controller.connect_shards]), scatter fresh Memory objects and
          derived Requests across the group by the deterministic shard
          map. Root Requests stay pinned to their provider's controller
          (delivery needs the provider's capspace locally); diminish and
          revtree children stay on their parent's controller (revocation
          trees use controller-local oids). Inert without a shard group.
          Default false. *)
  shard_dir_cache : bool;
      (** Memoize directory lookups (minting controller -> live owner)
          per controller, invalidated wholesale whenever the group's
          liveness generation moves (crash or reboot of any member) —
          the {!translation_cache} discipline applied to owner routing.
          A hit skips the priced directory walk. Default true. *)
  dir_cache_cap : int;
      (** Directory-cache entry bound; the cache is reset wholesale when
          full (groups are small, so this is a safety valve, not a
          tuning knob). Default 1024. *)
  shard_seed : int;
      (** Seed of the deterministic placement hash. Not a secret — it
          only decorrelates placement across deployments; two runs with
          the same seed place identically (bit-determinism). *)
  (* -------- PD (prefill/decode) router -------- *)
  router_policy : string;
      (** Instance-selection policy of [Services.Router], used by the
          disaggregated prefill/decode inference workload
          ([Workloads.Pd]): ["rr"] cycles round-robin over live
          instances; ["least"] picks the instance with the fewest
          outstanding requests (deterministic lowest-index tie-break);
          ["cache"] routes by prompt-prefix hash so repeated prefixes
          land on the same live prefill instance (SGLang-style
          cache-aware routing), re-stabilizing deterministically when
          the live set changes. Default ["least"]. *)
  router_affinity_slack : int;
      (** Escape hatch for affinity policies: when the affine (or
          locality-preferred) instance is backed up by more than this
          many outstanding requests over the least-loaded live
          instance, fall back to least-loaded. 0 = always honor
          affinity. Default 4. *)
  router_locality : bool;
      (** Score decode placement by projected bytes moved: prefer a
          decode instance whose controller already holds the KV state
          (zero-copy handoff, DaeMon-style locality) over a
          least-backlogged one, within [router_affinity_slack]. Default
          true. *)
  (* -------- what-if (causal profiler) hooks -------- *)
  scale_ctrl : float;
      (** Virtually scale every controller service time (all cost classes,
          doorbell polls, staging memcpys) by this factor. 1.0 (default)
          is bit-identical to the calibrated model; [Obs.Whatif] re-runs a
          seeded scenario with a factor < 1 to measure how much of the
          disaggregation tax that component is responsible for (Coz-style
          virtual speedup, made exact by the simulator). *)
  scale_fabric : float;
      (** Virtually scale link latency (loopback/wire/PCIe one-way) and
          wire/DMA serialization time. 1.0 = calibrated. *)
  scale_device : float;
      (** Virtually scale GPU engine time (alloc/load/launch/kernel) and
          NVMe media latency + internal bus transfer. 1.0 = calibrated. *)
  scale_client : float;
      (** Virtually scale the user-side syscall post cost and generic
          service compute ([service_work]). 1.0 = calibrated. *)
}

val default : t
(** The calibration used by all experiments unless overridden. *)

val validate : t -> unit
(** Raise [Invalid_argument] when a knob the copy engine divides the work
    by is non-positive ([bounce_chunk], [copy_window], [copy_streams]),
    when [router_policy] is not one of ["rr"]/["least"]/["cache"], or
    when [router_affinity_slack] is negative. Called by [Fabric.create],
    so a bad config fails fast instead of misbehaving mid-simulation. *)

val bytes_time : bw_bps:int -> int -> Sim.Time.t
(** [bytes_time ~bw_bps n] is the time to move [n] bytes at [bw_bps] bits
    per second, rounded up to at least 1 ns for [n > 0]. *)

val components : string list
(** The what-if component namespace: ["ctrl"; "fabric"; "device";
    "client"], in the order {!scale_component} understands. *)

val scale_component : t -> string -> float -> t option
(** [scale_component t comp f] is [t] with [comp]'s what-if factor set to
    [f], or [None] for an unknown component name. *)

val scale_time : float -> Sim.Time.t -> Sim.Time.t
(** [scale_time s t] rounds [t *. s] to nanoseconds (never negative). The
    [s = 1.0] case returns [t] unchanged with no float round-trip — the
    guarantee that unscaled configs are bit-identical to the seed. *)
