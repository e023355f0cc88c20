(** Concrete fault schedule expanded from a {!Spec.t} and a seed.

    A plan is pure data: the exact times (relative to installation) at which
    controllers crash and reboot, partitions open and heal, and devices
    stall, plus the seed that drives per-message fabric faults. Generation is
    deterministic — equal [(spec, seed, n_ctrls, n_nodes)] yield structurally
    equal plans — which is what makes chaos runs replayable from the command
    line. *)

type event =
  | Crash of { at : Sim.Time.t; ctrl : int }
      (** fail controller [ctrl] (an index into the testbed's controller
          list) at relative time [at] *)
  | Reboot of { at : Sim.Time.t; ctrl : int }
      (** restart controller [ctrl], bumping its epoch *)
  | Partition of { from_ : Sim.Time.t; until : Sim.Time.t; island : int list }
      (** between [from_] and [until], messages between a node inside
          [island] (indices into the fabric's node list) and a node outside
          it are dropped *)
  | Stall of { at : Sim.Time.t; until : Sim.Time.t; node : int }
      (** node [node]'s DMA and link engines are busied out between [at]
          and [until], delaying everything queued behind them *)

type t = {
  pl_seed : int;  (** seed the plan was generated from *)
  pl_spec : Spec.t;  (** spec the plan was expanded from *)
  pl_events : event list;  (** scheduled events, sorted by start time *)
  pl_lossy : (int * int) list;
      (** unordered node-index pairs with elevated drop probability *)
  pl_fault_seed : int;  (** seed for the per-message fabric fault stream *)
}

val generate : spec:Spec.t -> seed:int -> n_ctrls:int -> n_nodes:int -> t
(** Expand [spec] into a concrete plan. Deterministic in all arguments.
    Counts are clamped to what the topology supports: no crash events when
    [n_ctrls = 0], no partitions or stalls when [n_nodes < 2]. *)

val to_lines : t -> string list
(** Human-readable one-line-per-event rendering, used by [fractos chaos]. *)
