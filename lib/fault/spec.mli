(** Fault specification: the knobs of a chaos experiment.

    A [Spec.t] describes *how much* of each fault class to inject; it is pure
    data and contains no randomness. Combined with a seed it expands into a
    concrete {!Plan.t}. Specs have a compact, human-writable string form
    ([key=value] pairs, comma-separated) accepted by [fractos chaos --faults]
    and round-tripped exactly by {!to_string}/{!of_string}. *)

type t = {
  s_drop : float;  (** probability a fabric message is dropped *)
  s_dup : float;  (** probability a fabric message is duplicated *)
  s_delay_p : float;  (** probability a fabric message is delayed *)
  s_delay : Sim.Time.t;  (** extra latency applied to delayed messages *)
  s_crashes : int;  (** number of controller crash events *)
  s_reboot_after : Sim.Time.t;  (** delay from a crash to its reboot;
                                    0 means crashed controllers stay down *)
  s_partitions : int;  (** number of transient network partitions *)
  s_partition_len : Sim.Time.t;  (** duration of each partition *)
  s_stalls : int;  (** number of device-stall events *)
  s_stall_len : Sim.Time.t;  (** duration of each device stall *)
  s_lossy_links : int;  (** number of node pairs with elevated loss *)
  s_lossy_drop : float;  (** extra drop probability on lossy links *)
  s_horizon : Sim.Time.t;  (** window after installation during which
                               scheduled faults are placed *)
}

val none : t
(** No faults at all. [of_string "none"] parses to this. *)

val default : t
(** A moderately hostile mix: light loss/duplication/delay, one crash with
    reboot, one partition, one device stall, one lossy link.
    [of_string "default"] parses to this. *)

val lossless : t -> bool
(** [lossless s] is [true] when [s] can never discard a message: no random
    drops, no partitions, and no effective lossy links. Delay, duplication,
    crashes and stalls may still be present. *)

val to_string : t -> string
(** Canonical [key=value,...] rendering. Round-trips: for every [s],
    [of_string (to_string s) = Ok s]. *)

val of_string : string -> (t, string) result
(** Parse a spec. [""] and ["default"] give {!default}; ["none"] gives
    {!none}. Otherwise a comma-separated list of [key=value] overrides
    applied on top of {!none}, where keys are [drop], [dup], [delayp],
    [delay], [crash], [reboot], [part], [partlen], [stall], [stalllen],
    [links], [linkdrop], [horizon]. Durations accept [ns]/[us]/[ms]/[s]
    suffixes (e.g. [delay=30us]); a duration that does not fit in
    nanoseconds is an [Error]. *)
