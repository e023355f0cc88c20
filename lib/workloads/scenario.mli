(** The scenario table: every workload that chaos and [fractos run] drive,
    as named entries.

    Each entry deploys on the canonical 4-node cluster beside the
    face-verification application of §5 (every entry uploads the face
    database and starts its pipeline first, so faults also hit the
    application's standing capabilities), then adds its own state:
    per-client files, copy sessions or a prefill/decode pool. A request is
    drawn from a {!Sim.Prng}; its reply carries the entry's output check
    (match flags, copied bytes, first token before completion). *)

module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster

type dims = {
  img_size : int;  (** bytes per database image *)
  n_images : int;
  batch : int;  (** images per face-verification request *)
  depth : int;  (** face pipeline depth *)
  clients : int;  (** clients to deploy files and copy sessions for *)
  timeout : Sim.Time.t;  (** bound on each wait of a PD request *)
}

type within = {
  within : 'a. (unit -> ('a, Core.Error.t) result) -> ('a, Core.Error.t) result;
}
(** How a refresh runs its fallible part (chaos: under a deadline). *)

type reply = {
  line : string;  (** what [fractos run] prints for the request *)
  bad : string option;  (** the output check's complaint *)
}

type client = {
  request : Sim.Prng.t -> unit -> (reply, Core.Error.t) result;
      (** [request rng] draws the next request; the thunk is one attempt
          at it and may be retried. *)
  refresh : within -> unit;
      (** Re-acquire capabilities after a fault: reopen or recreate the
          client's file, rebuild the face pipeline; else a no-op. *)
}

type instance = {
  cluster : Cluster.t;
  detail : string;  (** header suffix, e.g. [", batch 16"] *)
  client : int -> client;  (** client [k], [0 <= k < clients] *)
  summary : unit -> string;  (** the network census, or PD's means *)
}

type t

val all : t list
(** mixed, faceverify, fs, copy, xshard, pd; mixed runs fs on odd
    clients and faceverify on even ones, xshard cross-shard copies on odd
    clients and faceverify on even ones. *)

val find : string -> (t, string) result
(** The entry of that name, or an error that lists every name. *)

val name : t -> string
val title : t -> string

val config : t -> Net.Config.t -> Net.Config.t
(** xshard forces [shard_placement] on. *)

val deploy : t -> dims -> placement:Tb.placement -> Tb.t -> instance
(** Build the cluster (xshard: {!Tb.shard_all}), the face pipeline and
    the entry's own state. Raises {!Core.Error.Fractos} if set-up fails. *)

val faceverify :
  Tb.t ->
  placement:Tb.placement ->
  db:bytes ->
  img_size:int ->
  max_batch:int ->
  depth:int ->
  Cluster.t * Fractos_services.Faceverify.t
(** The face deployment alone, on a cluster whose extents hold [db]
    whole, for callers with their own database and request loop. *)
