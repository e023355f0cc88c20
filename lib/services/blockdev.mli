(** Block-device adaptor — exposes an NVMe SSD through FractOS (§5).

    One RPC plus two continuation-style Requests per logical volume:

    - [blk.create_vol] (RPC): immediates [[size]]; reply carries the volume
      handle and two Request capabilities, one for reads and one for
      writes, with the volume handle baked in. Whoever holds those
      Requests (the FS service, or — under DAX — an application) can
      refine them with an offset/length and a Memory capability and a
      continuation, exactly the composition in Fig. 3 of the paper.

    - [blk.read] (continuation style): immediates [[vol; off; len]];
      capabilities [[dst_mem; next]] (optionally [[dst_mem; next; err]]).
      The adaptor reads the device, copies the data into [dst_mem]
      (wherever it lives — GPU memory included), then invokes [next]
      verbatim.

    - [blk.write]: immediates [[vol; off; len]]; capabilities
      [[src_mem; next]] ([src_mem] extent must equal [len]). A range
      outside the volume takes the error continuation with code 2 before
      any data moves. *)

module Core = Fractos_core
module Device = Fractos_device

type t

val start : Core.Process.t -> Device.Nvme.t -> t

val svc : t -> Svc.t

val create_vol_request : t -> Core.Api.cid
(** Root Request for volume management (bootstrap/registry). *)

(** {1 Client-side wrappers} *)

type vol = {
  vol_handle : int;
  read_req : Core.Api.cid;
  write_req : Core.Api.cid;
  vol_size : int;
}

val create_vol :
  Svc.t -> create_req:Core.Api.cid -> size:int -> (vol, Core.Error.t) result

val read_args : off:int -> len:int -> Core.Args.imm list
val write_args : off:int -> len:int -> Core.Args.imm list
(** Immediate refinements for the per-volume Requests. *)
