(** Multi-tier file-system service (§5): extent-based files over the
    block-device adaptor, with FS and DAX access modes (Fig. 4).

    Files are arrays of fixed-size extents; each extent is one logical
    volume on the block device, accessed through the per-volume Requests
    the adaptor delegated to the FS at creation time.

    Access modes:
    - {b FS}: the FS Process mediates every read/write — data is staged
      through FS memory (two network data transfers per operation). The
      per-open [fs.read]/[fs.write] Requests carry the file handle.
    - {b DAX} ("direct access"): open returns the {e block device's own}
      per-extent Requests, with the write Request withheld on read-only
      opens — clients then move data straight between the SSD and their
      buffers (or a GPU's), cutting the FS out of the data path without
      breaking encapsulation. *)

module Core = Fractos_core

type t

val start :
  Core.Process.t ->
  create_vol:Core.Api.cid ->
  ?extent_size:int ->
  ?cache:bool ->
  unit ->
  t
(** Run the FS on the given Process. [create_vol] is the block adaptor's
    volume-management Request (bootstrap). [extent_size] defaults to
    1 MiB. [cache] (default false) enables a read cache with sequential
    read-ahead on the FS node — the feature §6.4 notes the prototype
    omitted "for simplicity", which is why its FS lost to the
    cache-backed NVMe-oF baseline on writes and sequential reads. *)

val cache_hits : t -> int
(** Reads served from the FS cache (diagnostics). *)

val base_request : t -> Core.Api.cid
(** The FS root Request ([fs] RPCs), for bootstrap/registry. *)

(** {1 Client-side wrappers} *)

type mode = Fs_ro | Fs_rw | Dax_ro | Dax_rw

type handle = {
  h_size : int;
  h_extent_size : int;
  h_read : Core.Api.cid option;  (** FS-mode read Request. *)
  h_write : Core.Api.cid option;  (** FS-mode write Request. *)
  h_dax_read : Core.Api.cid array;  (** DAX per-extent read Requests. *)
  h_dax_write : Core.Api.cid array;  (** DAX per-extent write Requests. *)
}

val create :
  Svc.t -> fs:Core.Api.cid -> name:string -> size:int ->
  (unit, Core.Error.t) result

val open_ :
  Svc.t -> fs:Core.Api.cid -> name:string -> mode ->
  (handle, Core.Error.t) result

val read :
  Svc.t -> handle -> off:int -> len:int -> dst:Core.Api.cid ->
  (unit, Core.Error.t) result
(** FS-mode synchronous read into the [dst] Memory capability. *)

val write :
  Svc.t -> handle -> off:int -> len:int -> src:Core.Api.cid ->
  (unit, Core.Error.t) result
(** FS-mode synchronous write from the [src] Memory capability (extent of
    [src] must equal [len]). *)

val read_request_args :
  handle -> off:int -> len:int -> (int * Core.Args.imm list) option
(** DAX helper: for an intra-extent range, the extent index and the
    immediate refinement for that extent's read/write Request. [None] when
    the range spans extents. *)
