(** End-to-end face-verification application (§5, Fig. 2).

    The application composes the storage stack and the GPU service: for
    each client request it

    + copies the probe photos into GPU memory,
    + DAX-reads the corresponding database images from the SSD {e directly
      into GPU memory} (the block adaptor invokes the GPU-kernel Request as
      its continuation — data never touches the application node),
    + runs the face-matching kernel,
    + copies the result vector back into application memory and responds.

    Matching is byte-equality between probe and database image — a
    deterministic stand-in for the paper's feature comparison that lets
    tests check end-to-end correctness, not just timing.

    The app keeps [depth] pre-allocated GPU buffer sets (the paper's
    "small pool of pre-allocated GPU memory buffers"), so up to [depth]
    requests are serviced concurrently. *)

module Core = Fractos_core
module Device = Fractos_device

val kernel_name : string

val kernel : Device.Gpu.kernel
(** The face-matching kernel: buffers [[probe; db; out]], user immediates
    [[batch; img_size]]; writes 1/0 match flags into [out]. Cost:
    [gpu_per_image * batch]. Load it into the GPU at bring-up. *)

val populate_db :
  Svc.t ->
  fs:Core.Api.cid ->
  name:string ->
  content:bytes ->
  (unit, Core.Error.t) result
(** Create the database file and write [content] through the FS service.
    The upload borrows [content] (see {!Core.Membuf.of_bytes}): the file
    may keep reading it after the call returns, so [content] must not
    change while the simulation may read the file. A store into the file
    copies first, and never reaches [content]. *)

type t

val setup :
  Svc.t ->
  fs:Core.Api.cid ->
  gpu_alloc:Core.Api.cid ->
  gpu_load:Core.Api.cid ->
  db_name:string ->
  img_size:int ->
  max_batch:int ->
  depth:int ->
  (t, Core.Error.t) result
(** Open the database (DAX, read-only), allocate [depth] GPU buffer sets
    sized for [max_batch] images, and bind the kernel-invocation Request. *)

val verify :
  t -> start_id:int -> batch:int -> probes:bytes -> (bytes, Core.Error.t) result
(** Run one verification request for ids
    [start_id .. start_id + batch - 1]. [probes] must be
    [batch * img_size] bytes. Returns the match-flag vector. Blocking;
    up to [depth] calls may proceed concurrently. *)
