(** Synthetic face-verification dataset.

    Stands in for the paper's secure photo database [24]: each "image" is a
    deterministic pseudo-random byte string derived from its id, so the
    GPU's byte-comparison kernel (our face-matching stand-in) produces
    verifiable ground truth — a probe generated for id [i] matches the
    database entry for id [i] and nothing else. *)

val image : img_size:int -> id:int -> bytes
(** The canonical database image for [id]. *)

val db : img_size:int -> n:int -> bytes
(** The concatenated database of images [0 .. n-1]. *)

val probe_batch :
  img_size:int -> start_id:int -> batch:int -> impostor_every:int -> bytes
(** A batch of probes for ids [start_id .. start_id+batch-1], with every
    [impostor_every]-th probe an impostor ([0] = all genuine). *)

val expected_matches :
  batch:int -> impostor_every:int -> bytes
(** Ground-truth result vector for {!probe_batch} (1 = match). *)
