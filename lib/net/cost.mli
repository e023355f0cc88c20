(** Compute-cost model for Controller and adaptor software.

    Each FractOS software operation is expressed as a bag of cost-class
    units; this module scales a class's base (host-CPU) cost by the
    executing node's kind. The class structure mirrors the paper's
    observation that SmartNIC slowdown is not uniform: lookups (atomics)
    slow down ~5x, serialization ~2.8x, plain message handling only ~1.4x
    (see {!Config} for the anchors). *)

type cls =
  | Msg  (** Handling one queue message. *)
  | Lookup  (** One capability/object table lookup. *)
  | Serialize  (** (De)serializing a Request for the wire, one direction. *)
  | Cap_transfer  (** Delegating one capability during invocation. *)
  | Revoke  (** Invalidating one revocation-tree object. *)

val one : Config.t -> Node.kind -> cls -> Sim.Time.t
(** Cost of one unit of [cls] on a node of the given kind. *)

val v : Config.t -> Node.kind -> (cls * int) list -> Sim.Time.t
(** [v cfg kind units] sums the scaled cost of a bag of units, e.g.
    [v cfg kind [(Msg, 2); (Lookup, 3)]]. *)

val v_plus :
  Config.t -> Node.kind -> (cls * int) list -> cls -> int -> Sim.Time.t
(** [v_plus cfg kind units cls n] is [v cfg kind (units @ [(cls, n)])]
    without building the list: the positional form for a charge whose
    count is computed at run time (a list holding a computed count is
    allocated on every call; one of literals is static data). *)

val scaled : Config.t -> Node.kind -> cls -> Sim.Time.t -> Sim.Time.t
(** [scaled cfg kind cls base] scales an arbitrary base cost by [cls]'s
    node-kind factor — for costs that belong to a class but are not unit
    multiples (e.g. memory_copy setup, which scales like serialization). *)
