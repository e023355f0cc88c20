(** Errors surfaced by FractOS operations.

    Every syscall returns [('a, Error.t) result]; errors never raise across
    the trust boundary. *)

type t =
  | Invalid_cap  (** The capability index does not exist in this Process. *)
  | Revoked  (** The referenced object has been invalidated. *)
  | Stale
      (** The capability's epoch predates a Controller reboot — implicit
          revocation by failure (§3.6 of the paper). *)
  | Perm_denied  (** Memory permissions do not allow the operation. *)
  | Bounds  (** Offset/length outside the object's extent. *)
  | Bad_argument of string  (** Malformed syscall argument. *)
  | Provider_dead  (** The Request's provider Process has failed. *)
  | Ctrl_unreachable  (** The owning Controller has failed. *)
  | Quota_exceeded  (** The Process's capability-space quota is full. *)
  | Timeout
      (** A caller-imposed deadline expired (application-level cancellation
          — FractOS itself never times out, §3.6). *)
  | Overloaded
      (** The Controller's bounded request queue was full and the syscall
          was shed at admission (backpressure; see
          [Net.Config.ctrl_queue_bound]). Transient — retry with backoff. *)

val to_string : t -> string

exception Fractos of t
(** Used by convenience wrappers that prefer raising; the core API itself
    always returns [result]. [Printexc.to_string] shows it as
    [Fractos(<to_string e>)]. *)

val ok_exn : ('a, t) result -> 'a
(** Unwrap, raising {!Fractos} on error. *)
