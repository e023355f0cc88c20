(** The receive-side duplicate filter of an {!Endpoint}: a sliding window
    over sender-assigned sequence numbers, as an RDMA RC endpoint's PSN
    check. It remembers the last [window] admitted numbers, in admission
    order; a number it remembers is a duplicate, and admitting a fresh
    one past the window forgets the oldest. Allocates nothing per
    message once it has grown to its working size. *)

type t

val create : window:int -> t
(** An empty filter remembering up to [window] numbers. Numbers must be
    non-negative. Raises [Invalid_argument] if [window < 1]. *)

val admit : t -> int -> bool
(** [admit t seq] is [false] if [seq] is among the remembered numbers (a
    duplicate, which changes nothing), and otherwise remembers [seq] and
    returns [true]. *)
