type t =
  | Invalid_cap
  | Revoked
  | Stale
  | Perm_denied
  | Bounds
  | Bad_argument of string
  | Provider_dead
  | Ctrl_unreachable
  | Quota_exceeded
  | Timeout
  | Overloaded

let to_string = function
  | Invalid_cap -> "invalid capability"
  | Revoked -> "revoked"
  | Stale -> "stale capability (controller rebooted)"
  | Perm_denied -> "permission denied"
  | Bounds -> "out of bounds"
  | Bad_argument s -> "bad argument: " ^ s
  | Provider_dead -> "provider process dead"
  | Ctrl_unreachable -> "controller unreachable"
  | Quota_exceeded -> "capability-space quota exceeded"
  | Timeout -> "deadline expired"
  | Overloaded -> "controller overloaded (request shed at admission)"

let pp fmt t = Format.pp_print_string fmt (to_string t)
let equal a b = a = b

exception Fractos of t

let () =
  Printexc.register_printer (function
    | Fractos e -> Some ("Fractos(" ^ to_string e ^ ")")
    | _ -> None)

let ok_exn = function Ok v -> v | Error e -> raise (Fractos e)
