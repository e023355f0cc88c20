type t = { read : bool; write : bool }

let rw = { read = true; write = true }
let ro = { read = true; write = false }
let wo = { read = false; write = true }
let none = { read = false; write = false }
let drop p ~drop = { read = p.read && not drop.read; write = p.write && not drop.write }

let to_string p =
  (if p.read then "r" else "-") ^ if p.write then "w" else "-"

(* Inverse of [to_string]; used to parse permissions back out of audit-log
   details and exported attributes. *)
let of_string = function
  | "rw" -> Some rw
  | "r-" -> Some ro
  | "-w" -> Some wo
  | "--" -> Some none
  | _ -> None

let pp fmt p = Format.pp_print_string fmt (to_string p)
