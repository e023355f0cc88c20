type t = { read : bool; write : bool }

let rw = { read = true; write = true }
let ro = { read = true; write = false }
let wo = { read = false; write = true }
let none = { read = false; write = false }
let drop p ~drop = { read = p.read && not drop.read; write = p.write && not drop.write }

let to_string p =
  (if p.read then "r" else "-") ^ if p.write then "w" else "-"
