type t = int

let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let to_us_f t = float_of_int t /. 1_000.
let to_ms_f t = float_of_int t /. 1_000_000.
let to_s_f t = float_of_int t /. 1_000_000_000.

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us_f t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms_f t)
  else Format.fprintf fmt "%.3fs" (to_s_f t)

let to_string t = Format.asprintf "%a" pp t
