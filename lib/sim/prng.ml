type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = int64 t in
  { state = seed }

(* Decorrelated stream: state = mix(seed + (id+1) * gamma), a pure
   function of (seed, id). Unlike [split], deriving stream [i] does not
   advance any parent generator, so stream i's draws are independent of
   how many sibling streams exist or the order they are derived in. *)
let stream ~seed ~id =
  if id < 0 then invalid_arg "Prng.stream: id must be non-negative";
  {
    state =
      mix
        (Int64.add (Int64.of_int seed)
           (Int64.mul (Int64.of_int (id + 1)) golden_gamma));
  }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for 62-bit
     draws against the small bounds we use. The mask keeps the draw within
     OCaml's native positive-int range. *)
  let v = Int64.to_int (Int64.logand (int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L
let byte t = Char.chr (int t 256)

(* The bytes successive [byte] draws would give (the low 8 bits of each
   masked draw), with the state in a local: boxing it per byte made
   building the 64 MiB face database take about a second. *)
let fill_sub t b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Prng.fill_sub: range outside the buffer";
  let s = ref t.state in
  for i = off to off + len - 1 do
    s := Int64.add !s golden_gamma;
    Bytes.unsafe_set b i (Char.unsafe_chr (Int64.to_int (mix !s) land 0xff))
  done;
  t.state <- !s

let fill_bytes t b = fill_sub t b ~off:0 ~len:(Bytes.length b)

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u
