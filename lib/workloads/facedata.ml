module Sim = Fractos_sim

(* Image [id], generated straight into bytes [off .. off+img_size-1] of
   [b], so a database or batch needs no temporary per image. *)
let fill_image b ~off ~img_size ~id =
  Sim.Prng.fill_sub (Sim.Prng.create ~seed:(0x6ace + id)) b ~off ~len:img_size

(* An impostor probe differs from its image in its first byte. *)
let perturb b ~off =
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff))

let image ~img_size ~id =
  let b = Bytes.create img_size in
  fill_image b ~off:0 ~img_size ~id;
  b

let db ~img_size ~n =
  let out = Bytes.create (img_size * n) in
  for i = 0 to n - 1 do
    fill_image out ~off:(i * img_size) ~img_size ~id:i
  done;
  out

let probe ~img_size ~id ~genuine =
  let b = image ~img_size ~id in
  if not genuine then perturb b ~off:0;
  b

let is_impostor ~impostor_every i =
  impostor_every > 0 && i mod impostor_every = impostor_every - 1

let probe_batch ~img_size ~start_id ~batch ~impostor_every =
  let out = Bytes.create (img_size * batch) in
  for i = 0 to batch - 1 do
    let off = i * img_size in
    fill_image out ~off ~img_size ~id:(start_id + i);
    if is_impostor ~impostor_every i then perturb out ~off
  done;
  out

let expected_matches ~batch ~impostor_every =
  Bytes.init batch (fun i ->
      if is_impostor ~impostor_every i then '\000' else '\001')
