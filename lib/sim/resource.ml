type t = {
  free_at : Time.t array; (* per-server next-free instant *)
  mutable booked : Time.t;
}

let create ?(servers = 1) () =
  if servers < 1 then invalid_arg "Resource.create: servers < 1";
  { free_at = Array.make servers 0; booked = 0 }

let earliest r =
  let best = ref 0 in
  for i = 1 to Array.length r.free_at - 1 do
    if r.free_at.(i) < r.free_at.(!best) then best := i
  done;
  !best

let reserve_at r ~start ~duration =
  let i = earliest r in
  let start = max start r.free_at.(i) in
  let finish = start + duration in
  r.free_at.(i) <- finish;
  r.booked <- r.booked + duration;
  finish

let reserve r ~duration = reserve_at r ~start:(Engine.now ()) ~duration

let use r ~duration = Engine.sleep_until (reserve r ~duration)

(* [use]'s wake-up, or its immediate return, as an event or a call *)
let use_then r ~duration g x =
  let finish = reserve r ~duration and now = Engine.now () in
  if finish > now then Engine.schedule_with (finish - now) g x else g x

let busy_time r = r.booked
