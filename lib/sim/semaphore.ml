type t = {
  mutable permits : int;
  waiters : unit Engine.resumer Queue.t;
}

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative permits";
  { permits = n; waiters = Queue.create () }

let acquire s =
  if s.permits > 0 then s.permits <- s.permits - 1
  else Engine.suspend (fun r -> Queue.add r s.waiters)

let try_acquire s =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    true
  end
  else false

(* [is_empty] then [take], so a release boxes no [Some]. *)
let release s =
  if Queue.is_empty s.waiters then s.permits <- s.permits + 1
  else Engine.resume (Queue.take s.waiters) ()

let with_permit s f =
  acquire s;
  Fun.protect ~finally:(fun () -> release s) f

let available s = s.permits
let waiting s = Queue.length s.waiters
