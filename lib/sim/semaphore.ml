(* A waiter is a suspended fiber or a step: a function, its argument and
   the trace context to run it under ([acquire_then]). *)
type waiter =
  | Fiber of unit Engine.resumer
  | Step : int * ('a -> unit) * 'a -> waiter

type t = {
  mutable permits : int;
  waiters : waiter Queue.t;
}

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative permits";
  { permits = n; waiters = Queue.create () }

let acquire s =
  if s.permits > 0 then s.permits <- s.permits - 1
  else Engine.suspend (fun r -> Queue.add (Fiber r) s.waiters)

let acquire_then s g x =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    g x
  end
  else Queue.add (Step (Engine.get_ctx (), g, x)) s.waiters

let try_acquire s =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    true
  end
  else false

(* [is_empty] then [take], so a release boxes no [Some]. *)
let release s =
  if Queue.is_empty s.waiters then s.permits <- s.permits + 1
  else
    match Queue.take s.waiters with
    | Fiber r -> Engine.resume r ()
    | Step (ctx, g, x) -> Engine.wake_with ctx g x

let with_permit s f =
  acquire s;
  Fun.protect ~finally:(fun () -> release s) f

let available s = s.permits
let waiting s = Queue.length s.waiters
