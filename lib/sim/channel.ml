(* Each message carries its sender's trace context; [recv]/[try_recv]
   adopt it, so request traces follow messages across queues (the
   message-passing half of context propagation — ivars, by contrast,
   restore the awaiting fiber's own context). *)

type 'a t = {
  items : (int * 'a) Queue.t;
  readers : (int * 'a) Engine.resumer Queue.t;
  mutable stepping : bool; (* a [recv_then] step waits *)
  mutable step : 'a -> unit;
}

let add_reader readers r = Queue.add r readers

let create () =
  {
    items = Queue.create ();
    readers = Queue.create ();
    stepping = false;
    step = ignore;
  }

(* A waiting step runs from the event a resumed reader would, under the
   sender's context, so it needs no [(ctx, v)] pair. *)
let send ch v =
  if ch.stepping then begin
    ch.stepping <- false;
    Engine.schedule_with 0 ch.step v
  end
  else
    let m = (Engine.get_ctx (), v) in
    if Queue.is_empty ch.readers then Queue.add m ch.items
    else Engine.resume (Queue.take ch.readers) m

let recv ch =
  let ctx, v =
    if Queue.is_empty ch.items then Engine.suspend_with add_reader ch.readers
    else Queue.take ch.items
  in
  Engine.set_ctx ctx;
  v

let recv_then ch g =
  if Queue.is_empty ch.items then begin
    ch.stepping <- true;
    ch.step <- g
  end
  else g (recv ch)

let try_recv ch =
  if Queue.is_empty ch.items then None
  else begin
    let ctx, v = Queue.take ch.items in
    Engine.set_ctx ctx;
    Some v
  end

let length ch = Queue.length ch.items
let waiters ch = Queue.length ch.readers
