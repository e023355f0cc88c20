(* Each message carries its sender's trace context; [recv]/[try_recv]
   adopt it, so request traces follow messages across queues (the
   message-passing half of context propagation — ivars, by contrast,
   restore the awaiting fiber's own context). *)

type 'a t = {
  items : (int * 'a) Queue.t;
  readers : (int * 'a) Engine.resumer Queue.t;
  reader : (int * 'a) Engine.waiter; (* built once: [recv] allocates none *)
}

let add_reader readers r = Queue.add r readers

let create () =
  let readers = Queue.create () in
  {
    items = Queue.create ();
    readers;
    reader = Engine.waiter add_reader readers;
  }

let send ch v =
  let m = (Engine.get_ctx (), v) in
  if Queue.is_empty ch.readers then Queue.add m ch.items
  else Engine.resume (Queue.take ch.readers) m

let recv ch =
  let ctx, v =
    if Queue.is_empty ch.items then Engine.wait ch.reader
    else Queue.take ch.items
  in
  Engine.set_ctx ctx;
  v

let try_recv ch =
  if Queue.is_empty ch.items then None
  else begin
    let ctx, v = Queue.take ch.items in
    Engine.set_ctx ctx;
    Some v
  end

let length ch = Queue.length ch.items
let waiters ch = Queue.length ch.readers
