(* A domain-local bounded event ring, the one store behind Journal and
   Audit: the last [cap] events, a sequence number ([recorded] since
   reset), the count of events dropped from the full head (each also
   shown to [on_drop]) and a per-kind count that drops do not decrement.
   Off by default; callers check [enabled] before building an event. *)

type ('e, 'k) state = {
  mutable enabled : bool;
  mutable cap : int;
  ring : 'e Queue.t;
  mutable next : int;
  mutable overflowed : int;
  by_kind : ('k, int) Hashtbl.t;
}

type ('e, 'k) t = { key : ('e, 'k) state Domain.DLS.key; on_drop : 'e -> unit }

let create ~capacity ?(on_drop = ignore) () =
  let key =
    Domain.DLS.new_key (fun () ->
        {
          enabled = false;
          cap = capacity;
          ring = Queue.create ();
          next = 0;
          overflowed = 0;
          by_kind = Hashtbl.create 16;
        })
  in
  { key; on_drop }

let st r = Domain.DLS.get r.key
let enabled r = (st r).enabled
let set_enabled r b = (st r).enabled <- b

let drop_oldest r s =
  s.overflowed <- s.overflowed + 1;
  r.on_drop (Queue.pop s.ring)

let set_capacity r n =
  let s = st r in
  s.cap <- max 1 n;
  while Queue.length s.ring > s.cap do
    drop_oldest r s
  done

let reset r =
  let s = st r in
  Queue.clear s.ring;
  s.next <- 0;
  s.overflowed <- 0;
  Hashtbl.reset s.by_kind

let push r k ev =
  let s = st r in
  s.next <- s.next + 1;
  Hashtbl.replace s.by_kind k
    (1 + Option.value ~default:0 (Hashtbl.find_opt s.by_kind k));
  if Queue.length s.ring >= s.cap then drop_oldest r s;
  Queue.add ev s.ring

let recorded r = (st r).next
let events r = List.of_seq (Queue.to_seq (st r).ring)
let count r = Queue.length (st r).ring
let overflowed r = (st r).overflowed
let summary r = Hashtbl.fold (fun k v acc -> (k, v) :: acc) (st r).by_kind []
