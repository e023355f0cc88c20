(* A bounded event ring, the one store behind Journal and Audit: the last
   [cap] events, a sequence number ([recorded] since reset), the count of
   events dropped from the full head (each also shown to [on_drop]) and a
   per-kind count that drops do not decrement. Off by default; callers
   check [enabled] before building an event. *)

type ('e, 'k) t = {
  mutable enabled : bool;
  mutable cap : int;
  ring : 'e Queue.t;
  mutable next : int;
  mutable overflowed : int;
  by_kind : ('k, int) Hashtbl.t;
  on_drop : 'e -> unit;
}

let create ~capacity ?(on_drop = ignore) () =
  {
    enabled = false;
    cap = capacity;
    ring = Queue.create ();
    next = 0;
    overflowed = 0;
    by_kind = Hashtbl.create 16;
    on_drop;
  }

let enabled r = r.enabled
let set_enabled r b = r.enabled <- b

let drop_oldest r =
  r.overflowed <- r.overflowed + 1;
  r.on_drop (Queue.pop r.ring)

let set_capacity r n =
  r.cap <- max 1 n;
  while Queue.length r.ring > r.cap do
    drop_oldest r
  done

let reset r =
  Queue.clear r.ring;
  r.next <- 0;
  r.overflowed <- 0;
  Hashtbl.reset r.by_kind

let push r k ev =
  r.next <- r.next + 1;
  Hashtbl.replace r.by_kind k
    (1 + Option.value ~default:0 (Hashtbl.find_opt r.by_kind k));
  if Queue.length r.ring >= r.cap then drop_oldest r;
  Queue.add ev r.ring

let recorded r = r.next
let events r = List.of_seq (Queue.to_seq r.ring)
let count r = Queue.length r.ring
let overflowed r = r.overflowed
let summary r = Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.by_kind []
