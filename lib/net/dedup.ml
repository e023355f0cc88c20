(* The last [window] admitted sequence numbers, in admission order. An
   int ring keeps the order; an open-addressing set (linear probing,
   backward-shift deletion, so no tombstones) answers membership. Both
   start small and double up to what the window needs, so an endpoint
   that sees little traffic stays small, and neither allocates once
   grown. *)

type t = {
  window : int;
  mutable ring : int array; (* admitted seqs, the oldest at [head] *)
  mutable head : int;
  mutable count : int;
  mutable slots : int array; (* [empty] or a member *)
  mutable bits : int; (* [Array.length slots = 1 lsl bits] *)
}

let empty = -1

let create ~window =
  if window < 1 then invalid_arg "Dedup.create: window < 1";
  let bits = 4 in
  {
    window;
    ring = Array.make (min window 8) empty;
    head = 0;
    count = 0;
    slots = Array.make (1 lsl bits) empty;
    bits;
  }

(* Fibonacci hashing: the top bits of the product with 2^63 / phi.
   Sequence numbers are consecutive, and an identity hash would lay them
   out as one long probe cluster. *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - t.bits)

let rec find t k i =
  let s = t.slots.(i) in
  if s = empty || s = k then i
  else find t k ((i + 1) land (Array.length t.slots - 1))

let mem t k = t.slots.(find t k (home t k)) = k

let insert t k = t.slots.(find t k (home t k)) <- k

(* Empty slot [i], then pull back every later member of its cluster whose
   home does not lie cyclically in (i, j]. *)
let rec close_gap t i j =
  let mask = Array.length t.slots - 1 in
  let j = (j + 1) land mask in
  let s = t.slots.(j) in
  if s = empty then t.slots.(i) <- empty
  else if (j - home t s) land mask >= (j - i) land mask then begin
    t.slots.(i) <- s;
    close_gap t j j
  end
  else close_gap t i j

let remove t k =
  let i = find t k (home t k) in
  if t.slots.(i) = k then close_gap t i i

(* Keep the set at most half full. *)
let grow_set t =
  let old = t.slots in
  t.bits <- t.bits + 1;
  t.slots <- Array.make (1 lsl t.bits) empty;
  Array.iter (fun s -> if s <> empty then insert t s) old

let grow_ring t =
  let cap = Array.length t.ring in
  let ring = Array.make (min t.window (2 * cap)) empty in
  for n = 0 to t.count - 1 do
    ring.(n) <- t.ring.((t.head + n) mod cap)
  done;
  t.ring <- ring;
  t.head <- 0

let admit t k =
  if mem t k then false
  else begin
    if t.count = t.window then begin
      remove t t.ring.(t.head);
      t.head <- (t.head + 1) mod Array.length t.ring;
      t.count <- t.count - 1
    end
    else if t.count = Array.length t.ring then grow_ring t;
    t.ring.((t.head + t.count) mod Array.length t.ring) <- k;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.slots then grow_set t;
    insert t k;
    true
  end
