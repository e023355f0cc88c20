(* Struct of arrays: entry [i] is ([time.(i)], [seq.(i)], [slot.(i)]).
   All three are unboxed int arrays, so neither a push nor a pop
   allocates once the arrays have grown to the working-set size, and no
   sift writes a pointer (no write barrier runs). *)
type t = {
  mutable time : int array;
  mutable seq : int array;
  mutable slot : int array;
  mutable size : int;
}

let initial = 64

let create () =
  {
    time = Array.make initial 0;
    seq = Array.make initial 0;
    slot = Array.make initial 0;
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let n = 2 * Array.length h.time in
  let extend a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.time <- extend h.time;
  h.seq <- extend h.seq;
  h.slot <- extend h.slot

(* Both sifts move a hole instead of swapping, and write the entry being
   placed once, at its final position. Every index they touch is below
   [size], which never exceeds the arrays' length, so they skip the
   bounds checks. *)
let push h ~time ~seq slot =
  if h.size = Array.length h.time then grow h;
  let ts = h.time and ss = h.seq and sl = h.slot in
  let i = ref h.size in
  h.size <- h.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Array.unsafe_get ts p and ps = Array.unsafe_get ss p in
    if time < pt || (time = pt && seq < ps) then begin
      Array.unsafe_set ts !i pt;
      Array.unsafe_set ss !i ps;
      Array.unsafe_set sl !i (Array.unsafe_get sl p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set ts !i time;
  Array.unsafe_set ss !i seq;
  Array.unsafe_set sl !i slot

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  h.time.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let ts = h.time and ss = h.seq and sl = h.slot in
  let top = Array.unsafe_get sl 0 in
  let n = h.size - 1 in
  h.size <- n;
  (* re-insert the last entry from the root down *)
  let time = Array.unsafe_get ts n
  and seq = Array.unsafe_get ss n
  and slot = Array.unsafe_get sl n in
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let rt = Array.unsafe_get ts r and lt = Array.unsafe_get ts l in
            if
              rt < lt
              || (rt = lt && Array.unsafe_get ss r < Array.unsafe_get ss l)
            then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get ts c and cs = Array.unsafe_get ss c in
        if ct < time || (ct = time && cs < seq) then begin
          Array.unsafe_set ts !i ct;
          Array.unsafe_set ss !i cs;
          Array.unsafe_set sl !i (Array.unsafe_get sl c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set ts !i time;
    Array.unsafe_set ss !i seq;
    Array.unsafe_set sl !i slot
  end;
  top

let clear h = h.size <- 0
