(* Struct of arrays: entry [i] is ([time.(i)], [seq.(i)], [payload.(i)]).
   Keys live in unboxed int arrays, so neither a push nor a pop allocates
   once the arrays have grown to the working-set size. Vacated payload
   slots are overwritten with [dummy], so a popped payload is not kept
   alive by the heap. *)
type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable size : int;
  dummy : 'a;
}

let initial = 64

let create ~dummy =
  {
    time = Array.make initial 0;
    seq = Array.make initial 0;
    payload = Array.make initial dummy;
    size = 0;
    dummy;
  }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let n = 2 * Array.length h.time in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.time <- extend h.time 0;
  h.seq <- extend h.seq 0;
  h.payload <- extend h.payload h.dummy

(* Both sifts move a hole instead of swapping, and write the entry being
   placed once, at its final slot. *)
let push h ~time ~seq payload =
  if h.size = Array.length h.time then grow h;
  let i = ref h.size in
  h.size <- h.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = h.time.(p) in
    if time < pt || (time = pt && seq < h.seq.(p)) then begin
      h.time.(!i) <- pt;
      h.seq.(!i) <- h.seq.(p);
      h.payload.(!i) <- h.payload.(p);
      i := p
    end
    else moving := false
  done;
  h.time.(!i) <- time;
  h.seq.(!i) <- seq;
  h.payload.(!i) <- payload

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  h.time.(0)

let pop_payload h =
  if h.size = 0 then invalid_arg "Heap.pop_payload: empty heap";
  let top = h.payload.(0) in
  let n = h.size - 1 in
  h.size <- n;
  (* re-insert the last entry from the root down *)
  let time = h.time.(n) and seq = h.seq.(n) and payload = h.payload.(n) in
  h.payload.(n) <- h.dummy;
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (h.time.(r) < h.time.(l)
               || (h.time.(r) = h.time.(l) && h.seq.(r) < h.seq.(l)))
          then r
          else l
        in
        let ct = h.time.(c) in
        if ct < time || (ct = time && h.seq.(c) < seq) then begin
          h.time.(!i) <- ct;
          h.seq.(!i) <- h.seq.(c);
          h.payload.(!i) <- h.payload.(c);
          i := c
        end
        else moving := false
      end
    done;
    h.time.(!i) <- time;
    h.seq.(!i) <- seq;
    h.payload.(!i) <- payload
  end;
  top

let clear h =
  Array.fill h.payload 0 h.size h.dummy;
  h.size <- 0
