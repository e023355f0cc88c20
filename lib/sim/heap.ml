(* Struct of arrays: entry [i] is ([time.(i)], [seq.(i)], [slot.(i)]).
   All three are unboxed int arrays, so neither a push nor a pop
   allocates once the arrays have grown to the working-set size, and no
   sift writes a pointer (no write barrier runs). The sorted run
   (heap.mli) is a ring of [rlen] entries from [rhead], in the same
   three-array form, whose keys never fall from head to tail. *)
type t = {
  mutable time : int array;
  mutable seq : int array;
  mutable slot : int array;
  mutable size : int;
  mutable rtime : int array; (* ring capacities are powers of two *)
  mutable rseq : int array;
  mutable rslot : int array;
  mutable rhead : int;
  mutable rlen : int;
}

let initial = 64

let create () =
  let z () = Array.make initial 0 in
  {
    time = z ();
    seq = z ();
    slot = z ();
    size = 0;
    rtime = z ();
    rseq = z ();
    rslot = z ();
    rhead = 0;
    rlen = 0;
  }

let length h = h.size + h.rlen
let is_empty h = h.size = 0 && h.rlen = 0

(* [a] doubled, read as a ring from [head], which lands at index 0. *)
let double head a =
  let n = Array.length a in
  let b = Array.make (2 * n) 0 in
  Array.blit a head b 0 (n - head);
  Array.blit a 0 b (n - head) head;
  b

let grow h =
  h.time <- double 0 h.time;
  h.seq <- double 0 h.seq;
  h.slot <- double 0 h.slot

let grow_run h =
  h.rtime <- double h.rhead h.rtime;
  h.rseq <- double h.rhead h.rseq;
  h.rslot <- double h.rhead h.rslot;
  h.rhead <- 0

(* Key [(t, s)] before [(t', s')], compared as ints, not polymorphically. *)
let[@inline] before (t : int) (s : int) t' s' = t < t' || (t = t' && s < s')

(* Both sifts move a hole instead of swapping, and write the entry being
   placed once, at its final position. Every index they touch is below
   [size], which never exceeds the arrays' length, so they skip the
   bounds checks. *)
let sift_up h ~time ~seq slot =
  if h.size = Array.length h.time then grow h;
  let ts = h.time and ss = h.seq and sl = h.slot in
  let i = ref h.size in
  h.size <- h.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Array.unsafe_get ts p and ps = Array.unsafe_get ss p in
    if before time seq pt ps then begin
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

let push h ~time ~seq slot =
  let m = Array.length h.rtime - 1 in
  let tail = (h.rhead + h.rlen - 1) land m in
  if h.rlen = 0 || not (before time seq h.rtime.(tail) h.rseq.(tail))
  then begin
    if h.rlen = m + 1 then grow_run h;
    let j = (h.rhead + h.rlen) land (Array.length h.rtime - 1) in
    h.rtime.(j) <- time;
    h.rseq.(j) <- seq;
    h.rslot.(j) <- slot;
    h.rlen <- h.rlen + 1
  end
  else sift_up h ~time ~seq slot

(* Whether the minimum is the run's head rather than the heap's root. *)
let run_first h =
  h.size = 0
  || h.rlen > 0
     && before h.rtime.(h.rhead) h.rseq.(h.rhead) h.time.(0) h.seq.(0)

let min_time h =
  if is_empty h then invalid_arg "Heap.min_time: empty heap";
  if run_first h then h.rtime.(h.rhead) else h.time.(0)

let pop_heap h =
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
          if
            r < n
            && before (Array.unsafe_get ts r) (Array.unsafe_get ss r)
                 (Array.unsafe_get ts l) (Array.unsafe_get ss l)
          then r
          else l
        in
        let ct = Array.unsafe_get ts c and cs = Array.unsafe_get ss c in
        if before ct cs time seq then begin
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

let pop h =
  if is_empty h then invalid_arg "Heap.pop: empty heap";
  if run_first h then begin
    let s = h.rslot.(h.rhead) in
    h.rhead <- (h.rhead + 1) land (Array.length h.rtime - 1);
    h.rlen <- h.rlen - 1;
    s
  end
  else pop_heap h
