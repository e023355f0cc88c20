(* [data] is [Bytes.empty] until the first store that can be non-zero
   (see membuf.mli); an unwritten buffer reads as zeros. A zero-size
   buffer counts as written: it has nothing to materialize. *)
type t = {
  id : int;
  node : Fractos_net.Node.t;
  size : int;
  mutable data : Bytes.t;
}

(* Domain-local, like the controller, copy and pid counters: sibling
   simulations under [Domains.map] must not race one counter, or two
   buffers of one simulation could share an id ([Gpu] keys its
   allocations by it). *)
let next_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let reset_ids () = Domain.DLS.get next_id := 0

let create ~node size =
  if size < 0 then invalid_arg "Membuf.create: negative size";
  let next_id = Domain.DLS.get next_id in
  incr next_id;
  { id = !next_id; node; size; data = Bytes.empty }

let size t = t.size
let written t = Bytes.length t.data = t.size

let materialize t =
  if not (written t) then t.data <- Bytes.make t.size '\000';
  t.data

let check t ~off ~len what =
  if off < 0 || len < 0 || off > t.size - len then invalid_arg what

(* Chunk snapshots. Per length, a domain-local free list of recycled
   buffers and the one shared zero snapshot, which is never written and
   never recycled. *)
type pool = { zero : bytes; mutable free : bytes array; mutable n : int }

let pools : (int, pool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let pool len =
  let pools = Domain.DLS.get pools in
  match Hashtbl.find pools len with
  | p -> p
  | exception Not_found ->
    let p = { zero = Bytes.make len '\000'; free = [||]; n = 0 } in
    Hashtbl.add pools len p;
    p

let is_zero_snapshot b =
  match Hashtbl.find (Domain.DLS.get pools) (Bytes.length b) with
  | p -> p.zero == b
  | exception Not_found -> false

let snapshot t ~off ~len =
  check t ~off ~len "Membuf.snapshot";
  if len = 0 then Bytes.empty
  else
    let p = pool len in
    if not (written t) then p.zero
    else begin
      let b =
        if p.n = 0 then Bytes.create len
        else begin
          p.n <- p.n - 1;
          let b = p.free.(p.n) in
          p.free.(p.n) <- Bytes.empty;
          b
        end
      in
      Bytes.blit t.data off b 0 len;
      b
    end

let recycle b =
  let len = Bytes.length b in
  if len > 0 then begin
    let p = pool len in
    if b != p.zero then begin
      if p.n = Array.length p.free then begin
        let free = Array.make (max 8 (2 * p.n)) Bytes.empty in
        Array.blit p.free 0 free 0 p.n;
        p.free <- free
      end;
      p.free.(p.n) <- b;
      p.n <- p.n + 1
    end
  end

let write t ~off b =
  let len = Bytes.length b in
  check t ~off ~len "Membuf.write";
  if len > 0 && (written t || not (is_zero_snapshot b)) then
    Bytes.blit b 0 (materialize t) off len

let read t ~off ~len =
  check t ~off ~len "Membuf.read";
  if written t then Bytes.sub t.data off len else Bytes.make len '\000'

let blit ~src ~src_off ~dst ~dst_off ~len =
  check src ~off:src_off ~len "Membuf.blit";
  check dst ~off:dst_off ~len "Membuf.blit";
  if len > 0 then
    if written src then Bytes.blit src.data src_off (materialize dst) dst_off len
    else if written dst then Bytes.fill dst.data dst_off len '\000'

let set t i c =
  if i < 0 || i >= t.size then invalid_arg "Membuf.set";
  if c <> '\000' || written t then Bytes.set (materialize t) i c

let fill t c =
  if written t then Bytes.fill t.data 0 t.size c
  else if c <> '\000' then t.data <- Bytes.make t.size c

(* Eight bytes per step: kernels compare whole images with this, once per
   image per request. An unwritten side compares as zeros. *)
let rec same_bytes x y i stop =
  i >= stop || (Bytes.get x i = Bytes.get y i && same_bytes x y (i + 1) stop)

let rec same_words x y i stop =
  if i + 8 > stop then same_bytes x y i stop
  else
    Bytes.get_int64_ne x i = Bytes.get_int64_ne y i
    && same_words x y (i + 8) stop

let rec zero_bytes x i stop =
  i >= stop || (Bytes.get x i = '\000' && zero_bytes x (i + 1) stop)

let rec zero_words x i stop =
  if i + 8 > stop then zero_bytes x i stop
  else Bytes.get_int64_ne x i = 0L && zero_words x (i + 8) stop

let equal_range a b ~off ~len =
  if off < 0 || len < 0 || off + len > size a || off + len > size b then
    invalid_arg "Membuf.equal_range";
  let stop = off + len in
  match (written a, written b) with
  | true, true -> same_words a.data b.data off stop
  | true, false -> zero_words a.data off stop
  | false, true -> zero_words b.data off stop
  | false, false -> true

let pp fmt t =
  Format.fprintf fmt "membuf#%d(%dB@%s)" t.id t.size
    t.node.Fractos_net.Node.name
