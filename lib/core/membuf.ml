(* [data] is [Bytes.empty] until the first store that can be non-zero
   (see membuf.mli); an unwritten buffer reads as zeros. A zero-size
   buffer counts as written: it has nothing to materialize. [pins] counts
   the staged copy chunks that still read [data]; a store makes a private
   copy first while it is positive. *)
type t = {
  id : int;
  node : Fractos_net.Node.t;
  size : int;
  mutable data : Bytes.t;
  mutable pins : int;
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
  { id = !next_id; node; size; data = Bytes.empty; pins = 0 }

let size t = t.size
let written t = Bytes.length t.data = t.size

let set_data t b =
  t.data <- b;
  t.pins <- 0

(* The bytes of [t], ready for a store: allocated zeroed if [t] is
   unwritten, copied if a staged chunk still reads them. *)
let materialize t =
  if not (written t) then set_data t (Bytes.make t.size '\000')
  else if t.pins > 0 then set_data t (Bytes.copy t.data);
  t.data

let check t ~off ~len what =
  if off < 0 || len < 0 || off > t.size - len then invalid_arg what

let write t ~off b =
  let len = Bytes.length b in
  check t ~off ~len "Membuf.write";
  if len > 0 then Bytes.blit b 0 (materialize t) off len

let read t ~off ~len =
  check t ~off ~len "Membuf.read";
  if written t then Bytes.sub t.data off len else Bytes.make len '\000'

let blit ~src ~src_off ~dst ~dst_off ~len =
  check src ~off:src_off ~len "Membuf.blit";
  check dst ~off:dst_off ~len "Membuf.blit";
  if len > 0 then
    if written src then Bytes.blit src.data src_off (materialize dst) dst_off len
    else if written dst then Bytes.fill (materialize dst) dst_off len '\000'

let clear t = set_data t Bytes.empty

let move ~src ~dst =
  if src.size <> dst.size then invalid_arg "Membuf.move";
  if src != dst then begin
    dst.data <- src.data;
    dst.pins <- src.pins;
    clear src
  end

let set t i c =
  if i < 0 || i >= t.size then invalid_arg "Membuf.set";
  if c <> '\000' || written t then Bytes.set (materialize t) i c

let fill t c =
  if written t && t.pins = 0 then Bytes.fill t.data 0 t.size c
  else if c <> '\000' || written t then set_data t (Bytes.make t.size c)

(* Pins. A pin holds the bytes its source had when it was taken; the
   source counts it in [pins] for as long as it still has those bytes. *)
type pin = No_pin | Pin of { src : t; bytes : Bytes.t; base : int }

let no_pin = No_pin

let pin p t ~off ~len =
  check t ~off ~len "Membuf.pin";
  t.pins <- t.pins + 1;
  match p with
  | Pin { src; bytes; base } when src == t && bytes == t.data && base = off ->
    p
  | No_pin | Pin _ -> Pin { src = t; bytes = t.data; base = off }

let unpin = function
  | Pin { src; bytes; _ } when src.data == bytes -> src.pins <- src.pins - 1
  | No_pin | Pin _ -> ()

let write_pin t ~off p ~src_off ~len =
  check t ~off ~len "Membuf.write_pin";
  (match p with
  | Pin { bytes; base; _ } when len > 0 ->
    (* the bytes of an unwritten source are empty: they read as zeros *)
    if Bytes.length bytes > 0 then
      Bytes.blit bytes (base + src_off) (materialize t) off len
    else if written t then Bytes.fill (materialize t) off len '\000'
  | No_pin | Pin _ -> ());
  unpin p

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
