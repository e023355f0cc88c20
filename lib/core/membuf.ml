(* A store is the bytes of one or more buffers and of the staged copy
   chunks that read them; [holders] counts both. A buffer holds exactly
   one store, and [data] is its bytes, kept in a field of their own for
   readers outside Membuf. A store with no bytes (the [unwritten] store
   of every unwritten buffer, and [no_pin]) is never counted, so these
   two constants are never mutated. A store into a buffer whose store
   has another holder first gives the buffer a store of its own, so a
   held store's bytes never change. A zero-size buffer counts as
   written: it has nothing to materialize. *)
type store = { bytes : Bytes.t; mutable holders : int }

type t = {
  id : int;
  node : Fractos_net.Node.t;
  size : int;
  mutable data : Bytes.t;
  mutable store : store;
}

let unwritten = { bytes = Bytes.empty; holders = 0 }

(* Buffer ids are unique within a simulation ([Gpu] keys its
   allocations by them). *)
let next_id = ref 0
let reset_ids () = next_id := 0

let create ~node size =
  if size < 0 then invalid_arg "Membuf.create: negative size";
  incr next_id;
  { id = !next_id; node; size; data = Bytes.empty; store = unwritten }

let size t = t.size
let holders t = t.store.holders
let written t = Bytes.length t.data = t.size
let counted s = Bytes.length s.bytes > 0
let retain s = if counted s then s.holders <- s.holders + 1
let release s = if counted s then s.holders <- s.holders - 1

(* [t] drops its store for [s], whose count already includes [t]. *)
let hold t s =
  release t.store;
  t.store <- s;
  t.data <- s.bytes

let own t bytes = hold t { bytes; holders = 1 }

(* The caller keeps the one holder never released, so any store into
   [t], or into a buffer that adopted its store, copies first. *)
let of_bytes ~node bytes =
  let t = create ~node (Bytes.length bytes) in
  if Bytes.length bytes > 0 then hold t { bytes; holders = 2 };
  t

(* The bytes of [t], ready for a store: allocated zeroed if [t] is
   unwritten, copied if another buffer or a staged chunk holds them. *)
let materialize t =
  if not (written t) then own t (Bytes.make t.size '\000')
  else if t.store.holders > 1 then own t (Bytes.copy t.data);
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

let clear t = hold t unwritten

(* [src]'s count passes to [dst], so a store both held loses one. *)
let move ~src ~dst =
  if src.size <> dst.size then invalid_arg "Membuf.move";
  if src != dst then begin
    let s = src.store in
    src.store <- unwritten;
    src.data <- Bytes.empty;
    hold dst s
  end

let set t i c =
  if i < 0 || i >= t.size then invalid_arg "Membuf.set";
  if c <> '\000' || written t then Bytes.set (materialize t) i c

let fill t c =
  if written t && t.store.holders <= 1 then Bytes.fill t.data 0 t.size c
  else if c <> '\000' || written t then own t (Bytes.make t.size c)

(* Pins. A pin is the store its source held when it was taken, counted
   as one more holder until it is written out or released. *)
type pin = store

let no_pin = { bytes = Bytes.empty; holders = 0 }

let pin t ~off ~len =
  check t ~off ~len "Membuf.pin";
  retain t.store;
  t.store

let unpin = release

let write_pin t ~off p ~src_off ~len ~whole =
  check t ~off ~len "Membuf.write_pin";
  if len > 0 && p != no_pin then begin
    if whole && (not (written t)) && Bytes.length p.bytes = t.size then begin
      (* adopt: [t] reads as the whole source, with no allocation *)
      retain p;
      hold t p
    end;
    (* the bytes of an unwritten source are empty: they read as zeros *)
    if t.store == p && off = src_off then () (* already [t]'s bytes *)
    else if counted p then Bytes.blit p.bytes src_off (materialize t) off len
    else if written t then Bytes.fill (materialize t) off len '\000'
  end;
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
  if off < 0 || len < 0 || off > size a - len || off > size b - len then
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
