type t = { id : int; node : Fractos_net.Node.t; data : Bytes.t }

let next_id = ref 0

let create ~node size =
  if size < 0 then invalid_arg "Membuf.create: negative size";
  incr next_id;
  { id = !next_id; node; data = Bytes.make size '\000' }

let size t = Bytes.length t.data
let write t ~off b = Bytes.blit b 0 t.data off (Bytes.length b)
let read t ~off ~len = Bytes.sub t.data off len

let blit ~src ~src_off ~dst ~dst_off ~len =
  Bytes.blit src.data src_off dst.data dst_off len

let set t i c = Bytes.set t.data i c

(* Eight bytes per step: kernels compare whole images with this, once per
   image per request. *)
let equal_range a b ~off ~len =
  if off < 0 || len < 0 || off + len > size a || off + len > size b then
    invalid_arg "Membuf.equal_range";
  let stop = off + len in
  let rec bytes i =
    i >= stop || (Bytes.get a.data i = Bytes.get b.data i && bytes (i + 1))
  in
  let rec words i =
    if i + 8 > stop then bytes i
    else
      Bytes.get_int64_ne a.data i = Bytes.get_int64_ne b.data i
      && words (i + 8)
  in
  words off

let fill t c = Bytes.fill t.data 0 (Bytes.length t.data) c

let pp fmt t =
  Format.fprintf fmt "membuf#%d(%dB@%s)" t.id (Bytes.length t.data)
    t.node.Fractos_net.Node.name
