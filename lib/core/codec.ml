type addr = State.addr

let addr_size = 16

(* little-endian fixed-width writers *)
let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  put_u8 b v;
  put_u8 b (v lsr 8)

let put_u32 b v =
  put_u16 b v;
  put_u16 b (v lsr 16)

let put_u64 b v =
  put_u32 b v;
  put_u32 b (v lsr 32)

type error = Truncated of { off : int; need : int }

let ( let* ) = Result.bind

(* [need] bytes at [off], or the typed error if the input ends first *)
let check s off need =
  if off < 0 || off + need > String.length s then
    Error (Truncated { off; need })
  else Ok ()

(* little-endian fixed-width readers *)
let rec le s off n =
  if n = 0 then 0 else Char.code s.[off] lor (le s (off + 1) (n - 1) lsl 8)

let get_le n s off =
  let* () = check s off n in
  Ok (le s off n, off + n)

let get_u8 = get_le 1
let get_u16 = get_le 2
let get_u32 = get_le 4
let get_u64 = get_le 8

let get_sub s off len =
  let* () = check s off len in
  Ok (String.sub s off len, off + len)

(* a u16 count, then that many [item]s *)
let get_list item s off =
  let* n, off = get_u16 s off in
  let rec go acc off i =
    if i = n then Ok (List.rev acc, off)
    else
      let* x, off = item s off in
      go (x :: acc) off (i + 1)
  in
  go [] off 0

(* ------------------------------------------------------------------ *)

let encode_addr b (a : addr) =
  put_u32 b a.State.a_ctrl;
  put_u32 b a.State.a_epoch;
  put_u64 b a.State.a_oid

let decode_addr s off =
  let* a_ctrl, off = get_u32 s off in
  let* a_epoch, off = get_u32 s off in
  let* a_oid, off = get_u64 s off in
  Ok ({ State.a_ctrl; a_epoch; a_oid }, off)

let encode_perms b (p : Perms.t) =
  put_u8 b ((if p.Perms.read then 1 else 0) lor if p.Perms.write then 2 else 0)

let decode_perms s off =
  let* v, off = get_u8 s off in
  Ok ({ Perms.read = v land 1 <> 0; write = v land 2 <> 0 }, off)

let encode_imm b (imm : Args.imm) =
  put_u32 b (Bytes.length imm);
  Buffer.add_bytes b imm

let decode_imm s off =
  let* len, off = get_u32 s off in
  let* imm, off = get_sub s off len in
  Ok (Bytes.of_string imm, off)

let encode_imms b imms =
  put_u16 b (List.length imms);
  List.iter (encode_imm b) imms

let decode_imms = get_list decode_imm

let encode_caps b caps =
  put_u16 b (List.length caps);
  List.iter
    (fun (addr, monitored) ->
      encode_addr b addr;
      put_u8 b (if monitored then 1 else 0))
    caps

let decode_cap s off =
  let* addr, off = decode_addr s off in
  let* m, off = get_u8 s off in
  Ok ((addr, m <> 0), off)

let decode_caps = get_list decode_cap

let encode_string b s =
  put_u16 b (String.length s);
  Buffer.add_string b s

let decode_string s off =
  let* len, off = get_u16 s off in
  get_sub s off len

let encode_request b ~tag ~target ~imms ~caps =
  encode_string b tag;
  encode_addr b target;
  encode_imms b imms;
  encode_caps b caps

let decode_request s off =
  let* tag, off = decode_string s off in
  let* target, off = decode_addr s off in
  let* imms, off = decode_imms s off in
  let* caps, off = decode_caps s off in
  Ok ((tag, target, imms, caps), off)

let encode_delivery b (d : State.delivery) =
  encode_string b d.State.d_tag;
  encode_imms b d.State.d_imms;
  put_u16 b (List.length d.State.d_caps);
  List.iter (fun cid -> put_u32 b cid) d.State.d_caps

let decode_delivery s off =
  let* d_tag, off = decode_string s off in
  let* d_imms, off = decode_imms s off in
  let* d_caps, off = get_list get_u32 s off in
  Ok ({ State.d_tag; d_imms; d_caps }, off)

(* ------------------------------------------------------------------ *)
(* Sizes (must agree with the encoders; checked by property tests)      *)
(* ------------------------------------------------------------------ *)

let imms_size imms =
  2 + List.fold_left (fun acc i -> acc + 4 + Bytes.length i) 0 imms

let caps_size n = n * (addr_size + 1)

let request_size ~tag ~imms ~ncaps =
  2 + String.length tag + addr_size + imms_size imms + 2 + caps_size ncaps
