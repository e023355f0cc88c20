(* Round-trip and size-agreement tests for the binary wire codec. *)

open Fractos_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* generators *)

let addr_gen =
  QCheck.Gen.(
    map3
      (fun c e o -> { State.a_ctrl = c; a_epoch = e; a_oid = o })
      (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xfffffff))

let imm_gen =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:printable (int_bound 64)))

let imms_gen = QCheck.Gen.(list_size (int_bound 6) imm_gen)

let caps_gen =
  QCheck.Gen.(list_size (int_bound 6) (pair addr_gen bool))

let tag_gen = QCheck.Gen.(string_size ~gen:printable (int_range 1 24))

let encode_to_string f v =
  let b = Buffer.create 64 in
  f b v;
  Buffer.contents b

let decoded = function
  | Ok v -> v
  | Error (Codec.Truncated { off; need }) ->
    Alcotest.failf "valid encoding failed to decode: %d bytes at %d" need off

(* ------------------------------------------------------------------ *)
(* Round trips                                                        *)
(* ------------------------------------------------------------------ *)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr roundtrip" ~count:200 (QCheck.make addr_gen)
    (fun a ->
      let s = encode_to_string Codec.encode_addr a in
      let a', off = decoded (Codec.decode_addr s 0) in
      State.addr_equal a a' && off = String.length s && off = Codec.addr_size)

let prop_perms_roundtrip =
  QCheck.Test.make ~name:"perms roundtrip" ~count:20
    (QCheck.make
       QCheck.Gen.(oneofl [ Perms.rw; Perms.ro; Perms.wo; Perms.none ]))
    (fun p ->
      let s = encode_to_string Codec.encode_perms p in
      let p', off = decoded (Codec.decode_perms s 0) in
      p = p' && off = 1)

let prop_imms_roundtrip =
  QCheck.Test.make ~name:"imms roundtrip + size agreement" ~count:200
    (QCheck.make imms_gen) (fun imms ->
      let s = encode_to_string Codec.encode_imms imms in
      let imms', off = decoded (Codec.decode_imms s 0) in
      List.length imms = List.length imms'
      && List.for_all2 Bytes.equal imms imms'
      && off = String.length s
      && String.length s = Codec.imms_size imms)

let prop_caps_roundtrip =
  QCheck.Test.make ~name:"caps roundtrip + size agreement" ~count:200
    (QCheck.make caps_gen) (fun caps ->
      let s = encode_to_string Codec.encode_caps caps in
      let caps', off = decoded (Codec.decode_caps s 0) in
      List.length caps = List.length caps'
      && List.for_all2
           (fun (a, m) (a', m') -> State.addr_equal a a' && m = m')
           caps caps'
      && off = String.length s
      && String.length s = 2 + Codec.caps_size (List.length caps))

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request descriptor roundtrip + size" ~count:200
    (QCheck.make QCheck.Gen.(pair (pair tag_gen addr_gen) (pair imms_gen caps_gen)))
    (fun ((tag, target), (imms, caps)) ->
      let b = Buffer.create 64 in
      Codec.encode_request b ~tag ~target ~imms ~caps;
      let s = Buffer.contents b in
      let (tag', target', imms', caps'), off =
        decoded (Codec.decode_request s 0)
      in
      tag = tag'
      && State.addr_equal target target'
      && List.for_all2 Bytes.equal imms imms'
      && List.for_all2
           (fun (a, m) (a', m') -> State.addr_equal a a' && m = m')
           caps caps'
      && off = String.length s
      && String.length s
         = Codec.request_size ~tag ~imms ~ncaps:(List.length caps))

let prop_delivery_roundtrip =
  QCheck.Test.make ~name:"delivery roundtrip" ~count:200
    (QCheck.make
       QCheck.Gen.(
         map3
           (fun tag imms caps -> { State.d_tag = tag; d_imms = imms; d_caps = caps })
           tag_gen imms_gen
           (list_size (int_bound 6) (int_bound 0xffff))))
    (fun d ->
      let s = encode_to_string Codec.encode_delivery d in
      let d', off = decoded (Codec.decode_delivery s 0) in
      d.State.d_tag = d'.State.d_tag
      && List.for_all2 Bytes.equal d.State.d_imms d'.State.d_imms
      && d.State.d_caps = d'.State.d_caps
      && off = String.length s)

(* concatenated messages decode in sequence *)
let test_streamed_decoding () =
  let b = Buffer.create 64 in
  let a1 = { State.a_ctrl = 1; a_epoch = 2; a_oid = 3 } in
  let a2 = { State.a_ctrl = 9; a_epoch = 8; a_oid = 7 } in
  Codec.encode_addr b a1;
  Codec.encode_imms b [ Args.of_int 42 ];
  Codec.encode_addr b a2;
  let s = Buffer.contents b in
  let a1', off = decoded (Codec.decode_addr s 0) in
  let imms, off = decoded (Codec.decode_imms s off) in
  let a2', off = decoded (Codec.decode_addr s off) in
  check_bool "a1" true (State.addr_equal a1 a1');
  check_int "imm" 42 (Args.to_int (List.hd imms));
  check_bool "a2" true (State.addr_equal a2 a2');
  check_int "consumed all" (String.length s) off

let test_truncation_detected () =
  let b = Buffer.create 16 in
  Codec.encode_imms b [ Bytes.of_string "hello" ];
  let s = Buffer.contents b in
  let truncated = String.sub s 0 (String.length s - 2) in
  match Codec.decode_imms truncated 0 with
  | Ok _ -> Alcotest.fail "truncated input decoded"
  | Error (Codec.Truncated { off; need }) ->
    (* the 5-byte payload starts after the u16 count and u32 length *)
    check_int "at the payload" 6 off;
    check_int "payload length" 5 need

(* Malformed input is a typed [Error], never an exception: every strict
   prefix of a valid encoding falls short of some field, and random bytes
   either decode within their length or fail typed. *)
let decoders : (string * (string -> int -> (int, Codec.error) result)) list =
  let offset decode s off = Result.map snd (decode s off) in
  [
    ("addr", offset Codec.decode_addr);
    ("perms", offset Codec.decode_perms);
    ("imms", offset Codec.decode_imms);
    ("caps", offset Codec.decode_caps);
    ("request", offset Codec.decode_request);
    ("delivery", offset Codec.decode_delivery);
  ]

let encoding_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> ("addr", encode_to_string Codec.encode_addr a)) addr_gen;
        map (fun i -> ("imms", encode_to_string Codec.encode_imms i)) imms_gen;
        map (fun c -> ("caps", encode_to_string Codec.encode_caps c)) caps_gen;
        map
          (fun ((tag, target), (imms, caps)) ->
            let b = Buffer.create 64 in
            Codec.encode_request b ~tag ~target ~imms ~caps;
            ("request", Buffer.contents b))
          (pair (pair tag_gen addr_gen) (pair imms_gen caps_gen));
        map3
          (fun tag imms caps ->
            ( "delivery",
              encode_to_string Codec.encode_delivery
                { State.d_tag = tag; d_imms = imms; d_caps = caps } ))
          tag_gen imms_gen
          (list_size (int_bound 6) (int_bound 0xffff));
      ])

let prop_prefixes_are_errors =
  QCheck.Test.make ~name:"strict prefixes decode to Error" ~count:200
    (QCheck.make ~print:(fun (k, s) -> k ^ " " ^ String.escaped s) encoding_gen)
    (fun (kind, s) ->
      let decode = List.assoc kind decoders in
      decode s 0 = Ok (String.length s)
      && List.for_all
           (fun k -> Result.is_error (decode (String.sub s 0 k) 0))
           (List.init (String.length s) Fun.id))

let prop_random_bytes_never_raise =
  QCheck.Test.make ~name:"random bytes never raise" ~count:500
    QCheck.(string_of_size Gen.(int_bound 64))
    (fun s ->
      List.for_all
        (fun (_, decode) ->
          match decode s 0 with
          | Ok off -> off <= String.length s
          | Error (Codec.Truncated { off; need }) ->
            off >= 0 && need > 0 && off + need > String.length s)
        decoders)

(* Wire sizes are the codec's sizes plus fixed headers. *)
let test_wire_uses_codec () =
  let imms = [ Args.of_int 1; Args.of_string "xyz" ] in
  check_int "invoke size"
    (Wire.peer_fixed + Codec.imms_size imms + Codec.caps_size 3)
    (Wire.invoke ~imms ~caps:3);
  check_int "syscall size"
    (Wire.syscall_fixed + Codec.imms_size [] + Codec.caps_size 0)
    (Wire.syscall ())

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "fractos_codec"
    [
      ( "roundtrip",
        [
          qtest prop_addr_roundtrip;
          qtest prop_perms_roundtrip;
          qtest prop_imms_roundtrip;
          qtest prop_caps_roundtrip;
          qtest prop_request_roundtrip;
          qtest prop_delivery_roundtrip;
        ] );
      ( "framing",
        [
          Alcotest.test_case "streamed decoding" `Quick test_streamed_decoding;
          Alcotest.test_case "truncation detected" `Quick
            test_truncation_detected;
          Alcotest.test_case "wire sizes from codec" `Quick test_wire_uses_codec;
          qtest prop_prefixes_are_errors;
          qtest prop_random_bytes_never_raise;
        ] );
    ]
