let syscall_fixed = 48
let response = 32
let credit = 16
let peer_fixed = 64
let chunk_header = 48
let monitor_cb = 32

let syscall ?(imms = []) ?(caps = 0) () =
  syscall_fixed + Codec.imms_size imms + Codec.caps_size caps

let invoke ~imms ~caps = peer_fixed + Codec.imms_size imms + Codec.caps_size caps
