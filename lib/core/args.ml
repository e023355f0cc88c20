type imm = bytes

let of_int v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let is_int b = Bytes.length b = 8

let to_int b =
  if not (is_int b) then invalid_arg "Args.to_int: not an int immediate";
  Int64.to_int (Bytes.get_int64_le b 0)

let of_string s = Bytes.of_string s
let to_string b = Bytes.to_string b

