(* A minimal recursive-descent JSON reader and the one JSON string
   writer. The image bakes in no JSON library, and every JSON this repo
   consumes is one it also emits (BENCH_*.json, bench/baselines/*.json),
   so a small strict parser is both sufficient and keeps the gate/diff
   tooling dependency-free. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Bytes >= 0x80 pass through, so UTF-8 input stays UTF-8. *)
let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"';
  Buffer.contents b

exception Bad of string

type state = { src : string; mutable pos : int }

let error st msg = raise (Bad (Printf.sprintf "%s at byte %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> error st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some 'n' -> advance st; Buffer.add_char b '\n'; go ()
      | Some 't' -> advance st; Buffer.add_char b '\t'; go ()
      | Some 'r' -> advance st; Buffer.add_char b '\r'; go ()
      | Some 'b' -> advance st; Buffer.add_char b '\b'; go ()
      | Some 'f' -> advance st; Buffer.add_char b '\012'; go ()
      | Some 'u' ->
        (* \uXXXX: decode the BMP code point as UTF-8 (surrogate pairs
           are not expected in our own output; lone surrogates decode as
           replacement bytes rather than failing the whole file) *)
        advance st;
        if st.pos + 4 > String.length st.src then error st "bad \\u escape";
        let hex = String.sub st.src st.pos 4 in
        st.pos <- st.pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | None -> error st "bad \\u escape"
        | Some cp ->
          if cp < 0x80 then Buffer.add_char b (Char.chr cp)
          else if cp < 0x800 then begin
            Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
          end);
        go ()
      | Some (('"' | '\\' | '/') as c) -> advance st; Buffer.add_char b c; go ()
      | Some c -> error st (Printf.sprintf "bad escape \\%c" c)
      | None -> error st "unterminated escape")
    | Some c ->
      advance st;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> num_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> error st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin advance st; Obj [] end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; members ((k, v) :: acc)
        | Some '}' -> advance st; List.rev ((k, v) :: acc)
        | _ -> error st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin advance st; Arr [] end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; elements (v :: acc)
        | Some ']' -> advance st; List.rev (v :: acc)
        | _ -> error st "expected ',' or ']'"
      in
      Arr (elements [])
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { src = s; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
    else Ok v
  with Bad msg -> Error msg

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated")
  | s -> ( match parse s with Ok v -> Ok v | Error e -> Error (path ^ ": " ^ e))

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_float = function Num f -> Some f | Bool _ | Str _ | Null | Arr _ | Obj _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let rec path keys v =
  match keys with
  | [] -> Some v
  | k :: tl -> ( match member k v with Some v' -> path tl v' | None -> None)

let number_at keys v = Option.bind (path keys v) to_float
let string_at keys v = Option.bind (path keys v) to_string
