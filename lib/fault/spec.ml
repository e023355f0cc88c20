type t = {
  s_drop : float;
  s_dup : float;
  s_delay_p : float;
  s_delay : Sim.Time.t;
  s_crashes : int;
  s_reboot_after : Sim.Time.t;
  s_partitions : int;
  s_partition_len : Sim.Time.t;
  s_stalls : int;
  s_stall_len : Sim.Time.t;
  s_lossy_links : int;
  s_lossy_drop : float;
  s_horizon : Sim.Time.t;
}

let none =
  {
    s_drop = 0.;
    s_dup = 0.;
    s_delay_p = 0.;
    s_delay = 0;
    s_crashes = 0;
    s_reboot_after = 0;
    s_partitions = 0;
    s_partition_len = 0;
    s_stalls = 0;
    s_stall_len = 0;
    s_lossy_links = 0;
    s_lossy_drop = 0.;
    s_horizon = Sim.Time.ms 4;
  }

let default =
  {
    s_drop = 0.005;
    s_dup = 0.01;
    s_delay_p = 0.02;
    s_delay = Sim.Time.us 30;
    s_crashes = 1;
    s_reboot_after = Sim.Time.us 400;
    s_partitions = 1;
    s_partition_len = Sim.Time.us 250;
    s_stalls = 1;
    s_stall_len = Sim.Time.us 150;
    s_lossy_links = 1;
    s_lossy_drop = 0.05;
    s_horizon = Sim.Time.ms 4;
  }

let lossless s =
  s.s_drop = 0. && s.s_partitions = 0
  && (s.s_lossy_links = 0 || s.s_lossy_drop = 0.)

(* Durations are rendered with the largest unit that divides them exactly, so
   that [of_string (to_string s) = s] holds bit-for-bit. *)
let time_to_string (t : Sim.Time.t) =
  if t = 0 then "0"
  else if t mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (t / 1_000_000_000)
  else if t mod 1_000_000 = 0 then Printf.sprintf "%dms" (t / 1_000_000)
  else if t mod 1_000 = 0 then Printf.sprintf "%dus" (t / 1_000)
  else Printf.sprintf "%dns" t

(* [n] units of [unit] ns each; an [n] above [max_int / unit] would
   wrap when scaled to nanoseconds, so it is rejected like any other bad
   duration. *)
let time_of_string str =
  let num suffix unit =
    let body = String.sub str 0 (String.length str - String.length suffix) in
    match int_of_string_opt body with
    | Some n when n >= 0 && n <= max_int / unit -> Some (n * unit)
    | _ -> None
  in
  let ends s = String.length str > String.length s && Filename.check_suffix str s in
  if str = "0" then Some 0
  else if ends "ns" then num "ns" 1
  else if ends "us" then num "us" (Sim.Time.us 1)
  else if ends "ms" then num "ms" (Sim.Time.ms 1)
  else if ends "s" then num "s" (Sim.Time.s 1)
  else None

let fields s =
  [
    ("drop", `F s.s_drop);
    ("dup", `F s.s_dup);
    ("delayp", `F s.s_delay_p);
    ("delay", `T s.s_delay);
    ("crash", `I s.s_crashes);
    ("reboot", `T s.s_reboot_after);
    ("part", `I s.s_partitions);
    ("partlen", `T s.s_partition_len);
    ("stall", `I s.s_stalls);
    ("stalllen", `T s.s_stall_len);
    ("links", `I s.s_lossy_links);
    ("linkdrop", `F s.s_lossy_drop);
    ("horizon", `T s.s_horizon);
  ]

let to_string s =
  fields s
  |> List.map (fun (k, v) ->
         let v =
           match v with
           | `F f -> Printf.sprintf "%g" f
           | `I i -> string_of_int i
           | `T t -> time_to_string t
         in
         k ^ "=" ^ v)
  |> String.concat ","

let set_field s k v =
  let float_v () =
    match float_of_string_opt v with
    | Some f when f >= 0. && f <= 1. -> Ok f
    | _ -> Error (Printf.sprintf "%s: expected a probability in [0,1], got %S" k v)
  in
  let int_v () =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "%s: expected a non-negative int, got %S" k v)
  in
  let time_v () =
    match time_of_string v with
    | Some t -> Ok t
    | None ->
        Error
          (Printf.sprintf "%s: expected a duration (e.g. 30us, 2ms), got %S" k v)
  in
  let ( let* ) = Result.bind in
  match k with
  | "drop" ->
      let* f = float_v () in
      Ok { s with s_drop = f }
  | "dup" ->
      let* f = float_v () in
      Ok { s with s_dup = f }
  | "delayp" ->
      let* f = float_v () in
      Ok { s with s_delay_p = f }
  | "delay" ->
      let* t = time_v () in
      Ok { s with s_delay = t }
  | "crash" ->
      let* i = int_v () in
      Ok { s with s_crashes = i }
  | "reboot" ->
      let* t = time_v () in
      Ok { s with s_reboot_after = t }
  | "part" ->
      let* i = int_v () in
      Ok { s with s_partitions = i }
  | "partlen" ->
      let* t = time_v () in
      Ok { s with s_partition_len = t }
  | "stall" ->
      let* i = int_v () in
      Ok { s with s_stalls = i }
  | "stalllen" ->
      let* t = time_v () in
      Ok { s with s_stall_len = t }
  | "links" ->
      let* i = int_v () in
      Ok { s with s_lossy_links = i }
  | "linkdrop" ->
      let* f = float_v () in
      Ok { s with s_lossy_drop = f }
  | "horizon" ->
      let* t = time_v () in
      Ok { s with s_horizon = t }
  | _ -> Error (Printf.sprintf "unknown fault-spec key %S" k)

let of_string str =
  let str = String.trim str in
  if str = "" || str = "default" then Ok default
  else if str = "none" then Ok none
  else
    String.split_on_char ',' str
    |> List.fold_left
         (fun acc item ->
           Result.bind acc (fun s ->
               match String.index_opt item '=' with
               | None ->
                   Error (Printf.sprintf "malformed fault-spec item %S" item)
               | Some i ->
                   let k = String.trim (String.sub item 0 i) in
                   let v =
                     String.trim
                       (String.sub item (i + 1) (String.length item - i - 1))
                   in
                   set_field s k v))
         (Ok none)
