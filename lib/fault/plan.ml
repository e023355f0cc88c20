type event =
  | Crash of { at : Sim.Time.t; ctrl : int }
  | Reboot of { at : Sim.Time.t; ctrl : int }
  | Partition of { from_ : Sim.Time.t; until : Sim.Time.t; island : int list }
  | Stall of { at : Sim.Time.t; until : Sim.Time.t; node : int }

type t = {
  pl_seed : int;
  pl_spec : Spec.t;
  pl_events : event list;
  pl_lossy : (int * int) list;
  pl_fault_seed : int;
}

let start_of = function
  | Crash { at; _ } | Reboot { at; _ } | Stall { at; _ } -> at
  | Partition { from_; _ } -> from_

(* Uniform draw in [0, horizon), snapped to a 10ns grid so plan listings stay
   readable without affecting determinism. *)
let draw_time g ~horizon =
  if horizon <= 0 then 0 else Sim.Prng.int g horizon / 10 * 10

let generate ~spec ~seed ~n_ctrls ~n_nodes =
  let g = Sim.Prng.create ~seed in
  let horizon = spec.Spec.s_horizon in
  let events = ref [] in
  let add e = events := e :: !events in
  (* Controller crashes (optionally followed by a reboot). Draws happen even
     for clamped counts only when the count itself is positive, so the stream
     consumed depends only on (spec, topology) — both plan inputs. *)
  if n_ctrls > 0 then
    for _ = 1 to spec.Spec.s_crashes do
      let ctrl = Sim.Prng.int g n_ctrls in
      let at = draw_time g ~horizon in
      add (Crash { at; ctrl });
      if spec.Spec.s_reboot_after > 0 then
        add (Reboot { at = at + spec.Spec.s_reboot_after; ctrl })
    done;
  (* Partitions: isolate a random non-empty strict subset of nodes. *)
  if n_nodes >= 2 then
    for _ = 1 to spec.Spec.s_partitions do
      let size = 1 + Sim.Prng.int g (n_nodes - 1) in
      (* Deterministic Fisher–Yates prefix selection. *)
      let idx = Array.init n_nodes (fun i -> i) in
      for i = 0 to size - 1 do
        let j = i + Sim.Prng.int g (n_nodes - i) in
        let tmp = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- tmp
      done;
      let island =
        Array.sub idx 0 size |> Array.to_list |> List.sort compare
      in
      let from_ = draw_time g ~horizon in
      add (Partition { from_; until = from_ + spec.Spec.s_partition_len; island })
    done;
  if n_nodes > 0 then
    for _ = 1 to spec.Spec.s_stalls do
      let node = Sim.Prng.int g n_nodes in
      let at = draw_time g ~horizon in
      add (Stall { at; until = at + spec.Spec.s_stall_len; node })
    done;
  let lossy = ref [] in
  if n_nodes >= 2 then
    for _ = 1 to spec.Spec.s_lossy_links do
      let a = Sim.Prng.int g n_nodes in
      let b = Sim.Prng.int g (n_nodes - 1) in
      let b = if b >= a then b + 1 else b in
      let pair = (min a b, max a b) in
      if not (List.mem pair !lossy) then lossy := pair :: !lossy
    done;
  let fault_seed = Int64.to_int (Sim.Prng.int64 g) land max_int in
  {
    pl_seed = seed;
    pl_spec = spec;
    pl_events =
      List.stable_sort (fun a b -> compare (start_of a) (start_of b))
        (List.rev !events);
    pl_lossy = List.rev !lossy;
    pl_fault_seed = fault_seed;
  }

let line = function
  | Crash { at; ctrl } ->
      Printf.sprintf "t=%-8s crash   ctrl=%d" (Sim.Time.to_string at) ctrl
  | Reboot { at; ctrl } ->
      Printf.sprintf "t=%-8s reboot  ctrl=%d" (Sim.Time.to_string at) ctrl
  | Partition { from_; until; island } ->
      Printf.sprintf "t=%-8s partition until=%s island=[%s]"
        (Sim.Time.to_string from_) (Sim.Time.to_string until)
        (String.concat ";" (List.map string_of_int island))
  | Stall { at; until; node } ->
      Printf.sprintf "t=%-8s stall   node=%d until=%s" (Sim.Time.to_string at)
        node (Sim.Time.to_string until)

let to_lines t =
  List.map line t.pl_events
  @ List.map
      (fun (a, b) ->
        Printf.sprintf "lossy link nodes=(%d,%d) drop=%g" a b
          t.pl_spec.Spec.s_lossy_drop)
      t.pl_lossy
