type cls = Control | Data

type counter = { mutable msgs : int; mutable bytes : int }

(* A directed link's counter, named for [per_link]. *)
type link = { l_src : string; l_dst : string; l_c : counter }

type t = {
  all : counter;
  net : counter;
  net_control : counter;
  net_data : counter;
  (* per-link counters by node id, [src * n_ids + dst]; [no_link] where
     the link has carried nothing *)
  mutable links : link array;
  mutable n_ids : int;
}

let fresh () = { msgs = 0; bytes = 0 }
let no_link = { l_src = ""; l_dst = ""; l_c = fresh () }

let create () =
  {
    all = fresh ();
    net = fresh ();
    net_control = fresh ();
    net_data = fresh ();
    links = [||];
    n_ids = 0;
  }

(* Grow the link table to cover node id [id]. *)
let cover t id =
  let n = max (id + 1) (2 * t.n_ids) in
  let links = Array.make (n * n) no_link in
  for s = 0 to t.n_ids - 1 do
    Array.blit t.links (s * t.n_ids) links (s * n) t.n_ids
  done;
  t.links <- links;
  t.n_ids <- n

let link t ~(src : Node.t) ~(dst : Node.t) =
  if src.id >= t.n_ids || dst.id >= t.n_ids then cover t (max src.id dst.id);
  let i = (src.id * t.n_ids) + dst.id in
  let l = t.links.(i) in
  if l != no_link then l.l_c
  else begin
    let l = { l_src = src.name; l_dst = dst.name; l_c = fresh () } in
    t.links.(i) <- l;
    l.l_c
  end

let bump c bytes =
  c.msgs <- c.msgs + 1;
  c.bytes <- c.bytes + bytes

let record t ~src ~dst ~cls ~bytes ~on_network =
  bump t.all bytes;
  if on_network then begin
    bump t.net bytes;
    (match cls with
    | Control -> bump t.net_control bytes
    | Data -> bump t.net_data bytes);
    bump (link t ~src ~dst) bytes
  end

let reset t =
  let zero c =
    c.msgs <- 0;
    c.bytes <- 0
  in
  zero t.all;
  zero t.net;
  zero t.net_control;
  zero t.net_data;
  Array.fill t.links 0 (Array.length t.links) no_link

type census = {
  messages : int;
  bytes : int;
  net_messages : int;
  net_bytes : int;
  net_control_messages : int;
  net_data_messages : int;
  net_control_bytes : int;
  net_data_bytes : int;
}

let census t =
  {
    messages = t.all.msgs;
    bytes = t.all.bytes;
    net_messages = t.net.msgs;
    net_bytes = t.net.bytes;
    net_control_messages = t.net_control.msgs;
    net_data_messages = t.net_data.msgs;
    net_control_bytes = t.net_control.bytes;
    net_data_bytes = t.net_data.bytes;
  }

(* Nodes that share a name share a row, as when links were keyed by
   name. *)
let per_link t =
  let by_name = Hashtbl.create 16 in
  Array.iter
    (fun l ->
      if l != no_link then begin
        let key = (l.l_src, l.l_dst) in
        let m, b =
          Option.value (Hashtbl.find_opt by_name key) ~default:(0, 0)
        in
        Hashtbl.replace by_name key (m + l.l_c.msgs, b + l.l_c.bytes)
      end)
    t.links;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let pp_census fmt c =
  Format.fprintf fmt
    "@[<v>network messages: %d (control %d, data %d)@,\
     network bytes: %d (control %d, data %d)@,\
     all messages (incl. local): %d, bytes %d@]"
    c.net_messages c.net_control_messages c.net_data_messages c.net_bytes
    c.net_control_bytes c.net_data_bytes c.messages c.bytes
