type cls = Control | Data

type counter = { mutable msgs : int; mutable bytes : int }

type t = {
  all : counter;
  net : counter;
  net_control : counter;
  net_data : counter;
  links : (string * string, counter) Hashtbl.t;
  size_buckets : int array; (* log2 histogram of network payload sizes *)
}

let fresh () = { msgs = 0; bytes = 0 }

let n_buckets = 32

let create () =
  {
    all = fresh ();
    net = fresh ();
    net_control = fresh ();
    net_data = fresh ();
    links = Hashtbl.create 16;
    size_buckets = Array.make n_buckets 0;
  }

let bucket_of_size bytes =
  let rec go b bound =
    if bytes <= bound || b = n_buckets - 1 then b else go (b + 1) (bound * 2)
  in
  go 0 1

let bump c bytes =
  c.msgs <- c.msgs + 1;
  c.bytes <- c.bytes + bytes

let record t ~src ~dst ~cls ~bytes ~on_network =
  bump t.all bytes;
  if on_network then begin
    bump t.net bytes;
    let b = bucket_of_size bytes in
    t.size_buckets.(b) <- t.size_buckets.(b) + 1;
    (match cls with
    | Control -> bump t.net_control bytes
    | Data -> bump t.net_data bytes);
    let key = (src.Node.name, dst.Node.name) in
    let c =
      match Hashtbl.find_opt t.links key with
      | Some c -> c
      | None ->
        let c = fresh () in
        Hashtbl.add t.links key c;
        c
    in
    bump c bytes
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
  Array.fill t.size_buckets 0 n_buckets 0;
  Hashtbl.reset t.links

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

let per_link t =
  Hashtbl.fold (fun k c acc -> (k, (c.msgs, c.bytes)) :: acc) t.links []
  |> List.sort compare

let size_histogram t =
  let out = ref [] in
  let bound = ref 1 in
  for b = 0 to n_buckets - 1 do
    if t.size_buckets.(b) > 0 then out := (!bound, t.size_buckets.(b)) :: !out;
    bound := !bound * 2
  done;
  List.rev !out

let pp_census fmt c =
  Format.fprintf fmt
    "@[<v>network messages: %d (control %d, data %d)@,\
     network bytes: %d (control %d, data %d)@,\
     all messages (incl. local): %d, bytes %d@]"
    c.net_messages c.net_control_messages c.net_data_messages c.net_bytes
    c.net_control_bytes c.net_data_bytes c.messages c.bytes
