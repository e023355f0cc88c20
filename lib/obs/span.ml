type id = int

type kind = Complete | Instant

type t = {
  sp_id : id;
  sp_parent : id;
  sp_name : string;
  sp_node : string;
  sp_kind : kind;
  sp_start : Sim.Time.t;
  mutable sp_end : Sim.Time.t;
  mutable sp_finished : bool;
  mutable sp_attrs : (string * string) list;
}

(* One collector per process: engines do not nest and runs are
   deterministic, so a module singleton keeps every instrumentation site
   free of plumbing. Disabled (the default) every entry point is a cheap
   bool check. *)
type state = {
  mutable s_enabled : bool;
  mutable s_limit : int;
  mutable s_next_id : int;
  s_collected : t Queue.t;
  s_index : (int, t) Hashtbl.t;
  mutable s_dropped : int;
  s_entered : (int, int) Hashtbl.t; (* [enter]'s open spans, see there *)
  s_due : (t * Sim.Time.t) Queue.t; (* closed ahead of the clock *)
}

let st =
  {
    s_enabled = false;
    s_limit = 500_000;
    s_next_id = 1;
    s_collected = Queue.create ();
    s_index = Hashtbl.create 1024;
    s_dropped = 0;
    s_entered = Hashtbl.create 64;
    s_due = Queue.create ();
  }

let enabled () = st.s_enabled
let set_enabled b = st.s_enabled <- b
let set_limit n = st.s_limit <- max 1 n
let get_limit () = st.s_limit

let reset () =
  Queue.clear st.s_collected;
  Hashtbl.reset st.s_index;
  Hashtbl.reset st.s_entered;
  Queue.clear st.s_due;
  st.s_next_id <- 1;
  st.s_dropped <- 0

let current () = Sim.Engine.get_ctx ()

let add kind ?parent ?(attrs = []) ?(node = "") ~name () =
  if not st.s_enabled then 0
  else if Queue.length st.s_collected >= st.s_limit then begin
    st.s_dropped <- st.s_dropped + 1;
    0
  end
  else begin
    let parent =
      match parent with Some p -> p | None -> Sim.Engine.get_ctx ()
    in
    let id = st.s_next_id in
    st.s_next_id <- id + 1;
    let now = Sim.Engine.now () in
    let sp =
      {
        sp_id = id;
        sp_parent = parent;
        sp_name = name;
        sp_node = node;
        sp_kind = kind;
        sp_start = now;
        sp_end = now;
        sp_finished = (kind = Instant);
        sp_attrs = attrs;
      }
    in
    Queue.add sp st.s_collected;
    Hashtbl.replace st.s_index id sp;
    id
  end

let start ?parent ?attrs ?node ~name () =
  add Complete ?parent ?attrs ?node ~name ()

let instant ?attrs ?node ~name () =
  ignore (add Instant ?attrs ?node ~name ())

let set_attr id k v =
  if id <> 0 then
    match Hashtbl.find_opt st.s_index id with
    | Some sp -> sp.sp_attrs <- (k, v) :: sp.sp_attrs
    | None -> ()

let close sp at attrs =
  if not sp.sp_finished then begin
    sp.sp_finished <- true;
    sp.sp_end <- at;
    if attrs <> [] then sp.sp_attrs <- attrs @ sp.sp_attrs
  end

let finish ?(attrs = []) id =
  match Hashtbl.find_opt st.s_index id with
  | None -> ()
  | Some sp -> close sp (Sim.Engine.now ()) attrs

(* A span closed ahead of the clock reads as open until the clock gets
   there: [settle] closes the due ones before [all] reads the spans, and
   all of them after a run, when every delivery has run. *)
let finish_at id at =
  match Hashtbl.find_opt st.s_index id with
  | Some sp -> Queue.add (sp, at) st.s_due
  | None -> ()

let settle () =
  let now =
    match Sim.Engine.now () with t -> t | exception Failure _ -> max_int
  in
  for _ = 1 to Queue.length st.s_due do
    let ((sp, at) as due) = Queue.pop st.s_due in
    if at <= now then close sp at [] else Queue.add due st.s_due
  done

let with_ ?attrs ?node ~name f =
  if not st.s_enabled then f ()
  else begin
    let id = start ?attrs ?node ~name () in
    let saved = Sim.Engine.get_ctx () in
    Sim.Engine.set_ctx id;
    Fun.protect
      ~finally:(fun () ->
        Sim.Engine.set_ctx saved;
        finish id)
      f
  end

(* A step closes the ambient span with no record of its own: [enter]
   keeps the context to restore under the span's id ([lnot] of it for a
   tail), and [leave] takes it back. A span the limit drops still takes
   an id, which nothing collected has, for that entry. *)
let enter ~tail ~node ~name attrs =
  if st.s_enabled then begin
    let parent = Sim.Engine.get_ctx () in
    let id =
      match start ~attrs ~node ~name () with
      | 0 ->
        st.s_next_id <- st.s_next_id + 1;
        st.s_next_id - 1
      | id -> id
    in
    Hashtbl.replace st.s_entered id (if tail then lnot parent else parent);
    Sim.Engine.set_ctx id
  end

let rec leave () =
  let id = Sim.Engine.get_ctx () in
  if id <> 0 then
    match Hashtbl.find st.s_entered id with
    | exception Not_found -> ()
    | saved ->
      Hashtbl.remove st.s_entered id;
      finish id;
      Sim.Engine.set_ctx (if saved < 0 then lnot saved else saved);
      if saved < 0 then leave ()

let all () =
  settle ();
  List.of_seq (Queue.to_seq st.s_collected)

let count () = Queue.length st.s_collected
let dropped () = st.s_dropped
let find id = Hashtbl.find_opt st.s_index id

let warn_if_truncated path =
  if dropped () > 0 then
    Printf.eprintf
      "warning: %s is incomplete: trace truncated (%d spans dropped at limit \
       %d; raise with Span.set_limit)\n%!"
      path (dropped ()) (get_limit ())

let rec root_of id =
  match Hashtbl.find_opt st.s_index id with
  | Some sp when sp.sp_parent <> 0 -> root_of sp.sp_parent
  | _ -> id

let prune keep =
  let kept = Queue.create () in
  let removed = ref 0 in
  Queue.iter
    (fun sp ->
      if keep sp then Queue.add sp kept
      else begin
        Hashtbl.remove st.s_index sp.sp_id;
        incr removed
      end)
    st.s_collected;
  Queue.clear st.s_collected;
  Queue.transfer kept st.s_collected;
  !removed

type layer = Ctrl | Copy | Fabric | Gpu | Nvme | Adaptor | Client

let layer name =
  let is prefix = String.starts_with ~prefix name in
  if is "fabric." then Fabric
  else if is "ctrl.copy" then Copy
  else if is "ctrl." then Ctrl
  else if is "gpu." then Gpu
  else if is "nvme." then Nvme
  else if is "adaptor." then Adaptor
  else Client

let layer_name = function
  | Ctrl -> "ctrl"
  | Copy -> "copy"
  | Fabric -> "fabric"
  | Gpu -> "gpu"
  | Nvme -> "nvme"
  | Adaptor -> "device"
  | Client -> "client"

let queued sp =
  match List.assoc_opt "q" sp.sp_attrs with
  | Some v -> Option.value ~default:0 (int_of_string_opt v)
  | None -> 0
