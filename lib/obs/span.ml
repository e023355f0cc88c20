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

(* One collector per domain: engines do not nest and runs are
   deterministic, so a domain-local singleton keeps every instrumentation
   site free of plumbing while independent simulations on sibling domains
   (Sim.Domains.map) stay isolated. Disabled (the default) every entry
   point is a cheap bool check. *)
type state = {
  mutable s_enabled : bool;
  mutable s_limit : int;
  mutable s_next_id : int;
  s_collected : t Queue.t;
  s_index : (int, t) Hashtbl.t;
  mutable s_dropped : int;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        s_enabled = false;
        s_limit = 500_000;
        s_next_id = 1;
        s_collected = Queue.create ();
        s_index = Hashtbl.create 1024;
        s_dropped = 0;
      })

let st () = Domain.DLS.get state_key

let enabled () = (st ()).s_enabled
let set_enabled b = (st ()).s_enabled <- b
let set_limit n = (st ()).s_limit <- max 1 n
let get_limit () = (st ()).s_limit

let reset () =
  let s = st () in
  Queue.clear s.s_collected;
  Hashtbl.reset s.s_index;
  s.s_next_id <- 1;
  s.s_dropped <- 0

let current () = Sim.Engine.get_ctx ()

let add kind ?parent ?(attrs = []) ?(node = "") ~name () =
  let s = st () in
  if not s.s_enabled then 0
  else if Queue.length s.s_collected >= s.s_limit then begin
    s.s_dropped <- s.s_dropped + 1;
    0
  end
  else begin
    let parent =
      match parent with Some p -> p | None -> Sim.Engine.get_ctx ()
    in
    let id = s.s_next_id in
    s.s_next_id <- id + 1;
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
    Queue.add sp s.s_collected;
    Hashtbl.replace s.s_index id sp;
    id
  end

let start ?parent ?attrs ?node ~name () =
  add Complete ?parent ?attrs ?node ~name ()

let instant ?attrs ?node ~name () =
  ignore (add Instant ?attrs ?node ~name ())

let set_attr id k v =
  match Hashtbl.find_opt (st ()).s_index id with
  | Some sp -> sp.sp_attrs <- (k, v) :: sp.sp_attrs
  | None -> ()

let finish ?(attrs = []) id =
  match Hashtbl.find_opt (st ()).s_index id with
  | None -> ()
  | Some sp ->
    if not sp.sp_finished then begin
      sp.sp_finished <- true;
      sp.sp_end <- Sim.Engine.now ();
      if attrs <> [] then sp.sp_attrs <- attrs @ sp.sp_attrs
    end

let with_ ?attrs ?node ~name f =
  if not (st ()).s_enabled then f ()
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

let all () = List.of_seq (Queue.to_seq (st ()).s_collected)
let count () = Queue.length (st ()).s_collected
let dropped () = (st ()).s_dropped
let find id = Hashtbl.find_opt (st ()).s_index id

let rec root_of id =
  match Hashtbl.find_opt (st ()).s_index id with
  | Some sp when sp.sp_parent <> 0 -> root_of sp.sp_parent
  | _ -> id

let prune keep =
  let s = st () in
  let kept = Queue.create () in
  let removed = ref 0 in
  Queue.iter
    (fun sp ->
      if keep sp then Queue.add sp kept
      else begin
        Hashtbl.remove s.s_index sp.sp_id;
        incr removed
      end)
    s.s_collected;
  Queue.clear s.s_collected;
  Queue.transfer kept s.s_collected;
  !removed

let pp_span fmt sp =
  Format.fprintf fmt "[%d<-%d] %-10s %-24s %s +%s%s" sp.sp_id sp.sp_parent
    (if sp.sp_node = "" then "-" else sp.sp_node)
    sp.sp_name
    (Sim.Time.to_string sp.sp_start)
    (Sim.Time.to_string (sp.sp_end - sp.sp_start))
    (match sp.sp_attrs with
    | [] -> ""
    | attrs ->
      "  "
      ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
