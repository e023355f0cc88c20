(* Flight recorder: bounded ring of structured runtime events.

   The journal is the "what just happened" half of the observability
   stack: spans show a request's shape, metrics show aggregates, the
   journal keeps the last N discrete incidents (sheds, stalls,
   invalidations, faults) with enough context — time, node, severity,
   trace id — to correlate the three. Overflow is never silent: drops
   are counted overall and per severity so a post-mortem dump states how
   much history is missing. *)

type severity = Debug | Info | Warn | Error

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type event = {
  j_seq : int;
  j_time : Sim.Time.t;
  j_node : string;
  j_sev : severity;
  j_kind : string;
  j_detail : string;
  j_trace : int;
}

(* Domain-local state: sibling simulations (Sim.Domains.map) get fresh
   journals. *)
type state = {
  mutable j_enabled : bool;
  mutable j_cap : int;
  mutable j_min_sev : severity;
  j_ring : event Queue.t;
  mutable j_next : int;
  mutable j_overflowed : int;
  j_overflow_by_sev : int array;
  mutable j_suppressed : int;
  j_by_kind : (string, int) Hashtbl.t;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        j_enabled = false;
        j_cap = 16_384;
        j_min_sev = Debug;
        j_ring = Queue.create ();
        j_next = 0;
        j_overflowed = 0;
        j_overflow_by_sev = Array.make 4 0;
        j_suppressed = 0;
        j_by_kind = Hashtbl.create 32;
      })

let st () = Domain.DLS.get state_key

let enabled () = (st ()).j_enabled
let set_enabled b = (st ()).j_enabled <- b
let capacity () = (st ()).j_cap

let drop_oldest s =
  let ev = Queue.pop s.j_ring in
  s.j_overflowed <- s.j_overflowed + 1;
  let r = severity_rank ev.j_sev in
  s.j_overflow_by_sev.(r) <- s.j_overflow_by_sev.(r) + 1

let set_capacity n =
  let s = st () in
  s.j_cap <- max 1 n;
  while Queue.length s.j_ring > s.j_cap do
    drop_oldest s
  done

let set_min_severity sev = (st ()).j_min_sev <- sev
let min_severity () = (st ()).j_min_sev

let reset () =
  let s = st () in
  Queue.clear s.j_ring;
  s.j_next <- 0;
  s.j_overflowed <- 0;
  Array.fill s.j_overflow_by_sev 0 4 0;
  s.j_suppressed <- 0;
  Hashtbl.reset s.j_by_kind

let record_lazy ~node ~sev ~kind ~detail () =
  let s = st () in
  if s.j_enabled then
    if severity_rank sev < severity_rank s.j_min_sev then
      s.j_suppressed <- s.j_suppressed + 1
    else begin
      let ev =
        {
          j_seq = s.j_next;
          j_time = Sim.Engine.now ();
          j_node = node;
          j_sev = sev;
          j_kind = kind;
          j_detail = detail ();
          j_trace = Sim.Engine.get_ctx ();
        }
      in
      s.j_next <- s.j_next + 1;
      Hashtbl.replace s.j_by_kind kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt s.j_by_kind kind));
      if Queue.length s.j_ring >= s.j_cap then drop_oldest s;
      Queue.add ev s.j_ring
    end

let record ~node ~sev ~kind ?(detail = "") () =
  record_lazy ~node ~sev ~kind ~detail:(fun () -> detail) ()

let events () = List.of_seq (Queue.to_seq (st ()).j_ring)
let count () = Queue.length (st ()).j_ring
let recorded () = (st ()).j_next
let overflowed () = (st ()).j_overflowed
let overflowed_by_severity s = (st ()).j_overflow_by_sev.(severity_rank s)
let suppressed () = (st ()).j_suppressed

let summary () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (st ()).j_by_kind []
  |> List.sort compare

let pp_event fmt ev =
  Format.fprintf fmt "%-8s %-5s %-10s %-24s%s%s"
    (Sim.Time.to_string ev.j_time)
    (severity_name ev.j_sev)
    (if ev.j_node = "" then "-" else ev.j_node)
    ev.j_kind
    (if ev.j_trace = 0 then "" else Printf.sprintf " trace=%d" ev.j_trace)
    (if ev.j_detail = "" then "" else " " ^ ev.j_detail)

let dump fmt () =
  let s = st () in
  Format.fprintf fmt "journal: %d retained / %d recorded" (count ())
    (recorded ());
  if s.j_overflowed > 0 then
    Format.fprintf fmt " (%d overflowed: %d warn, %d error)" s.j_overflowed
      (overflowed_by_severity Warn)
      (overflowed_by_severity Error);
  if s.j_suppressed > 0 then
    Format.fprintf fmt " (%d below min severity)" s.j_suppressed;
  Format.fprintf fmt "@.";
  Queue.iter (fun ev -> Format.fprintf fmt "  %a@." pp_event ev) s.j_ring
