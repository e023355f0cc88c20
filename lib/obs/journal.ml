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

let sev_count = 4

(* Per-severity overflow counts. *)
let overflow_by_sev = Array.make sev_count 0

let ring =
  Ring.create ~capacity:16_384 ~on_drop:(fun ev ->
      let r = severity_rank ev.j_sev in
      overflow_by_sev.(r) <- overflow_by_sev.(r) + 1)
    ()

let enabled () = Ring.enabled ring
let set_enabled b = Ring.set_enabled ring b
let set_capacity n = Ring.set_capacity ring n

let reset () =
  Ring.reset ring;
  Array.fill overflow_by_sev 0 sev_count 0

let record_lazy ~node ~sev ~kind ~detail () =
  if Ring.enabled ring then
    Ring.push ring kind
      {
        j_seq = Ring.recorded ring;
        j_time = Sim.Engine.now ();
        j_node = node;
        j_sev = sev;
        j_kind = kind;
        j_detail = detail ();
        j_trace = Sim.Engine.get_ctx ();
      }

let events () = Ring.events ring
let count () = Ring.count ring
let recorded () = Ring.recorded ring
let overflowed () = Ring.overflowed ring

let overflowed_by_severity s = overflow_by_sev.(severity_rank s)

let summary () = List.sort compare (Ring.summary ring)

let pp_event fmt ev =
  Format.fprintf fmt "%-8s %-5s %-10s %-24s%s%s"
    (Sim.Time.to_string ev.j_time)
    (severity_name ev.j_sev)
    (if ev.j_node = "" then "-" else ev.j_node)
    ev.j_kind
    (if ev.j_trace = 0 then "" else Printf.sprintf " trace=%d" ev.j_trace)
    (if ev.j_detail = "" then "" else " " ^ ev.j_detail)

let dump fmt () =
  Format.fprintf fmt "journal: %d retained / %d recorded" (count ())
    (recorded ());
  if overflowed () > 0 then
    Format.fprintf fmt " (%d overflowed: %d warn, %d error)" (overflowed ())
      (overflowed_by_severity Warn)
      (overflowed_by_severity Error);
  Format.fprintf fmt "@.";
  List.iter (fun ev -> Format.fprintf fmt "  %a@." pp_event ev) (events ())
