(* Chrome trace-event JSON (the "JSON Array Format" understood by
   Perfetto and chrome://tracing) from the global span collector.

   Spans become balanced B/E duration-event pairs. Chrome nests B/E
   per-thread by time, so concurrent fibers on one node cannot share a
   tid: each node gets as many "tracks" (tids) as its maximum span
   overlap requires, assigned greedily — a span goes to the first track
   of its node where it either nests inside the currently open span or
   starts after it ended. *)

type track = {
  tr_tid : int;
  tr_label : string;
  mutable tr_open : Span.t list; (* assignment-time stack *)
  mutable tr_spans : Span.t list; (* reverse chronological *)
}

let node_label node = if node = "" then "global" else node

(* Greedy track assignment (spans arrive in start-time order). *)
let assign_tracks spans =
  let tracks = ref [] (* reverse creation order *) in
  let next_tid = ref 1 in
  let by_node : (string, track list ref) Hashtbl.t = Hashtbl.create 16 in
  let node_tracks node =
    match Hashtbl.find_opt by_node node with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add by_node node r;
      r
  in
  let new_track node =
    let n = List.length !(node_tracks node) in
    let label =
      if n = 0 then node_label node
      else Printf.sprintf "%s (%d)" (node_label node) n
    in
    let tr = { tr_tid = !next_tid; tr_label = label; tr_open = []; tr_spans = [] } in
    incr next_tid;
    tracks := tr :: !tracks;
    (node_tracks node) := !(node_tracks node) @ [ tr ];
    tr
  in
  let place tr (sp : Span.t) =
    tr.tr_open <- sp :: tr.tr_open;
    tr.tr_spans <- sp :: tr.tr_spans
  in
  let fits tr (sp : Span.t) =
    let rec pop () =
      match tr.tr_open with
      | top :: rest when top.Span.sp_end <= sp.Span.sp_start ->
        tr.tr_open <- rest;
        pop ()
      | _ -> ()
    in
    pop ();
    match tr.tr_open with
    | [] -> true
    | top :: _ -> top.Span.sp_end >= sp.Span.sp_end
  in
  List.iter
    (fun (sp : Span.t) ->
      match sp.Span.sp_kind with
      | Span.Instant -> ()
      | Span.Complete ->
        let candidates = !(node_tracks sp.Span.sp_node) in
        let tr =
          match List.find_opt (fun tr -> fits tr sp) candidates with
          | Some tr -> tr
          | None -> new_track sp.Span.sp_node
        in
        place tr sp)
    spans;
  (* instants ride their node's first track (created on demand) *)
  let instant_tid node =
    match !(node_tracks node) with
    | tr :: _ -> tr.tr_tid
    | [] -> (new_track node).tr_tid
  in
  let instants =
    List.filter_map
      (fun (sp : Span.t) ->
        match sp.Span.sp_kind with
        | Span.Instant -> Some (sp, instant_tid sp.Span.sp_node)
        | Span.Complete -> None)
      spans
  in
  (List.rev !tracks, instants)

let add_event b ~first ~ph ~ts ~tid ~name ~args =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b
    (Printf.sprintf "{\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"cat\":\"fractos\",\"name\":\""
       ph tid (float_of_int ts /. 1_000.));
  Json.escape b name;
  Buffer.add_string b "\"";
  (match args with
  | [] -> ()
  | args ->
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Json.escape b k;
        Buffer.add_string b "\":\"";
        Json.escape b v;
        Buffer.add_char b '"')
      args;
    Buffer.add_char b '}');
  Buffer.add_char b '}'

let span_args (sp : Span.t) =
  ("span", string_of_int sp.Span.sp_id)
  :: ("parent", string_of_int sp.Span.sp_parent)
  :: (if sp.Span.sp_finished then [] else [ ("unfinished", "true") ])
  @ List.rev sp.Span.sp_attrs

let chrome_trace_buffer () =
  let spans = Span.all () in
  let tracks, instants = assign_tracks spans in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  (* metadata: one process, one named thread per track *)
  add_event b ~first ~ph:"M" ~ts:0 ~tid:0 ~name:"process_name"
    ~args:[ ("name", "fractos") ];
  List.iter
    (fun tr ->
      add_event b ~first ~ph:"M" ~ts:0 ~tid:tr.tr_tid ~name:"thread_name"
        ~args:[ ("name", tr.tr_label) ])
    tracks;
  (* balanced B/E per track, in chronological order with explicit stack *)
  List.iter
    (fun tr ->
      let emit_b (sp : Span.t) =
        add_event b ~first ~ph:"B" ~ts:sp.Span.sp_start ~tid:tr.tr_tid
          ~name:sp.Span.sp_name ~args:(span_args sp)
      and emit_e (sp : Span.t) =
        add_event b ~first ~ph:"E" ~ts:sp.Span.sp_end ~tid:tr.tr_tid
          ~name:sp.Span.sp_name ~args:[]
      in
      let stack = ref [] in
      List.iter
        (fun (sp : Span.t) ->
          let rec close () =
            match !stack with
            | top :: rest when top.Span.sp_end <= sp.Span.sp_start ->
              emit_e top;
              stack := rest;
              close ()
            | _ -> ()
          in
          close ();
          emit_b sp;
          stack := sp :: !stack)
        (List.rev tr.tr_spans);
      List.iter emit_e !stack)
    tracks;
  List.iter
    (fun ((sp : Span.t), tid) ->
      add_event b ~first ~ph:"i" ~ts:sp.Span.sp_start ~tid
        ~name:sp.Span.sp_name
        ~args:(("s", "t") :: span_args sp))
    instants;
  Buffer.add_string b
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"fractos\",\"spans\":\"%d\",\"dropped\":\"%d\"}}\n"
       (Span.count ()) (Span.dropped ()));
  b

let write_chrome_trace path =
  Out_channel.with_open_text path (fun oc ->
      Buffer.output_buffer oc (chrome_trace_buffer ()));
  Span.warn_if_truncated path
