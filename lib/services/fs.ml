module Core = Fractos_core
open Core

type file = { f_name : string; f_size : int; f_extents : Blockdev.vol array }

(* Read-cache window (enabled with [cache]): file-relative byte range
   resident in FS memory. *)
type window = { w_start : int; w_end : int; w_data : bytes }

type t = {
  fsvc : Svc.t;
  base : Api.cid;
  create_vol : Api.cid;
  extent_size : int;
  write_through : bool;
  cache : bool;
  windows : (string, window list) Hashtbl.t; (* file name -> LRU windows *)
  mutable hits : int;
  files : (string, file) Hashtbl.t;
  opens : (int, file) Hashtbl.t; (* per-open handle -> file *)
  staging : Staging.t;
  mutable next_open : int;
}

let max_windows_per_file = 8
let read_ahead_factor = 4

let cache_lookup t file ~off ~len =
  if not t.cache then None
  else
    match Hashtbl.find_opt t.windows file.f_name with
    | None -> None
    | Some ws -> (
      match
        List.find_opt (fun w -> off >= w.w_start && off + len <= w.w_end) ws
      with
      | None -> None
      | Some w as hit ->
        t.hits <- t.hits + 1;
        Hashtbl.replace t.windows file.f_name
          (w :: List.filter (fun x -> x != w) ws);
        hit)

let cache_insert t file ~off data =
  if t.cache then begin
    let ws =
      match Hashtbl.find_opt t.windows file.f_name with
      | Some ws -> ws
      | None -> []
    in
    let w = { w_start = off; w_end = off + Bytes.length data; w_data = data } in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    Hashtbl.replace t.windows file.f_name (take max_windows_per_file (w :: ws))
  end

let cache_invalidate t file ~off ~len =
  if t.cache then
    match Hashtbl.find_opt t.windows file.f_name with
    | None -> ()
    | Some ws ->
      Hashtbl.replace t.windows file.f_name
        (List.filter
           (fun w -> not (off < w.w_end && off + len > w.w_start))
           ws)

(* Sequential-pattern detection: read ahead only when the miss extends a
   resident window (or starts the file). *)
let read_ahead_len t file ~off ~len =
  if not t.cache then len
  else
    let sequentialish =
      off = 0
      ||
      match Hashtbl.find_opt t.windows file.f_name with
      | Some ws -> List.exists (fun w -> off = w.w_end) ws
      | None -> false
    in
    if sequentialish then min (read_ahead_factor * len) (file.f_size - off)
    else len

type mode = Fs_ro | Fs_rw | Dax_ro | Dax_rw

type handle = {
  h_size : int;
  h_extent_size : int;
  h_read : Api.cid option;
  h_write : Api.cid option;
  h_dax_read : Api.cid array;
  h_dax_write : Api.cid array;
}

let mode_to_int = function Fs_ro -> 0 | Fs_rw -> 1 | Dax_ro -> 2 | Dax_rw -> 3

(* Split a byte range into per-extent parts:
   (extent index, offset within extent, part length, offset in range). *)
let parts ~extent_size ~off ~len =
  let rec go off remaining range_off acc =
    if remaining = 0 then List.rev acc
    else begin
      let ext = off / extent_size in
      let eoff = off mod extent_size in
      let n = min remaining (extent_size - eoff) in
      go (off + n) (remaining - n) (range_off + n)
        ((ext, eoff, n, range_off) :: acc)
    end
  in
  go off len 0 []

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

let handle_create t svc d =
  match d.State.d_imms with
  | [ name; size ] -> (
    let name = Args.to_string name and size = Args.to_int size in
    if Hashtbl.mem t.files name then Svc.reply svc d ~status:3 ()
    else begin
      let n_ext = max 1 ((size + t.extent_size - 1) / t.extent_size) in
      let rec alloc acc i =
        if i = n_ext then Ok (List.rev acc)
        else
          match
            Blockdev.create_vol svc ~create_req:t.create_vol
              ~size:t.extent_size
          with
          | Error e -> Error e
          | Ok vol -> alloc (vol :: acc) (i + 1)
      in
      match alloc [] 0 with
      | Error _ -> Svc.reply svc d ~status:1 ()
      | Ok vols ->
        Hashtbl.replace t.files name
          { f_name = name; f_size = size; f_extents = Array.of_list vols };
        Svc.reply svc d ~status:0 ()
    end)
  | _ -> Svc.reply svc d ~status:2 ()

let handle_open t svc d =
  match d.State.d_imms with
  | [ name; mode ] -> (
    let name = Args.to_string name and mode = Args.to_int mode in
    match Hashtbl.find_opt t.files name with
    | None -> Svc.reply svc d ~status:1 ()
    | Some file -> (
      let proc = Svc.proc svc in
      match mode with
      | 0 | 1 -> (
        (* FS mode: per-open mediation Requests *)
        t.next_open <- t.next_open + 1;
        let fid = t.next_open in
        Hashtbl.replace t.opens fid file;
        let mk tag = Api.request_create proc ~tag ~imms:[ Args.of_int fid ] () in
        match mk "fs.read" with
        | Error _ -> Svc.reply svc d ~status:1 ()
        | Ok rd ->
          let caps =
            if mode = 1 then
              match mk "fs.write" with Ok wr -> [ rd; wr ] | Error _ -> [ rd ]
            else [ rd ]
          in
          Svc.reply svc d ~status:0
            ~imms:[ Args.of_int file.f_size; Args.of_int t.extent_size ]
            ~caps ())
      | 2 | 3 ->
        (* DAX mode: delegate the block device's own per-extent Requests,
           withholding writes on read-only opens *)
        let reads =
          Array.to_list (Array.map (fun v -> v.Blockdev.read_req) file.f_extents)
        in
        let writes =
          if mode = 3 then
            Array.to_list
              (Array.map (fun v -> v.Blockdev.write_req) file.f_extents)
          else []
        in
        Svc.reply svc d ~status:0
          ~imms:[ Args.of_int file.f_size; Args.of_int t.extent_size ]
          ~caps:(reads @ writes) ()
      | _ -> Svc.reply svc d ~status:2 ()))
  | _ -> Svc.reply svc d ~status:2 ()

let invoke_cont svc cont =
  match Api.request_invoke (Svc.proc svc) cont with
  | Ok () -> ()
  | Error e ->
    Logs.warn (fun m -> m "fs: continuation failed: %s" (Error.to_string e))

let fail_cont svc caps code =
  match caps with
  | [ _; _; err ] -> (
    match
      Api.request_derive (Svc.proc svc) err ~imms:[ Args.of_int code ] ()
    with
    | Ok r -> ignore (Api.request_invoke (Svc.proc svc) r)
    | Error _ -> ())
  | _ -> Logs.warn (fun m -> m "fs: operation failed with code %d" code)

(* FS-mode read: stage each extent part through FS memory, then copy into
   the client's Memory capability. *)
let handle_read t svc d =
  match (d.State.d_imms, d.State.d_caps) with
  | [ fid; off; len ], (dst_mem :: next :: _ as caps) -> (
    let fid = Args.to_int fid
    and off = Args.to_int off
    and len = Args.to_int len in
    match Hashtbl.find_opt t.opens fid with
    | None -> fail_cont svc caps 3
    | Some file ->
      if off < 0 || len < 0 || off + len > file.f_size then fail_cont svc caps 4
      else begin
        let proc = Svc.proc svc in
        let plist = parts ~extent_size:t.extent_size ~off ~len in
        let single = match plist with [ _ ] -> true | _ -> false in
        (* push [n] staged bytes (already in [slot]) to the client *)
        let to_client slot ~n ~range_off =
          let dst_view =
            if single then Ok dst_mem
            else
              Api.memory_diminish proc dst_mem ~off:range_off ~len:n
                ~drop:Perms.none
          in
          match dst_view with
          | Error _ as e -> e
          | Ok dst_view ->
            Api.memory_copy proc ~src:slot.Staging.mem ~dst:dst_view
        in
        let rec go = function
          | [] -> invoke_cont svc next
          | (ext, eoff, n, range_off) :: rest -> (
            let vol = file.f_extents.(ext) in
            let abs_off = (ext * t.extent_size) + eoff in
            let res =
              match cache_lookup t file ~off:abs_off ~len:n with
              | Some w ->
                (* cache hit: serve from FS memory, no device round trip *)
                Staging.with_slot t.staging n (fun slot ->
                    Bytes.blit w.w_data (abs_off - w.w_start)
                      slot.Staging.buf.Membuf.data 0 n;
                    to_client slot ~n ~range_off)
              | None -> (
                (* miss: fetch (with sequential read-ahead when caching),
                   populate the cache, forward the requested window *)
                let fetch =
                  min (read_ahead_len t file ~off:abs_off ~len:n)
                    (t.extent_size - eoff)
                in
                Staging.with_slot t.staging fetch (fun slot ->
                    match
                      Svc.call_cont svc ~svc:vol.Blockdev.read_req
                        ~imms:(Blockdev.read_args ~off:eoff ~len:fetch)
                        ~place:(fun ~ok ~err -> [ slot.Staging.mem; ok; err ])
                        ()
                    with
                    | Error _ as e -> e
                    | Ok (false, _) -> Error Error.Bounds
                    | Ok (true, _) ->
                      cache_insert t file ~off:abs_off
                        (Membuf.read slot.Staging.buf ~off:0 ~len:fetch);
                      if fetch = n then to_client slot ~n ~range_off
                      else
                        Staging.with_slot t.staging n (fun out ->
                            Membuf.blit ~src:slot.Staging.buf ~src_off:0
                              ~dst:out.Staging.buf ~dst_off:0 ~len:n;
                            to_client out ~n ~range_off)))
            in
            match res with
            | Ok () -> go rest
            | Error _ -> fail_cont svc caps 1)
        in
        go plist
      end)
  | _, caps ->
    Logs.warn (fun m -> m "fs.read: malformed arguments");
    if List.length caps >= 3 then fail_cont svc caps 5

(* FS-mode write: stage from the client, push each part to the block
   device. With write_through enabled and a single-extent range, compose
   instead: refine the device's write Request with the client's source
   Memory and continuation — the FS leaves the data path entirely. *)
let handle_write t svc d =
  match (d.State.d_imms, d.State.d_caps) with
  | [ fid; off; len ], (src_mem :: next :: _ as caps) -> (
    let fid = Args.to_int fid
    and off = Args.to_int off
    and len = Args.to_int len in
    match Hashtbl.find_opt t.opens fid with
    | None -> fail_cont svc caps 3
    | Some file ->
      if off < 0 || len < 0 || off + len > file.f_size then fail_cont svc caps 4
      else begin
        let proc = Svc.proc svc in
        let plist = parts ~extent_size:t.extent_size ~off ~len in
        List.iter
          (fun (ext, eoff, n, _) ->
            cache_invalidate t file ~off:((ext * t.extent_size) + eoff) ~len:n)
          plist;
        match (t.write_through, plist) with
        | true, [ (ext, eoff, n, _) ] -> (
          let vol = file.f_extents.(ext) in
          match
            Api.request_derive proc vol.Blockdev.write_req
              ~imms:(Blockdev.write_args ~off:eoff ~len:n)
              ~caps:[ src_mem; next ]
              ()
          with
          | Error _ -> fail_cont svc caps 1
          | Ok r -> (
            match Api.request_invoke proc r with
            | Ok () -> ()
            | Error _ -> fail_cont svc caps 1))
        | _ ->
          let single = match plist with [ _ ] -> true | _ -> false in
          let rec go = function
            | [] -> invoke_cont svc next
            | (ext, eoff, n, range_off) :: rest -> (
              let vol = file.f_extents.(ext) in
              let res =
                Staging.with_slot t.staging n (fun slot ->
                    let src_view =
                      if single then Ok src_mem
                      else
                        Api.memory_diminish proc src_mem ~off:range_off ~len:n
                          ~drop:Perms.none
                    in
                    match src_view with
                    | Error _ as e -> e
                    | Ok src_view -> (
                      match
                        Api.memory_copy proc ~src:src_view
                          ~dst:slot.Staging.mem
                      with
                      | Error _ as e -> e
                      | Ok () -> (
                        match
                          Svc.call_cont svc ~svc:vol.Blockdev.write_req
                            ~imms:(Blockdev.write_args ~off:eoff ~len:n)
                            ~place:(fun ~ok ~err ->
                              [ slot.Staging.mem; ok; err ])
                            ()
                        with
                        | Error _ as e -> e
                        | Ok (false, _) -> Error Error.Bounds
                        | Ok (true, _) -> Ok ())))
              in
              match res with
              | Ok () -> go rest
              | Error _ -> fail_cont svc caps 1)
          in
          go plist
      end)
  | _, caps ->
    Logs.warn (fun m -> m "fs.write: malformed arguments");
    if List.length caps >= 3 then fail_cont svc caps 5

(* Unlink: drop the file, its open handles, and its cache windows, and
   revoke the underlying volume Requests — outstanding FS and DAX handles
   all die through the capability system. *)
let handle_delete t svc d =
  match d.State.d_imms with
  | [ name ] -> (
    let name = Args.to_string name in
    match Hashtbl.find_opt t.files name with
    | None -> Svc.reply svc d ~status:1 ()
    | Some file ->
      Hashtbl.remove t.files name;
      Hashtbl.remove t.windows name;
      let doomed =
        Hashtbl.fold
          (fun fid f acc -> if f == file then fid :: acc else acc)
          t.opens []
      in
      List.iter (fun fid -> Hashtbl.remove t.opens fid) doomed;
      Array.iter
        (fun vol ->
          (match Api.cap_revoke (Svc.proc svc) vol.Blockdev.read_req with
          | Ok () | Error _ -> ());
          match Api.cap_revoke (Svc.proc svc) vol.Blockdev.write_req with
          | Ok () | Error _ -> ())
        file.f_extents;
      Svc.reply svc d ~status:0 ())
  | _ -> Svc.reply svc d ~status:2 ()

let handle_list t svc d =
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.files []
    |> List.sort compare
  in
  Svc.reply svc d ~status:0
    ~imms:(Args.of_int (List.length names) :: List.map Args.of_string names)
    ()

let handle_stat t svc d =
  match d.State.d_imms with
  | [ name ] -> (
    match Hashtbl.find_opt t.files (Args.to_string name) with
    | None -> Svc.reply svc d ~status:1 ()
    | Some file -> Svc.reply svc d ~status:0 ~imms:[ Args.of_int file.f_size ] ())
  | _ -> Svc.reply svc d ~status:2 ()

(* ------------------------------------------------------------------ *)
(* Lifecycle and client wrappers                                       *)
(* ------------------------------------------------------------------ *)

let start proc ~create_vol ?(extent_size = 1 lsl 20) ?(write_through = false)
    ?(cache = false) () =
  let fsvc = Svc.create proc in
  let base = Error.ok_exn (Api.request_create proc ~tag:"fs" ()) in
  let t =
    {
      fsvc;
      base;
      create_vol;
      extent_size;
      write_through;
      cache;
      windows = Hashtbl.create 8;
      hits = 0;
      files = Hashtbl.create 16;
      opens = Hashtbl.create 16;
      staging = Staging.create proc;
      next_open = 0;
    }
  in
  Svc.handle fsvc ~tag:"fs" (fun svc d ->
      match d.State.d_imms with
      | op :: rest -> (
        let d' = { d with State.d_imms = rest } in
        match Args.to_string op with
        | "create" -> handle_create t svc d'
        | "open" -> handle_open t svc d'
        | "delete" -> handle_delete t svc d'
        | "list" -> handle_list t svc d'
        | "stat" -> handle_stat t svc d'
        | _ -> Svc.reply svc d ~status:2 ())
      | [] -> Svc.reply svc d ~status:2 ());
  Svc.handle fsvc ~tag:"fs.read" (handle_read t);
  Svc.handle fsvc ~tag:"fs.write" (handle_write t);
  t

let svc t = t.fsvc
let base_request t = t.base
let cache_hits t = t.hits

let create svc ~fs ~name ~size =
  match
    Svc.call svc ~svc:fs
      ~imms:[ Args.of_string "create"; Args.of_string name; Args.of_int size ]
      ()
  with
  | Error _ as e -> e
  | Ok d ->
    if Svc.status d = 0 then Ok ()
    else Error (Error.Bad_argument "fs.create failed")

let delete svc ~fs ~name =
  match
    Svc.call svc ~svc:fs
      ~imms:[ Args.of_string "delete"; Args.of_string name ]
      ()
  with
  | Error _ as e -> e
  | Ok d ->
    if Svc.status d = 0 then Ok ()
    else Error Error.Invalid_cap

let list svc ~fs =
  match Svc.call svc ~svc:fs ~imms:[ Args.of_string "list" ] () with
  | Error _ as e -> e
  | Ok d -> (
    match Svc.payload_imms d with
    | count :: names when Args.to_int count = List.length names ->
      Ok (List.map Args.to_string names)
    | _ -> Error (Error.Bad_argument "fs.list: malformed reply"))

let stat svc ~fs ~name =
  match
    Svc.call svc ~svc:fs ~imms:[ Args.of_string "stat"; Args.of_string name ] ()
  with
  | Error _ as e -> e
  | Ok d -> (
    if Svc.status d <> 0 then Error Error.Invalid_cap
    else
      match Svc.payload_imms d with
      | [ size ] -> Ok (Args.to_int size)
      | _ -> Error (Error.Bad_argument "fs.stat: malformed reply"))

let open_ svc ~fs ~name mode =
  match
    Svc.call svc ~svc:fs
      ~imms:
        [
          Args.of_string "open";
          Args.of_string name;
          Args.of_int (mode_to_int mode);
        ]
      ()
  with
  | Error _ as e -> e
  | Ok d -> (
    if Svc.status d <> 0 then Error (Error.Bad_argument "fs.open failed")
    else
      match Svc.payload_imms d with
      | [ size; extent_size ] -> (
        let h_size = Args.to_int size
        and h_extent_size = Args.to_int extent_size in
        let caps = d.State.d_caps in
        match mode with
        | Fs_ro ->
          Ok
            {
              h_size;
              h_extent_size;
              h_read = List.nth_opt caps 0;
              h_write = None;
              h_dax_read = [||];
              h_dax_write = [||];
            }
        | Fs_rw ->
          Ok
            {
              h_size;
              h_extent_size;
              h_read = List.nth_opt caps 0;
              h_write = List.nth_opt caps 1;
              h_dax_read = [||];
              h_dax_write = [||];
            }
        | Dax_ro ->
          Ok
            {
              h_size;
              h_extent_size;
              h_read = None;
              h_write = None;
              h_dax_read = Array.of_list caps;
              h_dax_write = [||];
            }
        | Dax_rw ->
          let n = List.length caps / 2 in
          let arr = Array.of_list caps in
          Ok
            {
              h_size;
              h_extent_size;
              h_read = None;
              h_write = None;
              h_dax_read = Array.sub arr 0 n;
              h_dax_write = Array.sub arr n n;
            })
      | _ -> Error (Error.Bad_argument "fs.open: malformed reply"))

let rw_op svc req ~off ~len ~mem =
  match
    Svc.call_cont svc ~svc:req
      ~imms:[ Args.of_int off; Args.of_int len ]
      ~place:(fun ~ok ~err -> [ mem; ok; err ])
      ()
  with
  | Error _ as e -> e
  | Ok (true, _) -> Ok ()
  | Ok (false, _) -> Error (Error.Bad_argument "fs operation failed")

let read svc handle ~off ~len ~dst =
  match handle.h_read with
  | None -> Error (Error.Bad_argument "handle not opened for FS-mode read")
  | Some req -> rw_op svc req ~off ~len ~mem:dst

let write svc handle ~off ~len ~src =
  match handle.h_write with
  | None -> Error (Error.Bad_argument "handle not opened for FS-mode write")
  | Some req -> rw_op svc req ~off ~len ~mem:src

let read_request_args handle ~off ~len =
  let es = handle.h_extent_size in
  let ext = off / es in
  let eoff = off mod es in
  if len <= 0 || eoff + len > es then None
  else Some (ext, [ Args.of_int eoff; Args.of_int len ])
