module Journal = Fr_resil.Journal

type info = {
  mode : string;
  at : int;
  mid_drain : bool;
  batch : int;
  shards : int;
  fault_shard : int;
  slow_ms : float;
  dead_frac : float;
}

let meta_name = "bundle.meta"
let trace_name = "trace"
let journal_subdir = "journal"
let magic = "fastrule-bundle 1"

let is_bundle dir =
  Sys.file_exists dir
  && Sys.is_directory dir
  && Sys.file_exists (Filename.concat dir meta_name)
  && Sys.file_exists (Filename.concat dir trace_name)

let journal_dir dir =
  let j = Filename.concat dir journal_subdir in
  if Sys.file_exists j && Sys.is_directory j then Some j else None

let trace_file dir = Filename.concat dir trace_name

(* %g when it reads back to the same float, all digits otherwise — a
   replay must run the exact parameter the capture ran. *)
let float_field f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let info_to_string i =
  String.concat "\n"
    [
      magic;
      "mode " ^ i.mode;
      "at " ^ string_of_int i.at;
      "mid_drain " ^ string_of_bool i.mid_drain;
      "batch " ^ string_of_int i.batch;
      "shards " ^ string_of_int i.shards;
      "fault_shard " ^ string_of_int i.fault_shard;
      Printf.sprintf "slow_ms %g" i.slow_ms;
      "dead_frac " ^ float_field i.dead_frac;
      "";
    ]

let info_of_string s =
  match String.split_on_char '\n' s with
  | header :: rest when String.trim header = magic ->
      let fields = Hashtbl.create 8 in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | Some i ->
              Hashtbl.replace fields
                (String.sub line 0 i)
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
          | None -> ())
        rest;
      let get name parse fallback =
        match Hashtbl.find_opt fields name with
        | None -> Ok fallback
        | Some v -> (
            match parse v with
            | Some x -> Ok x
            | None -> Error (Printf.sprintf "bundle: bad %s %S" name v))
      in
      let ( let* ) = Result.bind in
      let* mode = get "mode" Option.some "crash" in
      let* at = get "at" int_of_string_opt 0 in
      let* mid_drain = get "mid_drain" bool_of_string_opt false in
      let* batch = get "batch" int_of_string_opt 4 in
      let* shards = get "shards" int_of_string_opt 1 in
      let* fault_shard = get "fault_shard" int_of_string_opt 0 in
      let* slow_ms = get "slow_ms" float_of_string_opt 0.0 in
      (* bundles written before the field existed ran the default bank *)
      let* dead_frac = get "dead_frac" float_of_string_opt 0.10 in
      Ok { mode; at; mid_drain; batch; shards; fault_shard; slow_ms; dead_frac }
  | _ -> Error "bundle: missing fastrule-bundle header"

let write ~dir info ~trace ~journal =
  Journal.ensure_dir dir;
  Trace.save trace (trace_file dir);
  Out_channel.with_open_text (Filename.concat dir meta_name) (fun oc ->
      Out_channel.output_string oc (info_to_string info));
  (match journal with
  | Some jdir when Sys.file_exists jdir && Sys.is_directory jdir ->
      let dst = Filename.concat dir journal_subdir in
      Journal.ensure_dir dst;
      Array.iter
        (fun f ->
          let src = Filename.concat jdir f in
          if not (Sys.is_directory src) then
            copy_file src (Filename.concat dst f))
        (Sys.readdir jdir)
  | Some _ | None -> ());
  dir

let load dir =
  if not (is_bundle dir) then
    Error (Printf.sprintf "bundle: %s is not a divergence bundle" dir)
  else
    let ( let* ) = Result.bind in
    let* meta =
      try
        Ok
          (In_channel.with_open_text (Filename.concat dir meta_name)
             In_channel.input_all)
      with Sys_error e -> Error ("bundle: " ^ e)
    in
    let* info = info_of_string meta in
    let* trace = Trace.load (trace_file dir) in
    Ok (info, trace)

let pp_info ppf i =
  Format.fprintf ppf "%s bundle: at %d%s, batch %d, %d shard%s%s%s%s" i.mode
    i.at
    (if i.mid_drain then " (mid-drain)" else "")
    i.batch i.shards
    (if i.shards = 1 then "" else "s")
    (if i.mode = "failover" then Printf.sprintf ", fault shard %d" i.fault_shard
     else "")
    (if i.slow_ms > 0.0 then Printf.sprintf ", slow %g ms/op" i.slow_ms else "")
    (if i.mode = "degraded" then
       Printf.sprintf ", %g%% dead" (100.0 *. i.dead_frac)
     else "")
