(* Content-addressed artifact store for the incremental pipeline.

   An artifact is one JSON document, addressed by (stage, key) where
   [key] is a [Key.t] over the stage's inputs.  Two tiers:

     - an in-memory table (the "hot" cache kept warm by `novac serve`),
       capped at [mem_entries] documents and evicted LRU;
     - the on-disk store under [dir] (default `_artifacts/cache/`),
       one file per artifact named `<stage>-<key>.json`, capped at
       [disk_entries] files and evicted oldest-mtime-first.  A hit in
       either tier sets its file's mtime to now, so the disk tier
       evicts its least recently used file.

   Named "head" pointers ([set_head]/[head]) record the most recent
   artifact key for a logical target (e.g. the last solve of NAT under
   a given model fingerprint) so a cache *miss* can still locate the
   previous result to warm-start from.

   Every lookup runs under a `cache-lookup` trace span and bumps the
   `cache.hit`/`cache.miss` counters; evictions bump `cache.evict`.
   Corrupt or unreadable files are treated as misses, and a file that
   is not JSON is removed.  An artifact that cannot be written (a
   directory in its place, a full disk) stays in the memory tier only. *)

open Support

let m_hit = Metrics.counter "cache.hit"
let m_miss = Metrics.counter "cache.miss"
let m_evict = Metrics.counter "cache.evict"

type entry = { e_doc : Json.t; mutable e_tick : int }

type t = {
  dir : string;
  mem_entries : int;
  disk_entries : int;
  mem : (string, entry) Hashtbl.t;
  heads : (string, string) Hashtbl.t; (* head name -> artifact key *)
  mutable tick : int; (* LRU clock for the in-memory tier *)
}

let default_dir = Filename.concat "_artifacts" "cache"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(dir = default_dir) ?(mem_entries = 64) ?(disk_entries = 256) ()
    =
  mkdir_p dir;
  {
    dir;
    mem_entries;
    disk_entries;
    mem = Hashtbl.create 64;
    heads = Hashtbl.create 8;
    tick = 0;
  }

let path t ~stage ~key =
  Filename.concat t.dir
    (Printf.sprintf "%s-%s.json" (Key.slug stage) (Key.slug key))

let mem_key ~stage ~key = stage ^ "/" ^ key

let touch t e =
  t.tick <- t.tick + 1;
  e.e_tick <- t.tick

(* ---------------- eviction ---------------- *)

let evict_mem t =
  while Hashtbl.length t.mem > t.mem_entries do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best <= e.e_tick -> acc
          | _ -> Some (k, e.e_tick))
        t.mem None
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
        Hashtbl.remove t.mem k;
        Metrics.incr m_evict
  done

let evict_disk t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | files ->
      let aged =
        Array.to_list files
        |> List.filter_map (fun f ->
               if Filename.check_suffix f ".json" then
                 let full = Filename.concat t.dir f in
                 match Unix.stat full with
                 | st -> Some (st.Unix.st_mtime, full)
                 | exception Unix.Unix_error _ -> None
               else None)
        |> List.sort compare
      in
      let excess = List.length aged - t.disk_entries in
      if excess > 0 then
        List.iteri
          (fun i (_, full) ->
            if i < excess then begin
              (try Sys.remove full with Sys_error _ -> ());
              Metrics.incr m_evict
            end)
          aged

(* ---------------- lookup / store ---------------- *)

(* Mark the artifact [file] as just used.  A file evicted or removed
   meanwhile is simply not touched. *)
let touch_file file =
  try Unix.utimes file 0. 0. with Unix.Unix_error _ -> ()

(* The contents of [file]; [None] if it cannot be read (missing, gone
   since, a directory). *)
let read_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception (Sys_error _ | End_of_file) -> None
  | s -> Some s

(* The artifact in [file]; [None] if it cannot be read or is not JSON,
   in which case it is removed. *)
let read_artifact file =
  match read_file file with
  | None -> None
  | Some s -> (
      match Json.parse s with
      | Ok d -> Some d
      | Error _ ->
          (try Sys.remove file with Sys_error _ -> ());
          None)

let lookup t ~stage ~key : Json.t option =
  Trace.with_span "cache-lookup"
    ~args:[ ("stage", Trace.Str stage); ("key", Trace.Str key) ]
  @@ fun () ->
  let mk = mem_key ~stage ~key in
  match Hashtbl.find_opt t.mem mk with
  | Some e ->
      touch t e;
      touch_file (path t ~stage ~key);
      Metrics.incr m_hit;
      Some e.e_doc
  | None -> (
      let file = path t ~stage ~key in
      match read_artifact file with
      | Some d ->
          touch_file file;
          t.tick <- t.tick + 1;
          Hashtbl.replace t.mem mk { e_doc = d; e_tick = t.tick };
          evict_mem t;
          Metrics.incr m_hit;
          Some d
      | None ->
          Metrics.incr m_miss;
          None)

let store t ~stage ~key (doc : Json.t) =
  let mk = mem_key ~stage ~key in
  t.tick <- t.tick + 1;
  Hashtbl.replace t.mem mk { e_doc = doc; e_tick = t.tick };
  evict_mem t;
  mkdir_p t.dir;
  let file = path t ~stage ~key in
  let tmp = file ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc (Json.encode doc);
         close_out oc);
     Sys.rename tmp file
   with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
  evict_disk t

(* ---------------- head pointers ---------------- *)

(* Heads live outside the capped artifact namespace (a `.head` file per
   name) so eviction of old artifacts never severs the pointer file
   itself; a head pointing at an evicted artifact simply resolves to a
   miss at lookup time.  A head file that cannot be read is no head, and
   one that cannot be written leaves the head in memory only. *)

let head_path t name =
  Filename.concat t.dir (Printf.sprintf "%s.head" (Key.slug name))

let set_head t ~name ~key =
  Hashtbl.replace t.heads name key;
  mkdir_p t.dir;
  let file = head_path t name in
  try
    let oc = open_out_bin file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc key)
  with Sys_error _ -> ()

let head t ~name : string option =
  match Hashtbl.find_opt t.heads name with
  | Some k -> Some k
  | None -> (
      match Option.map String.trim (read_file (head_path t name)) with
      | None | Some "" -> None
      | Some s ->
          Hashtbl.replace t.heads name s;
          Some s)

(* Drop the in-memory tier (the on-disk artifacts survive); used by
   tests and by `novac serve` on cache-control requests. *)
let clear_memory t =
  Hashtbl.reset t.mem;
  Hashtbl.reset t.heads
