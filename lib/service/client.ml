(* Minimal client for the `novac serve` daemon: connect over the Unix
   domain socket, send one JSON request per line, read one JSON
   response per line.  Used by perfbench's serve-edit workload and by
   tests; external clients can speak the protocol from any language. *)

open Support

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ~socket_path : t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Retry [connect] until the daemon's socket accepts, for callers that
   just spawned the daemon; gives up after [timeout] seconds. *)
let connect_retry ?(timeout = 10.) ~socket_path () : t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match connect ~socket_path with
    | t -> t
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        go ()
  in
  go ()

let request t (req : Json.t) : (Json.t, string) result =
  output_string t.oc (Json.encode req);
  output_char t.oc '\n';
  flush t.oc;
  match input_line t.ic with
  | line -> Json.parse line
  | exception End_of_file -> Error "server closed the connection"

let ping t = request t (Json.Obj [ ("op", Json.Str "ping") ])
let stats t = request t (Json.Obj [ ("op", Json.Str "stats") ])
let shutdown t = request t (Json.Obj [ ("op", Json.Str "shutdown") ])
let clear_cache t = request t (Json.Obj [ ("op", Json.Str "clear-cache") ])

let compile_request ?time_limit ?node_limit ?rel_gap ?allocator ?objective
    ?entry ~file ~source () : Json.t =
  let base =
    [ ("op", Json.Str "compile"); ("file", Json.Str file);
      ("source", Json.Str source) ]
  in
  let opt name v f = Option.map (fun x -> (name, f x)) v in
  let extras =
    List.filter_map Fun.id
      [
        opt "time_limit" time_limit (fun x -> Json.Num x);
        opt "node_limit" node_limit (fun x -> Json.Num (float_of_int x));
        opt "rel_gap" rel_gap (fun x -> Json.Num x);
        opt "allocator" allocator (fun x -> Json.Str x);
        opt "objective" objective (fun x -> Json.Str x);
        opt "entry" entry (fun x -> Json.Str x);
      ]
  in
  Json.Obj (base @ extras)

let compile ?time_limit ?node_limit ?rel_gap ?allocator ?objective ?entry
    ~file ~source t : (Json.t, string) result =
  request t
    (compile_request ?time_limit ?node_limit ?rel_gap ?allocator ?objective
       ?entry ~file ~source ())
