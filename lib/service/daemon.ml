(* The `novac serve` compile daemon.

   Accepts connections on a Unix domain socket and serves
   newline-delimited JSON requests ([Protocol]) sequentially: compile
   jobs are CPU-bound, so one job at a time is the right concurrency
   model -- the win of the daemon is the warm in-process cache
   ([Regalloc.Driver]'s stage memos plus the artifact store), not
   connection parallelism.

   Every job runs under a `serve-job` trace span and is timed
   individually; the response carries the per-stage cache report so
   clients (and the service-smoke CI job) can assert hit/miss
   behavior. *)

open Support

type config = {
  socket_path : string;
  cache_dir : string option; (* None: the store's default *)
  base_options : Regalloc.Driver.options;
  verbose : bool;
}

let default_socket = Filename.concat "_artifacts" "novac.sock"

let log config fmt =
  if config.verbose then Fmt.epr ("serve: " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter fmt

let m_job_errors = Metrics.counter "service.job_errors"

(* Compile one job into its response.  A job that fails in any way, an
   unwritable artifact store or a compiler bug included, answers with an
   error response and bumps [service.job_errors]; it never takes the
   connection or the daemon down with it. *)
let handle_job config store (j : Protocol.job) : Json.t =
  let t0 = Unix.gettimeofday () in
  let options = Protocol.options_of_job config.base_options j in
  Trace.with_span "serve-job"
    ~args:[ ("file", Trace.Str j.Protocol.job_file) ]
  @@ fun () ->
  match
    Regalloc.Driver.compile_incremental ~options ~store
      ~file:j.Protocol.job_file j.Protocol.job_source
  with
  | compiled, report ->
      let elapsed = Unix.gettimeofday () -. t0 in
      log config "%s: %s in %.3fs (front=%b model=%b solve=%b full=%b warm=%b)"
        j.Protocol.job_file
        (Regalloc.Driver.solver_outcome_to_string
           compiled.Regalloc.Driver.stats.Regalloc.Driver.solver_outcome)
        elapsed report.Regalloc.Driver.front_hit
        report.Regalloc.Driver.model_hit report.Regalloc.Driver.solve_hit
        report.Regalloc.Driver.full_hit report.Regalloc.Driver.warm_used;
      Protocol.compiled_json ~elapsed compiled report
  | exception Diag.Compile_error d ->
      Protocol.error_json (Fmt.str "%a" Diag.pp d)
  | exception Regalloc.Driver.Allocation_failed msg ->
      Protocol.error_json ("allocation failed: " ^ msg)
  | exception e ->
      Metrics.incr m_job_errors;
      log config "%s: internal error: %s" j.Protocol.job_file
        (Printexc.to_string e);
      Protocol.error_json ("internal error: " ^ Printexc.to_string e)

let handle_request config store (req : Protocol.request) :
    Json.t * [ `Continue | `Shutdown ] =
  match req with
  | Protocol.Ping ->
      (Json.Obj [ ("ok", Json.Bool true); ("op", Json.Str "ping") ], `Continue)
  | Protocol.Stats ->
      ( Json.Obj
          [ ("ok", Json.Bool true); ("metrics", Json.Str (Metrics.dump ())) ],
        `Continue )
  | Protocol.Clear_cache ->
      Regalloc.Driver.clear_memos ();
      Cache.Store.clear_memory store;
      (Json.Obj [ ("ok", Json.Bool true) ], `Continue)
  | Protocol.Shutdown -> (Json.Obj [ ("ok", Json.Bool true) ], `Shutdown)
  | Protocol.Compile j -> (handle_job config store j, `Continue)
  | Protocol.Batch jobs ->
      ( Json.Obj
          [
            ("ok", Json.Bool true);
            ("results", Json.Arr (List.map (handle_job config store) jobs));
          ],
        `Continue )

(* The longest request line the daemon reads, in bytes.  A longer one is
   answered with an error and its connection closed, so a line that
   never ends cannot grow the daemon's memory without bound. *)
let max_request_bytes = 8 lsl 20

(* A connection's input: [chunk.(pos) .. chunk.(len - 1)] is read and
   not yet consumed; [line] holds the request line so far. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

(* The next request line without its newline, as [input_line] reads it
   (a last line may lack the newline), or [`Too_long] once the line
   passes [max_request_bytes], or [`Eof]. *)
let read_request r =
  Buffer.clear r.line;
  let rec go () =
    if r.pos = r.len then begin
      r.pos <- 0;
      r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then
      if Buffer.length r.line = 0 then `Eof else `Line (Buffer.contents r.line)
    else begin
      let stop = ref r.pos in
      while !stop < r.len && Bytes.get r.chunk !stop <> '\n' do
        incr stop
      done;
      Buffer.add_subbytes r.line r.chunk r.pos (!stop - r.pos);
      r.pos <- Int.min r.len (!stop + 1);
      if Buffer.length r.line > max_request_bytes then `Too_long
      else if !stop < r.len then `Line (Buffer.contents r.line)
      else go ()
    end
  in
  go ()

(* Serve one connection until the peer closes it or sends a request
   line longer than [max_request_bytes]; returns whether a shutdown was
   requested. *)
let serve_connection config store fd : [ `Continue | `Shutdown ] =
  let r =
    {
      ic = Unix.in_channel_of_descr fd;
      chunk = Bytes.create 65536;
      pos = 0;
      len = 0;
      line = Buffer.create 4096;
    }
  in
  let oc = Unix.out_channel_of_descr fd in
  let respond response =
    output_string oc (Json.encode response);
    output_char oc '\n';
    flush oc
  in
  let verdict = ref `Continue in
  (try
     let continue_ = ref true in
     while !continue_ do
       match read_request r with
       | `Eof -> continue_ := false
       | `Too_long ->
           log config "request line longer than %d bytes: closing"
             max_request_bytes;
           respond
             (Protocol.error_json
                (Printf.sprintf "bad request: line longer than %d bytes"
                   max_request_bytes));
           continue_ := false
       | `Line line when String.trim line = "" -> ()
       | `Line line ->
           let response, v =
             match Json.parse line with
             | Error e ->
                 (Protocol.error_json ("bad request: " ^ e), `Continue)
             | Ok doc -> (
                 match Protocol.request_of_json doc with
                 | Error e -> (Protocol.error_json e, `Continue)
                 | Ok req -> handle_request config store req)
           in
           respond response;
           if v = `Shutdown then begin
             verdict := `Shutdown;
             continue_ := false
           end
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  !verdict

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Run the daemon until a shutdown request arrives.  [ready] is called
   once the socket is listening (the in-process smoke test synchronizes
   on it; the CLI prints the socket path). *)
let run ?(ready = fun () -> ()) (config : config) : unit =
  let store =
    match config.cache_dir with
    | Some dir -> Cache.Store.create ~dir ()
    | None -> Cache.Store.create ()
  in
  mkdir_p (Filename.dirname config.socket_path);
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink config.socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
      (* A client that disconnects before its response must cost only
         its connection: with SIGPIPE ignored, the failed write raises
         EPIPE, which [serve_connection] catches, instead of killing the
         process. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Unix.listen sock 16;
      ready ();
      log config "listening on %s" config.socket_path;
      let continue_ = ref true in
      while !continue_ do
        match Unix.accept sock with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | fd, _ ->
            if serve_connection config store fd = `Shutdown then begin
              log config "shutdown requested";
              continue_ := false
            end
      done)
