(* The benchmark's own trace: spans around the public calls it makes
   (name, start, end, parent, op id), kept in memory and merged with the
   program's [Support.Trace] stage spans when the traced pass ends.  Their
   names carry a "bench." prefix, so that they never merge with a stage
   span of the same name.

   Both sets share [Support.Trace]'s clock, so one nesting pass over all
   spans gives each span its self time: its duration minus the part its
   direct children cover.  A layer's self time is the sum over the span
   names that belong to it. *)

type span = {
  id : int;
  name : string;
  op : int; (* 0 for set-up, then one id per measured operation *)
  parent : int; (* id of the enclosing benchmark span, or -1 *)
  start_us : float;
  end_us : float;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let with_span ~op name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_us = Support.Trace.now_us () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        spans :=
          { id; name = "bench." ^ name; op; parent; start_us;
            end_us = Support.Trace.now_us () }
          :: !spans)
      f
  end

(* Start recording the benchmark's spans and the program's stage spans
   and counters; [Support.Trace.enable] also sets the clock origin both
   share. *)
let start () =
  spans := [];
  stack := [];
  next_id := 0;
  Support.Metrics.reset ();
  Support.Trace.enable ();
  on := true

let stop () =
  on := false;
  Support.Trace.disable ()

(* Program spans on the main track; worker-domain and engine tracks
   carry their own nesting and are not attributed to layers. *)
let program_spans () =
  Support.Trace.locked (fun () ->
      Support.Vec.fold_left
        (fun acc (ev : Support.Trace.event) ->
          if ev.Support.Trace.ev_ph = 'X' && ev.Support.Trace.ev_tid = 0 then
            ( ev.Support.Trace.ev_name,
              ev.Support.Trace.ev_ts,
              ev.Support.Trace.ev_ts +. ev.Support.Trace.ev_dur )
            :: acc
          else acc)
        [] Support.Trace.events)

(* Self seconds per span name over the benchmark's and the program's
   spans, sorted by name. *)
let self_times () =
  let all =
    List.map (fun s -> (s.name, s.start_us, s.end_us)) !spans
    @ program_spans ()
    |> List.map (fun (n, s, e) -> (n, s, e, ref 0.))
    |> List.sort (fun (_, s1, e1, _) (_, s2, e2, _) ->
           match Float.compare s1 s2 with 0 -> Float.compare e2 e1 | c -> c)
  in
  let totals = Hashtbl.create 32 in
  let add name v =
    Hashtbl.replace totals name
      (v +. Option.value ~default:0. (Hashtbl.find_opt totals name))
  in
  (* [open_] holds the spans enclosing the current one, innermost first *)
  let close (name, s, e, covered) = add name ((e -. s -. !covered) /. 1e6) in
  let open_ =
    List.fold_left
      (fun open_ ((_, s, e, _) as span) ->
        let rec pop = function
          | ((_, _, pe, _) as p) :: rest when pe <= s ->
              close p;
              pop rest
          | l -> l
        in
        let open_ = pop open_ in
        (match open_ with
        | (_, _, pe, covered) :: _ ->
            covered := !covered +. (Float.min e pe -. s)
        | [] -> ());
        span :: open_)
      [] all
  in
  List.iter close open_;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Perfetto / chrome://tracing file: the program's events as recorded,
   and the benchmark's spans on their own track (tid 100). *)
let write_perfetto path =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit ev =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Support.Trace.buf_event buf ev
  in
  Support.Trace.locked (fun () -> Support.Vec.iter emit Support.Trace.events);
  List.iter
    (fun s ->
      emit
        {
          Support.Trace.ev_ph = 'X';
          ev_name = s.name;
          ev_cat = "bench";
          ev_ts = s.start_us;
          ev_dur = s.end_us -. s.start_us;
          ev_tid = 100;
          ev_args =
            [
              ("id", Support.Trace.Int s.id);
              ("op", Support.Trace.Int s.op);
              ("parent", Support.Trace.Int s.parent);
            ];
        })
    (List.rev !spans);
  Buffer.add_string buf "]}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)
