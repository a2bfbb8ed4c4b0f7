(* Pipeline-wide tracing: nestable timed spans with key/value attributes,
   instant events and counter series, exported as Chrome trace-event JSON
   (the "JSON Array Format") loadable in Perfetto or chrome://tracing.

   The recorder is a process-wide buffer behind a single [on] flag.  When
   tracing is disabled -- the default -- every entry point reduces to one
   boolean test and runs the traced thunk directly, so instrumented hot
   paths (the branch-and-bound loop, the chip run loop) cost nothing and
   allocate nothing.  [enable] resets the buffer and starts a fresh
   timebase; [disable] stops recording but keeps the buffer so it can
   still be exported or aggregated.

   Timestamps are microseconds from [enable] on the monotonic clock
   ([Monotonic]), matching the trace-event format's expected unit.
   Callers with their own timebase (the cycle-accurate chip model) can
   emit pre-timed events through [complete]; one simulated cycle is
   conventionally mapped to one microsecond so Perfetto's ruler reads in
   cycles. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ev_ph : char; (* 'X' complete span, 'i' instant, 'C' counter *)
  ev_name : string;
  ev_cat : string;
  ev_ts : float; (* microseconds since [enable] (or caller timebase) *)
  ev_dur : float; (* 'X' only *)
  ev_tid : int;
  ev_args : (string * value) list;
}

(* In `bench` and `perfbench` the compile daemon runs on its own domain
   beside the client, and both emit spans and instants concurrently, so
   the enabled flag is an [Atomic] (a plain [ref] read could be torn
   against [enable]'s buffer clear) and every buffer mutation happens
   under one mutex.  The disabled-path cost is
   unchanged: a single atomic load, no lock. *)
let on = Atomic.make false
let origin_ns = ref 0L
let events : event Vec.t = Vec.create ()
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let push ev = locked (fun () -> Vec.push events ev)
let is_enabled () = Atomic.get on

let enable () =
  locked (fun () ->
      Vec.clear events;
      origin_ns := Monotonic.now_ns ());
  Atomic.set on true

let disable () = Atomic.set on false

let reset () =
  Atomic.set on false;
  locked (fun () -> Vec.clear events)

let num_events () = locked (fun () -> Vec.length events)

let now_us () =
  Int64.to_float (Int64.sub (Monotonic.now_ns ()) !origin_ns) /. 1e3

(* Raw emission with a caller-supplied timebase (already in "us"). *)
let complete ?(cat = "") ?(tid = 0) ?(args = []) ~ts_us ~dur_us name =
  if Atomic.get on then
    push
      {
        ev_ph = 'X';
        ev_name = name;
        ev_cat = cat;
        ev_ts = ts_us;
        ev_dur = dur_us;
        ev_tid = tid;
        ev_args = args;
      }

(* Time [f], recording a complete span even when [f] raises (the span is
   what you want to see when hunting the stage that blew up). *)
let with_span ?(cat = "") ?(tid = 0) ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      complete ~cat ~tid ~args ~ts_us:t0 ~dur_us:(now_us () -. t0) name
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let instant ?(cat = "") ?(tid = 0) ?(args = []) name =
  if Atomic.get on then
    push
      {
        ev_ph = 'i';
        ev_name = name;
        ev_cat = cat;
        ev_ts = now_us ();
        ev_dur = 0.;
        ev_tid = tid;
        ev_args = args;
      }

(* A named family of counter series sampled at the current time;
   rendered by Perfetto as stacked area charts. *)
let counter ?(tid = 0) name series =
  if Atomic.get on then
    push
      {
        ev_ph = 'C';
        ev_name = name;
        ev_cat = "";
        ev_ts = now_us ();
        ev_dur = 0.;
        ev_tid = tid;
        ev_args = List.map (fun (k, v) -> (k, Float v)) series;
      }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Total recorded duration per span name, in seconds, sorted by name.
   Durations are inclusive of nested spans (a "branch-and-bound" total
   contains the "root-lp" span inside it). *)
let span_totals () =
  let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 32 in
  locked (fun () ->
  Vec.iter
    (fun ev ->
      if ev.ev_ph = 'X' then
        match Hashtbl.find_opt tbl ev.ev_name with
        | Some r -> r := !r +. ev.ev_dur
        | None -> Hashtbl.add tbl ev.ev_name (ref ev.ev_dur))
    events);
  Hashtbl.fold (fun name r acc -> (name, !r /. 1e6) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON export                                      *)
(* ------------------------------------------------------------------ *)

let buf_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let buf_string buf s =
  Buffer.add_char buf '"';
  buf_escape buf s;
  Buffer.add_char buf '"'

(* JSON has no NaN/Infinity literals; clamp them so the export always
   parses. *)
let buf_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if f = infinity then Buffer.add_string buf "1e308"
  else if f = neg_infinity then Buffer.add_string buf "-1e308"
  else Buffer.add_string buf (Printf.sprintf "%.3f" f)

let buf_value buf = function
  | Str s -> buf_string buf s
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> buf_float buf f
  | Bool b -> Buffer.add_string buf (string_of_bool b)

let buf_event buf ev =
  Buffer.add_string buf "{\"name\":";
  buf_string buf ev.ev_name;
  if ev.ev_cat <> "" then begin
    Buffer.add_string buf ",\"cat\":";
    buf_string buf ev.ev_cat
  end;
  Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%c\",\"ts\":" ev.ev_ph);
  buf_float buf ev.ev_ts;
  if ev.ev_ph = 'X' then begin
    Buffer.add_string buf ",\"dur\":";
    buf_float buf ev.ev_dur
  end;
  if ev.ev_ph = 'i' then Buffer.add_string buf ",\"s\":\"t\"";
  Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" ev.ev_tid);
  if ev.ev_args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        buf_string buf k;
        Buffer.add_char buf ':';
        buf_value buf v)
      ev.ev_args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}'

let to_json () =
  let buf = Buffer.create (256 + (Vec.length events * 96)) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  locked (fun () ->
      Vec.iteri
        (fun i ev ->
          if i > 0 then Buffer.add_string buf ",\n";
          buf_event buf ev)
        events);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))
