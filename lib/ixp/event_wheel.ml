(* Scheduler over a small, fixed population of event sources.

   The chip and cluster run loops schedule one pending event per source
   (an engine's next issue cycle, a chip's next internal event) and
   repeatedly pop the globally earliest one.  There are few sources --
   at most 6 engines per chip, 4 chips per cluster -- so the queue is
   just the scheduled cycle of each source in a flat [int array], and
   [next_time] and [pop] scan it.  A scan over six ints costs less than
   probing timing-wheel buckets, and it has no cursor to roll back when
   an arrival schedules an event earlier than the last one peeked.
   Every operation is allocation-free, which is what lets the
   steady-state simulation loop run at zero minor words per packet.

   Determinism: [pop] returns the event with the smallest timestamp,
   breaking ties toward the lowest id, so run loops built on it
   reproduce the scan order of the nested-loop scheduler they replace. *)

type t = {
  at : int array; (* event id -> scheduled cycle, or [no_event] *)
  mutable live : int; (* number of scheduled events *)
}

let no_event = max_int

let create nevents =
  if nevents <= 0 then invalid_arg "Event_wheel.create: nevents <= 0";
  { at = Array.make nevents no_event; live = 0 }

let is_empty t = t.live = 0

let clear t =
  Array.fill t.at 0 (Array.length t.at) no_event;
  t.live <- 0

let cancel t id =
  if t.at.(id) <> no_event then begin
    t.at.(id) <- no_event;
    t.live <- t.live - 1
  end

(* (Re)schedule [id] at cycle [cycle]. *)
let schedule t id ~cycle =
  if cycle < 0 then invalid_arg "Event_wheel.schedule: negative cycle";
  if t.at.(id) = no_event then t.live <- t.live + 1;
  t.at.(id) <- cycle

(* Id of the earliest event, lowest id on ties; -1 when none. *)
let earliest t =
  let best = ref (-1) and m = ref no_event in
  for id = 0 to Array.length t.at - 1 do
    let c = Array.unsafe_get t.at id in
    if c < !m then begin
      m := c;
      best := id
    end
  done;
  !best

(* Earliest scheduled cycle; [no_event] when nothing is scheduled. *)
let next_time t =
  let id = earliest t in
  if id < 0 then no_event else t.at.(id)

(* Remove and return the id of the earliest event (lowest id on ties). *)
let pop t =
  let id = earliest t in
  if id < 0 then invalid_arg "Event_wheel.pop: empty";
  cancel t id;
  id
