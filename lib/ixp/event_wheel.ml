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

   A run loop peeks with [next_time] and then pops the same event, so
   the scan's result is kept until an operation may change it: a
   [schedule] that beats it (or moves it earlier) updates it in place,
   and only cancelling it or moving it later forces the next peek to
   scan again.  Each event then costs one scan, not two.

   Determinism: [pop] returns the event with the smallest timestamp,
   breaking ties toward the lowest id, so run loops built on it
   reproduce the scan order of the nested-loop scheduler they replace. *)

type t = {
  at : int array; (* event id -> scheduled cycle, or [no_event] *)
  mutable live : int; (* number of scheduled events *)
  mutable first : int; (* earliest id (-1: none) when [known] *)
  mutable known : bool;
}

let no_event = max_int

let create nevents =
  if nevents <= 0 then invalid_arg "Event_wheel.create: nevents <= 0";
  { at = Array.make nevents no_event; live = 0; first = -1; known = true }

let is_empty t = t.live = 0

let clear t =
  Array.fill t.at 0 (Array.length t.at) no_event;
  t.live <- 0;
  t.first <- -1;
  t.known <- true

let cancel t id =
  if t.at.(id) <> no_event then begin
    t.at.(id) <- no_event;
    t.live <- t.live - 1;
    if id = t.first then t.known <- false
  end

(* (Re)schedule [id] at cycle [cycle]. *)
let schedule t id ~cycle =
  if cycle < 0 then invalid_arg "Event_wheel.schedule: negative cycle";
  let old = t.at.(id) in
  if old = no_event then t.live <- t.live + 1;
  t.at.(id) <- cycle;
  if t.known then
    if id = t.first then (if cycle > old then t.known <- false)
    else if
      t.first < 0
      || cycle < t.at.(t.first)
      || (cycle = t.at.(t.first) && id < t.first)
    then t.first <- id

(* Id of the earliest event, lowest id on ties; -1 when none. *)
let earliest t =
  if not t.known then begin
    let best = ref (-1) and m = ref no_event in
    for id = 0 to Array.length t.at - 1 do
      let c = Array.unsafe_get t.at id in
      if c < !m then begin
        m := c;
        best := id
      end
    done;
    t.first <- !best;
    t.known <- true
  end;
  t.first

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
