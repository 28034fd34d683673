type t = { emit : ts:float -> Event.t -> unit; flush : unit -> unit }

let make ?(flush = fun () -> ()) emit = { emit; flush }
let null = { emit = (fun ~ts:_ _ -> ()); flush = (fun () -> ()) }
let emit t ~ts ev = t.emit ~ts ev
let flush t = t.flush ()

let jsonl ?flush write =
  make ?flush (fun ~ts ev ->
      write (Event.to_json ~ts ev);
      write "\n")

(* The ring keeps events and their stamps in two parallel arrays, so
   recording is two slot writes and allocates nothing (the event was
   already allocated by its emitter). *)
module Ring = struct
  type t = {
    capacity : int;
    events : Event.t array;  (* slots >= next hold the unread sentinel *)
    stamps : float array;
    mutable next : int;  (* total events ever recorded *)
  }

  (* Unwritten slots are never read; this just keeps them inert. *)
  let sentinel = Event.Partition_changed { groups = None }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Sink.Ring.create: capacity must be positive";
    {
      capacity;
      events = Array.make capacity sentinel;
      stamps = Array.make capacity 0.;
      next = 0;
    }

  let record t ~ts ev =
    let i = t.next mod t.capacity in
    t.events.(i) <- ev;
    t.stamps.(i) <- ts;
    t.next <- t.next + 1

  let sink t = make (fun ~ts ev -> record t ~ts ev)
  let recorded t = t.next
  let dropped t = max 0 (t.next - t.capacity)

  let events t =
    let kept = min t.next t.capacity in
    let first = t.next - kept in
    List.init kept (fun i ->
        let j = (first + i) mod t.capacity in
        (t.stamps.(j), t.events.(j)))
end
