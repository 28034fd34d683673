(* One process-wide set of worker domains, spawned on the first map that
   can use them and kept until the process exits. A domain is never
   joined and respawned: OCaml 5.1 keeps the memory of every domain ever
   spawned, and a spawn+join costs ~144 µs, so per-batch domains would
   grow the heap and eat the gain. The caller always works on its own
   map too.

   A map is one [job]: workers and the caller claim indices with an
   atomic counter, and whoever finishes the last item wakes the caller.
   A worker that is late to a job finds its counter exhausted and goes
   back to waiting for the next generation. *)

type job = {
  run : int -> unit;  (* compute and store item i *)
  n : int;
  next : int Atomic.t;  (* first unclaimed index *)
  left : int Atomic.t;  (* items not yet stored *)
}

type t = {
  lock : Mutex.t;
  posted : Condition.t;  (* [generation] moved on *)
  finished : Condition.t;  (* the current job's last item was stored *)
  mutable job : job option;
  mutable generation : int;
}

let extra_domains = Int.max 0 (Domain.recommended_domain_count () - 1)

let work pool job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      job.run i;
      if Int.equal (Atomic.fetch_and_add job.left (-1)) 1 then begin
        Mutex.lock pool.lock;
        Condition.broadcast pool.finished;
        Mutex.unlock pool.lock
      end;
      go ()
    end
  in
  go ()

let rec serve pool seen =
  Mutex.lock pool.lock;
  while Int.equal pool.generation seen do
    Condition.wait pool.posted pool.lock
  done;
  let generation = pool.generation and job = pool.job in
  Mutex.unlock pool.lock;
  Option.iter (work pool) job;
  serve pool generation

(* A worker only runs map items, which allocate little and keep
   nothing, so a small minor heap serves it: each domain's minor heap is
   its own resident memory for the life of the process. *)
let worker_minor_heap_words = 32 * 1024

let worker pool =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
  serve pool 0

let spawn_count = Atomic.make 0

let spawn () =
  let pool =
    {
      lock = Mutex.create ();
      posted = Condition.create ();
      finished = Condition.create ();
      job = None;
      generation = 0;
    }
  in
  (* A host that refuses a domain leaves fewer workers, never an error:
     the caller can always finish a job alone. *)
  (try
     for _ = 1 to extra_domains do
       ignore (Domain.spawn (fun () -> worker pool) : unit Domain.t);
       Atomic.incr spawn_count
     done
   with Failure _ -> ());
  pool

let shared = lazy (spawn ())

(* Held by the one map that owns the pool; a concurrent caller (another
   domain or thread) maps on its own instead of waiting. *)
let owner = Mutex.create ()

let run pool f xs =
  let n = Array.length xs in
  let out = Array.make n None in
  let job =
    {
      run = (fun i -> out.(i) <- Some (try Ok (f xs.(i)) with e -> Error e));
      n;
      next = Atomic.make 0;
      left = Atomic.make n;
    }
  in
  Mutex.lock pool.lock;
  pool.job <- Some job;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.posted;
  Mutex.unlock pool.lock;
  work pool job;
  Mutex.lock pool.lock;
  while Atomic.get job.left > 0 do
    Condition.wait pool.finished pool.lock
  done;
  pool.job <- None;
  Mutex.unlock pool.lock;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> invalid_arg "Domain_pool.map: item lost")
    out

let map f xs =
  if Array.length xs < 2 || Int.equal extra_domains 0 || not (Mutex.try_lock owner)
  then
    Array.map f xs
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock owner)
      (fun () -> run (Lazy.force shared) f xs)

let spawned () = Atomic.get spawn_count
