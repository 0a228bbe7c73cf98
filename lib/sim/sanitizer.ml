(* Counters are atomic and the diagnostics list is mutex-protected: a single
   installed sanitizer observes engine runs from every domain of a parallel
   sweep concurrently. *)
type t = {
  fail_fast : bool;
  limit : int;
  lock : Mutex.t;
  mutable diags : Diagnostic.t list; (* newest first; guarded by [lock] *)
  count : int Atomic.t;
  cycles : int Atomic.t;
}

exception Violation of Diagnostic.t

let create ?(fail_fast = false) ?(limit = 100) () =
  if limit < 0 then invalid_arg "Sanitizer.create: limit < 0";
  {
    fail_fast;
    limit;
    lock = Mutex.create ();
    diags = [];
    count = Atomic.make 0;
    cycles = Atomic.make 0;
  }

(* Trips are kept here and never emitted as events: a fail-fast trip
   raises out of the run before any trace of it could be written. *)
let record s d =
  if s.fail_fast then raise (Violation d);
  let n = 1 + Atomic.fetch_and_add s.count 1 in
  if n <= s.limit then begin
    Mutex.lock s.lock;
    s.diags <- d :: s.diags;
    Mutex.unlock s.lock
  end

let note_cycle s = Atomic.incr s.cycles

let diagnostics s =
  Mutex.lock s.lock;
  let ds = s.diags in
  Mutex.unlock s.lock;
  List.rev ds

let violation_count s = Atomic.get s.count
let cycles_checked s = Atomic.get s.cycles
let ok s = Atomic.get s.count = 0

let reset s =
  Mutex.lock s.lock;
  s.diags <- [];
  Mutex.unlock s.lock;
  Atomic.set s.count 0;
  Atomic.set s.cycles 0

let installed : t option ref = ref None

let install s = installed := Some s
let uninstall () = installed := None
let current () = !installed

(* WORMHOLE_SANITIZE=1 in the environment arms a fail-fast sanitizer for the
   whole process, so `WORMHOLE_SANITIZE=1 dune runtest` checks every engine
   run the test suite makes without any code change. *)
let () =
  match Sys.getenv_opt "WORMHOLE_SANITIZE" with
  | None | Some "" | Some "0" -> ()
  | Some _ -> install (create ~fail_fast:true ())
