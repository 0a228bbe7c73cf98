(* Process-wide event-sink management plus the standard consumers.

   Mirrors the Sanitizer install/current pattern: one optional sink held in
   an Atomic, read by the engines at run start.  Engines hoist the option
   once per run and guard every emission site with [if obs_on], so a
   disabled bus costs one Atomic read per run and nothing per cycle. *)

module Event = Obs_event
module Metrics = Obs_metrics
module Chrome = Obs_chrome
module Postmortem = Obs_postmortem
module Stats = Obs_stats

type sink = { emit : Obs_event.t -> unit }

let installed : sink option Atomic.t = Atomic.make None
let install s = Atomic.set installed (Some s)
let uninstall () = Atomic.set installed None
let current () = Atomic.get installed
let enabled () = Atomic.get installed <> None

let emit e = match Atomic.get installed with None -> () | Some s -> s.emit e

let tee sinks =
  let emit e = List.iter (fun s -> s.emit e) sinks in
  { emit }

let null = { emit = (fun _ -> ()) }

let recorder () =
  let lock = Mutex.create () in
  let events = ref [] in
  let emit e =
    Mutex.lock lock;
    events := e :: !events;
    Mutex.unlock lock
  in
  let contents () =
    Mutex.lock lock;
    let l = List.rev !events in
    Mutex.unlock lock;
    l
  in
  ({ emit }, contents)
