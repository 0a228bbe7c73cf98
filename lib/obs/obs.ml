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

(* ------------------------------------------------------------------ *)
(* Metrics fold                                                        *)

(* Standard metric vocabulary.  Every instrument is pre-registered for the
   label values the event stream can produce, so the emit path is pure
   Atomic updates -- no registry lock on the hot path. *)

let cycle_buckets = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]
let wait_buckets = [ 1; 2; 4; 8; 16; 32; 64; 128 ]

let metrics_sink reg =
  let c = Metrics.counter reg in
  let h = Metrics.histogram reg in
  let runs = c ~help:"Engine runs started" "wormhole_runs_total" in
  let outcome =
    let mk o =
      (o, c ~help:"Engine runs finished, by outcome" ~labels:[ ("outcome", o) ]
            "wormhole_run_outcomes_total")
    in
    [ mk "all-delivered"; mk "deadlock"; mk "cutoff"; mk "recovered" ]
  in
  let run_cycles =
    h ~help:"Final cycle count per run" ~buckets:cycle_buckets "wormhole_run_cycles"
  in
  let flits =
    let mk k =
      (k, c ~help:"Flit movements, by kind" ~labels:[ ("kind", Event.flit_kind_string k) ]
            "wormhole_flits_total")
    in
    [ mk Event.Inject; mk Event.Hop; mk Event.Cascade; mk Event.Consume ]
  in
  let acquires = c ~help:"Channel acquisitions" "wormhole_channel_acquisitions_total" in
  let releases = c ~help:"Channel releases" "wormhole_channel_releases_total" in
  let wait_edges = c ~help:"Wait-for edges added" "wormhole_wait_edges_total" in
  let wait_cycles =
    h ~help:"Cycles spent blocked per resolved wait" ~buckets:wait_buckets
      "wormhole_wait_cycles"
  in
  let delivered = c ~help:"Messages delivered" "wormhole_messages_delivered_total" in
  let latency =
    h ~help:"Injection-to-delivery latency" ~buckets:cycle_buckets
      "wormhole_message_latency_cycles"
  in
  let aborts reason =
    c ~help:"Recovery aborts, by reason" ~labels:[ ("reason", reason) ]
      "wormhole_aborts_total"
  in
  let abort_watchdog = aborts "watchdog"
  and abort_drop = aborts "drop"
  and abort_deadlock = aborts "deadlock" in
  let detections =
    c ~help:"Deadlock knots confirmed by the online detector"
      "wormhole_deadlocks_detected_total"
  in
  let victims =
    c ~help:"Messages aborted as deadlock victims" "wormhole_victims_aborted_total"
  in
  let retries = c ~help:"Messages rescheduled after an abort" "wormhole_retries_total" in
  let gave_up = c ~help:"Messages that exhausted their retry budget" "wormhole_gave_up_total" in
  let faults =
    let mk k =
      (k, c ~help:"Fault-plan events, by kind" ~labels:[ ("kind", Event.fault_kind_string k) ]
            "wormhole_faults_total")
    in
    [ mk Event.Planned_failure; mk Event.Planned_stall; mk Event.Planned_drop;
      mk Event.Drop_fired ]
  in
  let trips sev =
    c ~help:"Sanitizer diagnostics, by severity" ~labels:[ ("severity", sev) ]
      "wormhole_sanitizer_trips_total"
  in
  let trip_error = trips "error" and trip_warning = trips "warning" and trip_info = trips "info" in
  let pool_claims = c ~help:"Pool chunk claims" "wormhole_pool_task_claims_total" in
  let pool_tasks = c ~help:"Pool tasks claimed" "wormhole_pool_tasks_claimed_total" in
  let pool_cancels = c ~help:"Pool tasks cancelled" "wormhole_pool_task_cancels_total" in
  let searches = c ~help:"Search invocations" "wormhole_searches_total" in
  let search_runs = c ~help:"Canonical engine runs inside searches" "wormhole_search_runs_total" in
  let search_cancelled =
    c ~help:"Speculative engine runs discarded by search cancellation"
      "wormhole_search_cancelled_total"
  in
  let emit (e : Event.t) =
    match e with
    | Run_start _ -> Metrics.inc runs
    | Run_end { cycle; outcome = o } ->
      (match List.assoc_opt o outcome with Some cc -> Metrics.inc cc | None -> ());
      Metrics.observe run_cycles cycle
    | Channel_acquire { waited; _ } ->
      Metrics.inc acquires;
      if waited > 0 then Metrics.observe wait_cycles waited
    | Channel_release _ -> Metrics.inc releases
    | Wait_add _ -> Metrics.inc wait_edges
    | Wait_drop { waited; _ } -> Metrics.observe wait_cycles waited
    | Flit { kind; _ } -> Metrics.inc (List.assq kind flits)
    | Delivered { latency = l; _ } ->
      Metrics.inc delivered;
      Metrics.observe latency l
    | Abort { reason; _ } ->
      Metrics.inc
        (match reason with
        | "drop" -> abort_drop
        | "deadlock" -> abort_deadlock
        | _ -> abort_watchdog)
    | Deadlock_detected _ -> Metrics.inc detections
    | Victim_aborted _ -> Metrics.inc victims
    | Retry _ -> Metrics.inc retries
    | Gave_up _ -> Metrics.inc gave_up
    | Fault { kind; _ } -> Metrics.inc (List.assq kind faults)
    | Sanitizer_trip d ->
      Metrics.inc
        (match d.Diagnostic.severity with
        | Diagnostic.Error -> trip_error
        | Diagnostic.Warning -> trip_warning
        | Diagnostic.Info -> trip_info)
    | Task_claim { first; last; _ } ->
      Metrics.inc pool_claims;
      Metrics.add pool_tasks (last - first + 1)
    | Task_cancel _ -> Metrics.inc pool_cancels
    | Search_start _ -> Metrics.inc searches
    | Search_end { runs = r; cancelled; _ } ->
      Metrics.add search_runs r;
      Metrics.add search_cancelled cancelled
  in
  { emit }

(* ------------------------------------------------------------------ *)
(* Pool bridge                                                         *)

let attach_pool () =
  Wr_pool.set_observer
    (Some
       (fun ev ->
         match Atomic.get installed with
         | None -> ()
         | Some s -> (
           match ev with
           | Wr_pool.Claim { first; last } ->
             s.emit (Event.Task_claim { pool = "wr_pool"; first; last })
           | Wr_pool.Cancel { index } ->
             s.emit (Event.Task_cancel { pool = "wr_pool"; index }))))

let detach_pool () = Wr_pool.set_observer None
