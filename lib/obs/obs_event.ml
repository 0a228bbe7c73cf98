type flit_kind = Inject | Hop | Cascade | Consume

type fault_kind = Planned_failure | Planned_stall | Planned_drop | Drop_fired

type t =
  | Run_start of { engine : string; algorithm : string; messages : int }
  | Run_end of { cycle : int; outcome : string }
  | Channel_acquire of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;
    }
  | Channel_release of { cycle : int; label : string; channel : Topology.channel }
  | Wait_add of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      holder : string option;
    }
  | Wait_drop of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;
    }
  | Flit of { cycle : int; label : string; channel : Topology.channel; kind : flit_kind }
  | Delivered of { cycle : int; label : string; latency : int }
  | Abort of { cycle : int; label : string; retries : int; reason : string }
  | Retry of { cycle : int; label : string; resume_at : int }
  | Gave_up of { cycle : int; label : string; fate : string }
  | Fault of {
      cycle : int;
      kind : fault_kind;
      channel : Topology.channel option;
      label : string option;
      duration : int;
    }
  | Deadlock_detected of {
      cycle : int;
      members : string list;
      channels : Topology.channel list;
      victims : string list;
    }
  | Victim_aborted of { cycle : int; label : string; policy : string }

let fault_kind_string = function
  | Planned_failure -> "failure"
  | Planned_stall -> "stall"
  | Planned_drop -> "drop"
  | Drop_fired -> "drop-fired"

let cycle_of = function
  | Run_start _ -> None
  | Run_end { cycle; _ }
  | Channel_acquire { cycle; _ }
  | Channel_release { cycle; _ }
  | Wait_add { cycle; _ }
  | Wait_drop { cycle; _ }
  | Flit { cycle; _ }
  | Delivered { cycle; _ }
  | Abort { cycle; _ }
  | Retry { cycle; _ }
  | Gave_up { cycle; _ }
  | Fault { cycle; _ }
  | Deadlock_detected { cycle; _ }
  | Victim_aborted { cycle; _ } -> Some cycle

type sink = { emit : t -> unit }

let null = { emit = (fun _ -> ()) }

let tee sinks =
  let emit e = List.iter (fun s -> s.emit e) sinks in
  { emit }

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
