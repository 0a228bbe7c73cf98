(** Human-readable timelines of simulation runs.

    Replays one run's recorded event stream into a channel-occupancy
    timeline, one row per channel, one column per cycle -- the pictures
    wormhole-routing papers draw by hand.

    {[
      let sink, events = Obs_event.recorder () in
      let outcome = Engine.run ~obs:sink rt sched in
      print_string (Trace.render topo (events ()))
    ]} *)

val render : ?max_cycles:int -> Topology.t -> Obs_event.t list -> string
(** [render topo events] draws the run whose events [events] are, in
    emission order, from [Run_start] to [Run_end]: one column per cycle
    from 0 to the [Run_end] cycle, one row per channel that was ever
    occupied at the end of a cycle.  The cell shows the first letter of the
    occupying message's label (uppercase when the queue holds more than
    one flit, ['.'] when free).  Rows are sorted by first occupancy.
    [max_cycles] (default 120) truncates wide timelines; a truncated render
    marks every row with [" …"] and ends with an explicit ["… +N cycles"]
    line, and channels first occupied beyond the cutoff still get (empty,
    marked) rows.

    The flit counts come from the [Flit] events: a hop or cascade leaves
    the channel its message acquired just before the named one, and an
    [Abort] or [Gave_up] drains every flit of the message, as the engine
    does. *)
