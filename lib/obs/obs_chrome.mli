(** Chrome [trace_event] exporter.

    Turns a recorded event stream into the JSON Array Format that
    [chrome://tracing] and Perfetto load directly.  Layout:

    - pid 0 ("channels"): one thread per channel; occupancy intervals are
      ["X"] complete events named after the owning message, with
      [args.released = false] when the stream ended with the channel still
      held (a deadlocked owner).  Blocking and faults appear as ["i"]
      instant events on the blocked channel's thread.
    - pid 1 ("messages"): one thread per message label; a lifetime interval
      from first activity to delivery/abort/give-up (re-opened after a
      retry), plus instant events for deliveries, aborts and retries.
    - counter series on pid 0: ["C"] events for channels owned, messages in
      flight and messages waiting, one sample per value change, so viewers
      draw congestion as stepped area charts above the spans.

    Cycles map 1:1 to trace microseconds. *)

val to_json : Topology.t -> Obs_event.t list -> string
(** Channel threads are named after the topology's channel names. *)
