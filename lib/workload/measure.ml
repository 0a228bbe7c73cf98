type report = {
  total : int;
  delivered : int;
  finished_at : int;
  deadlocked : bool;
  deadlock_class : Engine.deadlock_class option;
  recovered : bool;
  retries : int;
  avg_latency : float;
  p95_latency : float;
  max_latency : float;
  throughput : float;
}

let run ?config ?obs ?stats rt sched =
  let outcome = Engine.run ?config ?obs ?stats rt sched in
  let by_label = Hashtbl.create 64 in
  List.iter (fun (m : Schedule.message_spec) -> Hashtbl.replace by_label m.ms_label m) sched;
  let stats = Stats.create () in
  let flits = ref 0 in
  let collect (results : Engine.message_result list) =
    List.iter
      (fun (r : Engine.message_result) ->
        match r.r_delivered_at with
        | None -> ()
        | Some fin ->
          let spec = Hashtbl.find by_label r.r_label in
          flits := !flits + spec.Schedule.ms_length;
          Stats.add stats (float_of_int (fin - spec.Schedule.ms_inject_at + 1)))
      results
  in
  let finished_at, deadlocked, deadlock_class, recovered, retries =
    match outcome with
    | Engine.All_delivered { finished_at; messages } ->
      collect messages;
      (finished_at, false, None, false, 0)
    | Engine.Cutoff { at; messages } ->
      collect messages;
      (at, false, None, false, 0)
    | Engine.Deadlock d -> (d.Engine.d_cycle, true, Some d.Engine.d_class, false, 0)
    | Engine.Recovered { finished_at; messages; stats = rstats } ->
      collect messages;
      ( finished_at,
        false,
        None,
        true,
        List.fold_left (fun acc (s : Engine.retry_stat) -> acc + s.t_retries) 0 rstats )
  in
  {
    total = List.length sched;
    delivered = Stats.count stats;
    finished_at;
    deadlocked;
    deadlock_class;
    recovered;
    retries;
    avg_latency = Stats.mean stats;
    p95_latency = Stats.percentile stats 95.0;
    max_latency = (if Stats.count stats = 0 then 0.0 else Stats.max_value stats);
    throughput =
      (if finished_at <= 0 then 0.0 else float_of_int !flits /. float_of_int (finished_at + 1));
  }

let pp ppf r =
  Format.fprintf ppf
    "%d/%d delivered%s in %d cycles; latency avg %.1f p95 %.1f max %.0f; throughput %.3f \
     flits/cycle"
    r.delivered r.total
    (if r.deadlocked then
       match r.deadlock_class with
       | Some c -> Printf.sprintf " (DEADLOCK, %s)" (Engine.deadlock_class_string c)
       | None -> " (DEADLOCK)"
     else if r.recovered then Printf.sprintf " (recovered, %d retries)" r.retries
     else "")
    r.finished_at r.avg_latency r.p95_latency r.max_latency r.throughput
