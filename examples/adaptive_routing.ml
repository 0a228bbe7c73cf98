(* Adaptive routing: the paper's Section-7 outlook, made concrete.

   Unrestricted fully-adaptive routing has a cyclic (adaptive) channel
   dependency graph; Duato's methodology restores deadlock freedom with an
   escape class whose extended dependency graph is acyclic.  The adaptive
   engine shows a header routing around a blocked worm -- the payoff
   adaptivity buys over the oblivious algorithms of the main development.

   Run with: dune exec examples/adaptive_routing.exe *)

let () =
  let mesh1 = Builders.mesh [ 4; 4 ] in
  let mesh2 = Builders.mesh ~vcs:2 [ 4; 4 ] in

  Format.printf "=== Fully adaptive minimal routing (no restrictions) ===@.";
  let fully = Adaptive.fully_adaptive_minimal mesh1 in
  (match Adaptive.validate fully with
  | Ok () -> Format.printf "option function valid (delivers along every choice)@."
  | Error e -> failwith e);
  let edges = Adaptive.cdg_edges fully in
  let nchan = Topology.num_channels mesh1.topo in
  let succs = Array.make nchan [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) edges;
  Format.printf "adaptive CDG: %d dependencies, cyclic: %b -- not certifiable by acyclicity@."
    (List.length edges)
    (Scc.has_cycle ~n:nchan ~succ:(fun c -> succs.(c)));

  Format.printf "@.=== Duato's escape-channel design ===@.";
  let duato = Adaptive.duato_mesh mesh2 in
  let escape = Adaptive.escape_of_duato_mesh mesh2 in
  Format.printf "%a@." Duato.pp (Duato.check duato ~escape);

  Format.printf "@.=== Routing around a blocked worm ===@.";
  let n00 = mesh1.node_at [| 0; 0 |]
  and n20 = mesh1.node_at [| 2; 0 |]
  and n22 = mesh1.node_at [| 2; 2 |] in
  let sched =
    [
      Schedule.message ~length:40 "hog" n00 n20;
      Schedule.message ~length:2 ~at:2 "probe" n00 n22;
    ]
  in
  (* oblivious XY: the probe must wait for the 40-flit hog to drain *)
  let xy = Dimension_order.mesh mesh1 in
  (match Engine.run xy sched with
  | Engine.All_delivered { messages; _ } ->
    List.iter
      (fun (r : Engine.message_result) ->
        Format.printf "  XY      : %s delivered at %s@." r.r_label
          (match r.r_delivered_at with Some t -> string_of_int t | None -> "-"))
      messages
  | o -> Format.printf "%a@." (Engine.pp_outcome mesh1.topo) o);
  (* adaptive: the probe detours over the Y channel immediately *)
  (match Engine.run_adaptive fully sched with
  | Engine.All_delivered { messages; _ } ->
    List.iter
      (fun (r : Engine.message_result) ->
        Format.printf "  adaptive: %s delivered at %s@." r.r_label
          (match r.r_delivered_at with Some t -> string_of_int t | None -> "-"))
      messages
  | o -> Format.printf "%a@." (Engine.pp_outcome mesh1.topo) o);

  Format.printf "@.=== A small wormhole timeline (oblivious XY) ===@.";
  let sink, events = Obs_event.recorder () in
  let tiny =
    [
      Schedule.message ~length:3 "a" n00 n22;
      Schedule.message ~length:3 ~at:1 "b" (mesh1.node_at [| 1; 0 |]) (mesh1.node_at [| 1; 3 |]);
    ]
  in
  ignore (Engine.run ~obs:sink xy tiny);
  print_string (Trace.render mesh1.topo (events ()))
