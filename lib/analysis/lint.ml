let route_error_diag (e : Routing.error) =
  let code =
    match e.Routing.e_kind with
    | Routing.Livelock _ -> "E001"
    | Routing.Not_leaving _ -> "E002"
    | Routing.Consumed_early _ -> "E003"
    | Routing.Passed_destination -> "E004"
  in
  Diagnostic.error code
    (Diagnostic.Pair (e.Routing.e_src, e.Routing.e_dst))
    e.Routing.e_message
    ~context:[ ("algorithm", e.Routing.e_algorithm) ]

let algorithm ?(declared_minimal = false) ?(expect_deadlock_free = true) rt =
  let topo = Routing.topology rt in
  let n = Topology.num_nodes topo in
  let nchan = Topology.num_channels topo in
  let name = Routing.name rt in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let used = Array.make nchan false in
  let dist = lazy (Topology.distance_matrix topo) in
  let total = ref true in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then
        match Routing.path rt s d with
        | Error e ->
          total := false;
          add (route_error_diag e)
        | Ok p ->
          List.iter (fun c -> used.(c) <- true) p;
          if declared_minimal then begin
            let shortest = (Lazy.force dist).(s).(d) in
            let hops = List.length p in
            if shortest < max_int && hops > shortest then
              add
                (Diagnostic.error "E011" (Diagnostic.Pair (s, d))
                   (Printf.sprintf
                      "declared minimal, but the %s->%s path takes %d hops (shortest is %d)"
                      (Topology.node_name topo s) (Topology.node_name topo d) hops shortest)
                   ~context:
                     [
                       ("algorithm", name);
                       ("witness", Format.asprintf "%a" (Routing.pp_path rt) p);
                     ])
          end
    done
  done;
  Array.iteri
    (fun c u ->
      if not u then
        add
          (Diagnostic.warning "W010" (Diagnostic.Channel c)
             "dead virtual channel: no source/destination path uses it"
             ~context:[ ("algorithm", name) ]))
    used;
  (* Closure lints and CDG classification need every path to exist; when the
     routing is not total the totality errors above already tell the story. *)
  (if !total then begin
    let closure code verdict what =
      match verdict with
      | Properties.Holds -> ()
      | Properties.Fails why ->
        add
          (Diagnostic.warning code (Diagnostic.Algorithm name) (what ^ ": " ^ why))
    in
    (* the W012 verdict also feeds the cycle classification below *)
    let suffix = Properties.suffix_closed rt in
    closure "W012" suffix "not suffix-closed (Definition 8)";
    closure "W013" (Properties.prefix_closed rt) "not prefix-closed (Definition 7)";
    closure "W014" (Properties.no_repeated_nodes rt) "a path repeats a node";
    let cdg = Cdg.build rt in
    if not (Cdg.is_acyclic cdg) then begin
      let minimal = Properties.is_holds (Properties.minimal rt) in
      let suffix_closed = Properties.is_holds suffix in
      List.iter
        (fun cycle ->
          let _, verdict = Cycle_analysis.classify ~minimal ~suffix_closed cdg cycle in
          let subject = Diagnostic.Cycle cycle in
          let ctx = [ ("algorithm", name) ] in
          match verdict with
          | Cycle_analysis.Unreachable why ->
            add (Diagnostic.info "I020" subject ("false resource cycle: " ^ why) ~context:ctx)
          | Cycle_analysis.Needs_search why ->
            add
              (Diagnostic.warning "W021" subject
                 ("cycle outside the characterized cases, needs dynamic search: " ^ why)
                 ~context:ctx)
          | Cycle_analysis.Deadlock_reachable why ->
            if expect_deadlock_free then
              add
                (Diagnostic.error "E022" subject
                   ("reachable deadlock on an algorithm declared deadlock-free: " ^ why)
                   ~context:ctx)
            else
              add
                (Diagnostic.info "I023" subject
                   ("deadlock-reachable cycle (expected for this network): " ^ why)
                   ~context:ctx))
        (Cdg.elementary_cycles ~max_cycles:64 cdg)
    end
  end);
  Diagnostic.by_severity (List.rev !diags)

let adaptive ?(expect_deadlock_free = true) ?escape ad =
  let name = Adaptive.name ad in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (match Adaptive.validate ad with
  | Ok () -> ()
  | Error why ->
    add
      (Diagnostic.error "E005" (Diagnostic.Algorithm name)
         ("adaptive routing fails reachable-state validation: " ^ why)));
  (match escape with
  | None -> ()
  | Some esc ->
    let r = Duato.check ad ~escape:esc in
    if not r.Duato.escape_connected then
      add
        (Diagnostic.error "E030" (Diagnostic.Algorithm name)
           "Duato escape subfunction is not connected: some reachable state offers no escape \
            channel"
           ~context:
             (match r.Duato.connected_witness with
             | Some w -> [ ("witness", w); ("escape", Routing.name esc) ]
             | None -> [ ("escape", Routing.name esc) ]));
    if not r.Duato.extended_acyclic then begin
      let msg =
        Printf.sprintf "extended escape CDG has a cycle (%d direct + %d indirect dependencies)"
          r.Duato.direct_edges r.Duato.indirect_edges
      in
      if expect_deadlock_free then
        add
          (Diagnostic.error "E031" (Diagnostic.Algorithm name) msg
             ~context:[ ("escape", Routing.name esc) ])
      else
        add
          (Diagnostic.info "I032" (Diagnostic.Algorithm name)
             (msg ^ "; expected for this non-certified design")
             ~context:[ ("escape", Routing.name esc) ])
    end);
  Diagnostic.by_severity (List.rev !diags)

let reroute ~adaptive ~algorithm topo rt' =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ctx = [ ("reroute", Routing.name rt') ] in
  if Routing.topology rt' != topo then
    add
      (Diagnostic.error "E044" (Diagnostic.Algorithm algorithm)
         "recovery reroute is built on a different topology; the engine rejects this config"
         ~context:ctx);
  if adaptive then
    add
      (Diagnostic.warning "W044" (Diagnostic.Algorithm algorithm)
         "adaptive algorithm with a recovery reroute: the reroute pins each retried \
          message's remaining route (older releases silently ignored it); drop the reroute \
          to keep full adaptive freedom on retries"
         ~context:ctx);
  Diagnostic.by_severity (List.rev !diags)

let detect_config ~algorithm ~bound ~backstop =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ctx = [ ("bound", string_of_int bound); ("backstop", string_of_int backstop) ] in
  if bound < 1 || backstop < 1 then
    add
      (Diagnostic.error "E045" (Diagnostic.Algorithm algorithm)
         (Printf.sprintf
            "detection bound and backstop must be >= 1 (bound %d, backstop %d); the engine \
             rejects this config"
            bound backstop)
         ~context:ctx)
  else if backstop <= bound then
    add
      (Diagnostic.warning "W046" (Diagnostic.Algorithm algorithm)
         (Printf.sprintf
            "backstop %d <= detection bound %d: the no-progress sweep aborts every knot \
             member before the detector can confirm a victim, making detection dead code; \
             raise the backstop well above the bound"
            backstop bound)
         ~context:ctx);
  Diagnostic.by_severity (List.rev !diags)

let discipline_config ~algorithm ~discipline ~buffer_capacity ~max_length =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ctx =
    [
      ("discipline", discipline);
      ("buffer_capacity", string_of_int buffer_capacity);
      ("max_length", string_of_int max_length);
    ]
  in
  (match discipline with
  | "store-and-forward" ->
    if buffer_capacity < max_length then
      add
        (Diagnostic.error "E047" (Diagnostic.Algorithm algorithm)
           (Printf.sprintf
              "store-and-forward with %d-flit buffers under a %d-flit message: a whole \
               packet can never fit in one channel; the engine rejects this config -- \
               raise buffer_capacity to at least the longest message"
              buffer_capacity max_length)
           ~context:ctx)
  | "virtual-cut-through" ->
    if buffer_capacity < max_length then
      add
        (Diagnostic.warning "W048" (Diagnostic.Algorithm algorithm)
           (Printf.sprintf
              "virtual cut-through with %d-flit buffers under a %d-flit message: \
               undersized cut-through buffers degenerate to wormhole, so the kernel \
               silently provisions every channel with a whole-packet buffer instead; \
               set buffer_capacity >= the longest message to make that explicit"
              buffer_capacity max_length)
           ~context:ctx)
  | _ -> ());
  Diagnostic.by_severity (List.rev !diags)

let fault_plan ?labels topo plan =
  let nchan = Topology.num_channels topo in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let events = Fault.events plan in
  let in_range c = c >= 0 && c < nchan in
  (* earliest permanent failure per (valid) channel, for the stall lint *)
  let fail_at = Hashtbl.create 8 in
  List.iter
    (function
      | Fault.Link_failure { channel; at } when in_range channel -> (
        match Hashtbl.find_opt fail_at channel with
        | Some t when t <= at -> ()
        | _ -> Hashtbl.replace fail_at channel at)
      | _ -> ())
    events;
  let seen_failures = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      let subject = Diagnostic.Event i in
      match ev with
      | Fault.Link_failure { channel; at } ->
        if not (in_range channel) then
          add
            (Diagnostic.error "E040" subject
               (Printf.sprintf "link failure references channel %d outside the topology (%d \
                                channels)"
                  channel nchan))
        else if Hashtbl.mem seen_failures channel then
          add
            (Diagnostic.warning "W043" subject
               (Printf.sprintf "redundant permanent failure: %s already fails at cycle %d"
                  (Topology.channel_name topo channel)
                  (Hashtbl.find fail_at channel))
               ~context:[ ("at", string_of_int at) ])
        else Hashtbl.replace seen_failures channel ()
      | Fault.Transient_stall { channel; at; duration } ->
        if not (in_range channel) then
          add
            (Diagnostic.error "E040" subject
               (Printf.sprintf "stall references channel %d outside the topology (%d channels)"
                  channel nchan))
        else (
          match Hashtbl.find_opt fail_at channel with
          | Some fat when fat <= at ->
            add
              (Diagnostic.error "E041" subject
                 (Printf.sprintf
                    "unsatisfiable stall window: %s is permanently failed from cycle %d, \
                     before the stall at %d+%d begins"
                    (Topology.channel_name topo channel) fat at duration))
          | _ -> ())
      | Fault.Message_drop { label; at } -> (
        match labels with
        | Some ls when not (List.mem label ls) ->
          add
            (Diagnostic.warning "W042" subject
               (Printf.sprintf "drop references label %S, which no scheduled message carries"
                  label)
               ~context:[ ("at", string_of_int at) ])
        | _ -> ()))
    events;
  Diagnostic.by_severity (List.rev !diags)
