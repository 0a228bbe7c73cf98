(* Flit-level wormhole simulation CLI.

   Examples:
     wormsim --topology mesh --dims 8x8 --routing xy --pattern uniform --rate 0.02
     wormsim --topology torus --dims 5x5 --routing ecube --pattern tornado --permutation
     wormsim --topology ring --dims 6 --routing clockwise --permutation
     wormsim --topology figure1 --faults 'stall:s0>r0@3+20' --recovery
     wormsim --topology mesh --dims 4x4 --faults random --recovery --retry-limit 3 *)

open Cmdliner

type built = {
  coords : Builders.coords;
  routing : [ `Oblivious of Routing.t | `Adaptive of Adaptive.t ];
}

let paper_net name = Option.map (fun f -> f.Paper_nets.f_net) (Paper_nets.find_figure name)

(* --routing synth: a synthesized certified routing on the topology, or
   the E060 refusal when none exists *)
let synthesized name topo =
  match Synth.synthesize ~name:(name ^ "-synth") topo with
  | Ok (rt, plan) ->
    Format.printf "synthesized routing via %s: %d dependencies rank-increasing@."
      plan.Synth.p_strategy plan.Synth.p_dependencies;
    rt
  | Error w ->
    failwith
      (Format.asprintf "network admits no deadlock-free routing (E060): %a"
         (Synth.pp_witness topo) w)

(* The paper networks replay their designated messages under the CD
   algorithm by default; --routing synth swaps in a synthesized certified
   routing on the same network (same message set, deadlock-free paths). *)
let paper_rt topology routing net =
  if routing = "synth" then synthesized topology net.Paper_nets.topo
  else Cd_algorithm.of_net net

let build topology dims routing =
  let dims_list =
    String.split_on_char 'x' dims
    |> List.map (fun s ->
           match int_of_string_opt (String.trim s) with
           | Some n -> n
           | None -> failwith ("bad dimension: " ^ s))
  in
  match (topology, routing) with
  | "mesh", "xy" ->
    let coords = Builders.mesh dims_list in
    { coords; routing = `Oblivious (Dimension_order.mesh coords) }
  | "mesh", "west-first" ->
    let coords = Builders.mesh dims_list in
    { coords; routing = `Oblivious (Turn_model.west_first coords) }
  | "mesh", "north-last" ->
    let coords = Builders.mesh dims_list in
    { coords; routing = `Oblivious (Turn_model.north_last coords) }
  | "mesh", "negative-first" ->
    let coords = Builders.mesh dims_list in
    { coords; routing = `Oblivious (Turn_model.negative_first coords) }
  | "mesh", "adaptive" ->
    let coords = Builders.mesh dims_list in
    { coords; routing = `Adaptive (Adaptive.fully_adaptive_minimal coords) }
  | "mesh", "duato" ->
    let coords = Builders.mesh ~vcs:2 dims_list in
    { coords; routing = `Adaptive (Adaptive.duato_mesh coords) }
  | "torus", "ecube" ->
    let coords = Builders.torus dims_list in
    { coords; routing = `Oblivious (Dimension_order.torus coords) }
  | "torus", "dateline" ->
    let coords = Builders.torus ~vcs:2 dims_list in
    { coords; routing = `Oblivious (Dimension_order.torus ~datelines:true coords) }
  | "hypercube", "ecube" ->
    let coords = Builders.hypercube (List.hd dims_list) in
    { coords; routing = `Oblivious (Dimension_order.hypercube coords) }
  | "ring", "clockwise" ->
    let coords = Builders.ring ~unidirectional:true (List.hd dims_list) in
    { coords; routing = `Oblivious (Ring_routing.clockwise coords) }
  | "ring", "dateline" ->
    let coords = Builders.ring ~unidirectional:true ~vcs:2 (List.hd dims_list) in
    { coords; routing = `Oblivious (Ring_routing.dateline coords) }
  | t, "synth" ->
    (* synthesize the routing from the topology alone; the unidirectional
       ring gets dateline VCs so synthesis has a deadlock-free design to
       find (the 1-VC ring admits none and would be refused with E060) *)
    let coords =
      match t with
      | "mesh" -> Builders.mesh dims_list
      | "torus" -> Builders.torus dims_list
      | "hypercube" -> Builders.hypercube (List.hd dims_list)
      | "ring" -> Builders.ring ~unidirectional:true ~vcs:2 (List.hd dims_list)
      | _ -> failwith (Printf.sprintf "unsupported topology/routing combination %s/synth" t)
    in
    { coords; routing = `Oblivious (synthesized t coords.Builders.topo) }
  | t, r -> failwith (Printf.sprintf "unsupported topology/routing combination %s/%s" t r)

let pattern_of coords rng = function
  | "uniform" -> Traffic.uniform rng coords
  | "transpose" -> Traffic.transpose coords
  | "bit-complement" -> Traffic.bit_complement coords
  | "bit-reverse" -> Traffic.bit_reverse coords
  | "tornado" -> Traffic.tornado coords
  | "neighbor" -> Traffic.neighbor coords
  | "hotspot" -> Traffic.hotspot rng coords 0
  | p -> failwith ("unknown pattern: " ^ p)

(* --faults: "random" for a seeded random plan, otherwise the Fault.parse
   format, e.g. "fail:a>b@10,stall:c>d@0+25,drop:m3@2" *)
let fault_plan topo rng horizon = function
  | "" -> Fault.empty
  | "random" -> Fault.random ~link_failures:1 ~stalls:2 ~max_stall:20 ~horizon rng topo
  | spec -> (
    match Fault.parse topo spec with
    | Ok plan -> plan
    | Error e -> failwith ("bad --faults spec: " ^ e))

(* The re-certified routing around the [failed] channels, reported on
   stdout; [None] (retry [fallback]) when it is unavailable or uncertified. *)
let degraded_reroute ~failed ~fallback rt =
  match Degrade.reroute ~quick:true ~failed rt with
  | Error e ->
    Format.printf "degraded routing unavailable: %s@." e;
    None
  | Ok d ->
    Format.printf "%a@." Degrade.pp d;
    if Degrade.certified d then Some d.Degrade.routing
    else begin
      Format.printf "uncertified degraded routing: retrying %s@." fallback;
      None
    end

(* Recovery policy from the CLI flags; when permanent failures are planned,
   recompute paths around them and re-certify the degraded algorithm before
   handing it to the engine. *)
let recovery_of faults recovery_on retry_limit watchdog detect detect_bound victim_policy
    algo =
  if not (recovery_on || detect) then None
  else
    let reroute =
      match (Fault.failed_channels faults, algo) with
      | [], _ -> None
      | failed, `Adaptive ad ->
        (* adaptive headers already steer around down channels; a reroute
           additionally pins each retried message to a re-certified static
           route carved from the adaptive function's first choices *)
        let reroute =
          degraded_reroute ~failed ~fallback:"with adaptive freedom"
            (Adaptive.restrict_to_first ad)
        in
        Option.iter
          (fun rt' ->
            let topo = Adaptive.topology ad in
            List.iter
              (fun diag -> Format.printf "%a@." (Diagnostic.pp ~topo ()) diag)
              (Lint.reroute ~adaptive:true ~algorithm:(Adaptive.name ad) topo rt'))
          reroute;
        reroute
      | failed, `Oblivious rt -> degraded_reroute ~failed ~fallback:"on original paths" rt
    in
    let trigger =
      if not detect then Engine.Watchdog watchdog
      else begin
        (* --watchdog doubles as the backstop: the no-progress sweep that
           still covers acyclic wedges the detector cannot see *)
        let algorithm =
          match algo with
          | `Adaptive ad -> Adaptive.name ad
          | `Oblivious rt -> Routing.name rt
        in
        let diags = Lint.detect_config ~algorithm ~bound:detect_bound ~backstop:watchdog in
        List.iter (fun d -> Format.printf "%a@." (Diagnostic.pp ()) d) diags;
        if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags then
          failwith "invalid --detect configuration";
        let policy =
          match Obs_detect.victim_policy_of_string victim_policy with
          | Some p -> p
          | None ->
            failwith
              ("unknown --victim-policy: " ^ victim_policy ^ " (minimal, youngest, oldest)")
        in
        Engine.Detect { Obs_detect.bound = detect_bound; backstop = watchdog; policy }
      end
    in
    Some { Engine.default_recovery with retry_limit; trigger; reroute }

(* --discipline lint (E047/W048): SAF under-provisioning is rejected before
   the engine does, cut-through under-provisioning gets the whole-packet
   provisioning note.  Adaptive runs skip this: they always switch wormhole. *)
let lint_discipline ~algorithm discipline sched buffer =
  let diags =
    Lint.discipline_config ~algorithm
      ~discipline:(Engine.discipline_string discipline)
      ~buffer_capacity:buffer ~max_length:(Schedule.max_length sched)
  in
  List.iter (fun d -> Format.printf "%a@." (Diagnostic.pp ()) d) diags;
  if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags then
    failwith "invalid --discipline/--buffer configuration (E047)"

(* Observability wiring for --trace-out: a recorder, passed to the run as
   its [?obs] sink, whose events feed the Chrome exporter and the deadlock
   post-mortem. *)
let setup_obs = function
  | None -> None
  | Some path ->
    let sink, events = Obs_event.recorder () in
    Some (sink, events, path)

let obs_sink = function None -> None | Some (sink, _, _) -> Some sink

(* [post_mortem] when the run deadlocked or went through recovery: print the
   reconstructed wait-for knot, occupancy history and (given [rt]) the
   Theorem 2-5 classification of the knot's channel cycle. *)
let finalize_obs ?rt ~topo ~post_mortem = function
  | None -> ()
  | Some (_, events, path) ->
    let events = events () in
    if post_mortem then
      Format.printf "%s@?" (Obs_postmortem.render topo (Obs_postmortem.analyze ?rt events));
    Out_file.write ~cli:"wormsim" path (Obs_chrome.to_json topo events);
    Format.printf "chrome trace written to %s@." path

(* Counters-first telemetry for --stats-out: one preallocated accumulator
   threaded through the run, rendered as Prometheus text (or JSON when the
   file ends in .json) plus a summary table and utilization heatmap on
   stdout.  Unlike --trace-out this builds no events, so it also works on
   runs too hot to trace. *)
let setup_stats topo = function
  | None -> None
  | Some path -> Some (Obs_stats.create ~nchan:(Topology.num_channels topo), path)

let stats_acc = function None -> None | Some (st, _) -> Some st

let finalize_stats ~topo = function
  | None -> ()
  | Some (st, path) ->
    let doc =
      if Filename.check_suffix path ".json" then Obs_stats.to_json topo st
      else Obs_stats.to_prometheus topo st
    in
    Out_file.write ~cli:"wormsim" path doc;
    Format.printf "%s" (Obs_stats.summary topo st);
    (match Obs_stats.heatmap topo st with
    | "" -> ()
    | hm -> Format.printf "%s" hm);
    Format.printf "stats written to %s@." path

let run_oblivious ?obs ?stats topo rt sched config =
  let out = Engine.run ~config ?obs ?stats rt sched in
  Format.printf "%a@." (Engine.pp_outcome topo) out;
  let pm = match out with Engine.Deadlock _ | Engine.Recovered _ -> true | _ -> false in
  (Engine.is_deadlock out, pm)

let main topology dims routing pattern rate length horizon permutation seed buffer
    discipline_spec faults_spec recovery_on retry_limit watchdog detect detect_bound
    victim_policy witness trace_out stats_out =
  (* the output files are written after the run: refuse a missing
     directory before the run starts *)
  List.iter (Option.iter (Out_file.check_dir ~cli:"wormsim")) [ trace_out; stats_out ];
  try
    let rng = Rng.create seed in
    let discipline =
      match Engine.discipline_of_string discipline_spec with
      | Some d -> d
      | None ->
        failwith
          ("unknown --discipline: " ^ discipline_spec
         ^ " (wormhole/wh, virtual-cut-through/vct, store-and-forward/saf)")
    in
    match paper_net topology with
    | Some net when witness ->
      (* sweep the intent schedule space for a deadlock witness, then
         replay only the witness under observation (sweeping under the
         sink would record thousands of unrelated runs) *)
      let rt = paper_rt topology routing net in
      Printf.printf "network=%s messages=%d (witness sweep)\n" topology
        (List.length net.Paper_nets.intents);
      (match Explorer.explore rt (Explorer.net_space ~quick:false net) with
      | Explorer.No_deadlock { runs } ->
        Format.printf "no deadlock witness in %d runs@." runs;
        finalize_obs ~rt ~topo:net.Paper_nets.topo ~post_mortem:false
          (setup_obs trace_out)
      | Explorer.Deadlock_found { runs; witness = w } ->
        Format.printf "deadlock witness found after %d runs; replaying under observation@."
          runs;
        let obs = setup_obs trace_out in
        (* stats cover only the witness replay, not the sweep *)
        let sctx = setup_stats net.Paper_nets.topo stats_out in
        (* replay under --discipline: the sweep searches wormhole, but the
           witness can be re-switched to see whether the verdict flips.
           SAF gets whole-packet provisioning, like the campaign override *)
        let deadlocked, pm =
          run_oblivious ?obs:(obs_sink obs) ?stats:(stats_acc sctx) net.Paper_nets.topo rt
            w.Explorer.w_schedule
            (Engine.with_discipline discipline w.Explorer.w_config w.Explorer.w_schedule)
        in
        finalize_obs ~rt ~topo:net.Paper_nets.topo ~post_mortem:pm obs;
        finalize_stats ~topo:net.Paper_nets.topo sctx;
        if deadlocked then exit 3)
    | Some net ->
      (* the paper's CD networks replay their designated messages *)
      let obs = setup_obs trace_out in
      let rt = paper_rt topology routing net in
      let sched = Schedule.of_intents ~length net in
      let faults = fault_plan net.Paper_nets.topo rng horizon faults_spec in
      let recovery =
        recovery_of faults recovery_on retry_limit watchdog detect detect_bound
          victim_policy (`Oblivious rt)
      in
      Printf.printf "network=%s messages=%d\n" topology (List.length sched);
      lint_discipline ~algorithm:(Routing.name rt) discipline sched buffer;
      if not (Fault.is_empty faults) then
        Format.printf "faults: %a@." (Fault.pp net.Paper_nets.topo) faults;
      let sctx = setup_stats net.Paper_nets.topo stats_out in
      let deadlocked, pm =
        run_oblivious ?obs:(obs_sink obs) ?stats:(stats_acc sctx) net.Paper_nets.topo rt sched
          { Engine.default_config with buffer_capacity = buffer; discipline; faults; recovery }
      in
      finalize_obs ~rt ~topo:net.Paper_nets.topo ~post_mortem:pm obs;
      finalize_stats ~topo:net.Paper_nets.topo sctx;
      if deadlocked then exit 3
    | None ->
      if witness then failwith "--witness only applies to paper networks (figure1, figure2, ...)";
      let obs = setup_obs trace_out in
      let { coords; routing = algo } = build topology dims routing in
      (match algo with
      | `Oblivious rt -> (
        match Routing.validate rt with
        | Ok () -> ()
        | Error e -> failwith ("routing invalid: " ^ e))
      | `Adaptive ad -> (
        match Adaptive.validate ad with
        | Ok () -> ()
        | Error e -> failwith ("adaptive routing invalid: " ^ e)));
      let pat = pattern_of coords rng pattern in
      let sched =
        if permutation then Traffic.permutation_schedule pat ~coords ~length
        else Traffic.bernoulli_schedule rng pat ~coords ~rate ~length ~horizon
      in
      Printf.printf "topology=%s dims=%s routing=%s pattern=%s messages=%d\n" topology dims
        routing pat.Traffic.name (List.length sched);
      (match algo with
      | `Oblivious rt -> lint_discipline ~algorithm:(Routing.name rt) discipline sched buffer
      | `Adaptive _ -> ());
      let faults = fault_plan coords.Builders.topo rng horizon faults_spec in
      if not (Fault.is_empty faults) then
        Format.printf "faults: %a@." (Fault.pp coords.Builders.topo) faults;
      let recovery =
        recovery_of faults recovery_on retry_limit watchdog detect detect_bound victim_policy
          algo
      in
      let config =
        { Engine.default_config with buffer_capacity = buffer; discipline; faults; recovery }
      in
      (match (algo, discipline) with
      | `Adaptive _, (Engine.Virtual_cut_through | Engine.Store_and_forward) ->
        Format.printf "note: adaptive runs always switch wormhole; --discipline ignored@."
      | _ -> ());
      let sctx = setup_stats coords.Builders.topo stats_out in
      (match algo with
      | `Oblivious rt ->
        let report = Measure.run ~config ?obs:(obs_sink obs) ?stats:(stats_acc sctx) rt sched in
        Format.printf "%a@." Measure.pp report;
        finalize_obs ~rt ~topo:coords.Builders.topo
          ~post_mortem:(report.Measure.deadlocked || report.Measure.recovered)
          obs;
        finalize_stats ~topo:coords.Builders.topo sctx;
        if report.Measure.deadlocked then exit 3
      | `Adaptive ad ->
        let out =
          Engine.run_adaptive ~config ?obs:(obs_sink obs) ?stats:(stats_acc sctx) ad sched
        in
        (match out with
        | Engine.All_delivered { finished_at; messages } ->
          Format.printf "%d/%d delivered in %d cycles (adaptive)@." (List.length messages)
            (List.length sched) finished_at
        | o -> Format.printf "%a@." (Engine.pp_outcome coords.Builders.topo) o);
        let pm =
          match out with
          | Engine.Deadlock _ | Engine.Recovered _ -> true
          | _ -> false
        in
        (* adaptive: no oblivious routing function, so the post-mortem skips
           the CDG classification *)
        finalize_obs ~topo:coords.Builders.topo ~post_mortem:pm obs;
        finalize_stats ~topo:coords.Builders.topo sctx;
        if Engine.is_deadlock out then exit 3)
  with Failure msg | Invalid_argument msg ->
    Printf.eprintf "wormsim: %s\n" msg;
    exit 2

let topo_arg =
  Arg.(value & opt string "mesh" & info [ "topology" ] ~docv:"T" ~doc:"mesh, torus, hypercube, ring, or a paper network: figure1, figure2, figure3a..figure3f")

let dims_arg =
  Arg.(value & opt string "8x8" & info [ "dims" ] ~docv:"DxD" ~doc:"dimensions, e.g. 8x8 (hypercube/ring take one number)")

let routing_arg =
  Arg.(value & opt string "xy" & info [ "routing" ] ~docv:"R" ~doc:"xy, west-first, north-last, negative-first, adaptive, duato, ecube, dateline, clockwise, or synth (synthesize a certified deadlock-free routing from the topology; also valid on paper networks)")

let pattern_arg =
  Arg.(value & opt string "uniform" & info [ "pattern" ] ~docv:"P" ~doc:"uniform, transpose, bit-complement, bit-reverse, tornado, neighbor, hotspot")

let rate_arg =
  Arg.(value & opt float 0.02 & info [ "rate" ] ~docv:"R" ~doc:"per-node injection probability per cycle")

let length_arg =
  Arg.(value & opt int 4 & info [ "length" ] ~docv:"FLITS" ~doc:"message length in flits")

let horizon_arg =
  Arg.(value & opt int 1000 & info [ "horizon" ] ~docv:"CYCLES" ~doc:"injection horizon")

let permutation_arg =
  Arg.(value & flag & info [ "permutation" ] ~doc:"one message per node at cycle 0 instead of Bernoulli traffic")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (also seeds --faults random)")

let buffer_arg =
  Arg.(value & opt int 1 & info [ "buffer" ] ~docv:"FLITS" ~doc:"flit buffer capacity per channel")

let discipline_arg =
  Arg.(value & opt string "wormhole"
    & info [ "discipline" ] ~docv:"D"
        ~doc:"switching discipline: wormhole (wh), virtual-cut-through (vct: every channel \
              is provisioned with a whole-packet buffer, so a blocked message compresses \
              into its head channel), or store-and-forward (saf: the header only advances \
              once the whole packet is buffered; needs $(b,--buffer) >= message length).  \
              With $(b,--witness) the sweep searches wormhole and the witness replays \
              under $(docv).  Adaptive routings always switch wormhole.")

let faults_arg =
  Arg.(value & opt string "" & info [ "faults" ] ~docv:"SPEC"
    ~doc:"fault plan: 'random' for a seeded plan, or comma-separated events \
          'fail:SRC>DST[#VC]\\@T', 'stall:SRC>DST[#VC]\\@T+D', 'drop:LABEL\\@T'")

let recovery_arg =
  Arg.(value & flag & info [ "recovery" ]
    ~doc:"enable watchdog abort-and-retry recovery; with permanent failures a \
          re-certified degraded routing is used for retries")

let retry_limit_arg =
  Arg.(value & opt int Engine.default_recovery.Engine.retry_limit
    & info [ "retry-limit" ] ~docv:"N" ~doc:"maximum aborts per message before it gives up")

let watchdog_arg =
  Arg.(value & opt int 64
    & info [ "watchdog" ] ~docv:"CYCLES"
        ~doc:"cycles without progress before a message is aborted; under $(b,--detect) this \
              is the backstop that still catches acyclic (fault-wedged) stalls")

let detect_arg =
  Arg.(value & flag
    & info [ "detect" ]
        ~doc:"enable online deadlock detection (implies $(b,--recovery)): wait-for knots are \
              confirmed within $(b,--detect-bound) cycles of quiescence and only the \
              $(b,--victim-policy)-chosen victim is aborted, instead of every timed-out \
              member as under the plain watchdog")

let detect_bound_arg =
  Arg.(value & opt int Obs_detect.default_config.Obs_detect.bound
    & info [ "detect-bound" ] ~docv:"CYCLES"
        ~doc:"cycles a wait-for knot must stay quiescent before the detector confirms it")

let victim_policy_arg =
  Arg.(value & opt string "minimal"
    & info [ "victim-policy" ] ~docv:"P"
        ~doc:"which knot member a detection aborts: minimal (fewest held channels), \
              youngest, or oldest")

let witness_arg =
  Arg.(value & flag
    & info [ "witness" ]
        ~doc:"for paper networks: sweep the intents' schedule space (lengths, gaps, orders, \
              priorities) for a deadlock witness and replay it; combine with --trace-out to \
              record the deadlock and get a post-mortem, or with --stats-out for its \
              counters")

let trace_out_arg =
  Arg.(value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"record the run's structured events and write a Chrome trace_event JSON to \
              $(docv) (load in chrome://tracing or Perfetto); on deadlock or recovery a \
              post-mortem of the wait-for knot is printed too")

let stats_out_arg =
  Arg.(value & opt (some string) None
    & info [ "stats-out" ] ~docv:"FILE"
        ~doc:"thread a counters-first telemetry accumulator through the run (no event bus: \
              the steady cycle stays allocation-free) and write wormhole_stats_* families \
              to $(docv) in Prometheus text format (JSON when $(docv) ends in .json); a \
              latency percentile summary and per-channel utilization heatmap print to \
              stdout; with --witness, stats cover only the witness replay")

let cmd =
  let doc = "simulate wormhole routing on a classic topology" in
  Cmd.v (Cmd.info "wormsim" ~doc)
    Term.(
      const main $ topo_arg $ dims_arg $ routing_arg $ pattern_arg $ rate_arg $ length_arg
      $ horizon_arg $ permutation_arg $ seed_arg $ buffer_arg $ discipline_arg $ faults_arg
      $ recovery_arg
      $ retry_limit_arg $ watchdog_arg $ detect_arg $ detect_bound_arg $ victim_policy_arg
      $ witness_arg $ trace_out_arg $ stats_out_arg)

let () = exit (Cmd.eval cmd)
