(* Telemetry-plane tests (PR 9).

   The counters-first stats accumulator must be pure observation: run
   outcomes are structurally identical with stats off, with an explicit
   accumulator threaded, and with process-wide arming -- in both kernel
   modes.  Campaign reductions merge per-run accumulators in task-index
   order, so the --latency section is byte-identical at any domain count.
   The renderers must match what wormsim --stats-out writes byte for byte
   (the goldens under test/golden; regenerate with WORMHOLE_STATS_REGEN=1
   and copy the files out of _build).  On random runs the accumulator must
   agree with the event stream of the same run.  And a stats-armed steady
   cycle must hold the same allocation bound the bare kernel does. *)

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let regen =
  match Sys.getenv_opt "WORMHOLE_STATS_REGEN" with
  | Some v when v <> "0" -> true
  | Some _ | None -> false

let check_golden name path got =
  if regen then begin
    let oc = open_out path in
    output_string oc got;
    close_out oc
  end
  else check cs name (read_file path) got

(* ---- fixtures: mirror the wormsim --stats-out code paths exactly ---- *)

(* wormsim --topology figure2 --witness --stats-out: sweep the intent
   schedule space (canonical at any domain count, so the witness is the
   one the goldens captured), then thread stats through the witness replay
   only. *)
let fig2 =
  lazy
    (let net = Paper_nets.figure2 () in
     let rt = Cd_algorithm.of_net net in
     let templates =
       List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents
     in
     match Explorer.explore rt (Explorer.default_space templates) with
     | Explorer.No_deadlock _ -> Alcotest.fail "figure2: expected a deadlock witness"
     | Explorer.Deadlock_found { witness = w; _ } ->
       let st =
         Obs_stats.create ~nchan:(Topology.num_channels net.Paper_nets.topo)
       in
       let out = Engine.run ~config:w.Explorer.w_config ~stats:st rt w.Explorer.w_schedule in
       (net, out, st))

(* wormsim --topology mesh --dims 8x8 --pattern uniform --seed 11
   --horizon 300 --stats-out: default config, Bernoulli uniform traffic,
   stats threaded through the measured run. *)
let mesh8x8 =
  lazy
    (let coords = Builders.mesh [ 8; 8 ] in
     let rt = Dimension_order.mesh coords in
     let rng = Rng.create 11 in
     let pat = Traffic.uniform rng coords in
     let sched =
       Traffic.bernoulli_schedule rng pat ~coords ~rate:0.02 ~length:4 ~horizon:300
     in
     let st = Obs_stats.create ~nchan:(Topology.num_channels coords.Builders.topo) in
     let report = Measure.run ~stats:st rt sched in
     (coords, report, st))

let test_fig2_deadlocks () =
  let _, out, st = Lazy.force fig2 in
  check cb "witness replay deadlocks" true (Engine.is_deadlock out);
  check cb "blocking recorded" true (st.Obs_stats.st_blocked > 0);
  check cb "a head-of-line blocker attributed" true (Obs_stats.top_blocking st <> [])

let test_fig2_prometheus_golden () =
  let net, _, st = Lazy.force fig2 in
  check_golden "prometheus matches wormsim --witness --stats-out"
    "golden/figure2.stats.prom"
    (Obs_stats.to_prometheus net.Paper_nets.topo st)

let test_fig2_json_golden () =
  let net, _, st = Lazy.force fig2 in
  check_golden "json matches wormsim --witness --stats-out x.json"
    "golden/figure2.stats.json"
    (Obs_stats.to_json net.Paper_nets.topo st)

let test_fig2_heatmap_golden () =
  let net, _, st = Lazy.force fig2 in
  check_golden "heatmap matches wormsim --witness --stats-out stdout"
    "golden/figure2.stats-heatmap.txt"
    (Obs_stats.heatmap net.Paper_nets.topo st)

let test_mesh_delivers () =
  let _, (report : Measure.report), st = Lazy.force mesh8x8 in
  check cb "mesh run clean" false report.Measure.deadlocked;
  check cb "deliveries recorded" true (st.Obs_stats.st_delivered > 0);
  check Alcotest.int "stats delivered matches the measured report"
    report.Measure.delivered st.Obs_stats.st_delivered

let test_mesh_prometheus_golden () =
  let coords, _, st = Lazy.force mesh8x8 in
  check_golden "prometheus matches wormsim --stats-out"
    "golden/mesh8x8.stats.prom"
    (Obs_stats.to_prometheus coords.Builders.topo st)

let test_mesh_json_golden () =
  let coords, _, st = Lazy.force mesh8x8 in
  check_golden "json matches wormsim --stats-out x.json"
    "golden/mesh8x8.stats.json"
    (Obs_stats.to_json coords.Builders.topo st)

let test_mesh_heatmap_golden () =
  let coords, _, st = Lazy.force mesh8x8 in
  check_golden "heatmap matches wormsim --stats-out stdout"
    "golden/mesh8x8.stats-heatmap.txt"
    (Obs_stats.heatmap coords.Builders.topo st)

(* ---- purity: stats are observation, never perturbation ---- *)

let mesh3 = Builders.mesh [ 3; 3 ]
let mesh3_rt = Dimension_order.mesh mesh3
let mesh3_ad = Adaptive.of_oblivious mesh3_rt
let nchan3 = Topology.num_channels mesh3.Builders.topo

let schedule_gen_on (coords : Builders.coords) =
  let n = Topology.num_nodes coords.Builders.topo in
  QCheck.make
    QCheck.Gen.(
      let msg i =
        let* s = 0 -- (n - 1) in
        let* d = 0 -- (n - 1) in
        let* len = 1 -- 6 in
        let* at = 0 -- 10 in
        return
          (Schedule.message ~length:len ~at
             (Printf.sprintf "m%d" i)
             s
             (if d = s then (d + 1) mod n else d))
      in
      let* k = 1 -- 6 in
      let rec build i acc =
        if i = k then return (List.rev acc)
        else
          let* m = msg i in
          build (i + 1) (m :: acc)
      in
      build 0 [])

let schedule_gen = schedule_gen_on mesh3

(* outcomes are plain data (records, lists, ints, strings), so structural
   equality is exactly "byte-identical outcome" *)
let prop_stats_pure_oblivious =
  QCheck.Test.make ~name:"oblivious: stats-on outcome = stats-off outcome" ~count:80
    schedule_gen
    (fun sched ->
      let off = Engine.run mesh3_rt sched in
      let st = Obs_stats.create ~nchan:nchan3 in
      Engine.run ~stats:st mesh3_rt sched = off)

let prop_stats_pure_adaptive =
  QCheck.Test.make ~name:"adaptive: stats-on outcome = stats-off outcome" ~count:80
    schedule_gen
    (fun sched ->
      let off = Engine.run_adaptive mesh3_ad sched in
      let st = Obs_stats.create ~nchan:nchan3 in
      Engine.run_adaptive ~stats:st mesh3_ad sched = off)

let prop_armed_pure =
  QCheck.Test.make ~name:"process-wide arming changes no outcome" ~count:40 schedule_gen
    (fun sched ->
      let off = Engine.run mesh3_rt sched in
      Obs_stats.arm ();
      let on =
        Fun.protect ~finally:Obs_stats.disarm (fun () -> Engine.run mesh3_rt sched)
      in
      on = off)

(* merging two per-run accumulators equals threading one accumulator
   through both runs: the law the campaign's task-index-order reduction
   (Wr_pool.map_reduce) relies on for domain-count invariance *)
let prop_merge_law =
  QCheck.Test.make ~name:"merge a b = accumulate a then b" ~count:40
    QCheck.(pair schedule_gen schedule_gen)
    (fun (s1, s2) ->
      let a = Obs_stats.create ~nchan:nchan3 in
      let b = Obs_stats.create ~nchan:nchan3 in
      ignore (Engine.run ~stats:a mesh3_rt s1);
      ignore (Engine.run ~stats:b mesh3_rt s2);
      let seq = Obs_stats.create ~nchan:nchan3 in
      ignore (Engine.run ~stats:seq mesh3_rt s1);
      ignore (Engine.run ~stats:seq mesh3_rt s2);
      Obs_stats.merge ~into:a b;
      a = seq)

let prop_percentiles =
  QCheck.Test.make ~name:"percentiles monotone, max exact, delivered counted" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 5000))
    (fun lats ->
      let st = Obs_stats.create ~nchan:1 in
      List.iter (Obs_stats.observe_latency st) lats;
      let p50 = Obs_stats.percentile st 50.0 in
      let p90 = Obs_stats.percentile st 90.0 in
      let p99 = Obs_stats.percentile st 99.0 in
      p50 <= p90 && p90 <= p99
      && st.Obs_stats.st_delivered = List.length lats
      && st.Obs_stats.st_lat_max = List.fold_left max 0 lats
      && st.Obs_stats.st_lat_sum = List.fold_left ( + ) 0 lats)

(* ---- agreement: stats and the event stream count the same run ---- *)

(* One run observed both ways: the accumulator threaded through the kernel
   and a recorder passed as its [?obs] sink must see one run, the same acquisitions
   on every channel, the same deliveries and latency sum, and a deadlock
   outcome in exactly its own class slot. *)
let stats_match_events ~nchan run sched =
  let st = Obs_stats.create ~nchan in
  let sink, events = Obs_event.recorder () in
  let out = run ~stats:st ~obs:sink sched in
  let starts = ref 0 and delivered = ref 0 and lat_sum = ref 0 in
  let acquired = Array.make nchan 0 in
  List.iter
    (function
      | Obs_event.Run_start _ -> incr starts
      | Obs_event.Channel_acquire { channel; _ } ->
        acquired.(channel) <- acquired.(channel) + 1
      | Obs_event.Delivered { latency; _ } ->
        incr delivered;
        lat_sum := !lat_sum + latency
      | _ -> ())
    (events ());
  let classes =
    Array.map
      (fun c ->
        match out with
        | Engine.Deadlock d when Engine.deadlock_class_string d.Engine.d_class = c -> 1
        | _ -> 0)
      Obs_stats.classes
  in
  st.Obs_stats.st_runs = 1 && !starts = 1
  && st.Obs_stats.st_acquired = acquired
  && st.Obs_stats.st_delivered = !delivered
  && st.Obs_stats.st_lat_sum = !lat_sum
  && st.Obs_stats.st_classes = classes

let prop_agree name (coords : Builders.coords) run =
  QCheck.Test.make ~name ~count:100 (schedule_gen_on coords)
    (stats_match_events ~nchan:(Topology.num_channels coords.Builders.topo) run)

let ring5 = Builders.ring ~unidirectional:true 5
let ring5_rt = Ring_routing.clockwise ring5
let mesh3_vc2 = Builders.mesh ~vcs:2 [ 3; 3 ]
let mesh3_duato = Adaptive.duato_mesh mesh3_vc2

let recovering trigger =
  {
    Engine.default_config with
    recovery = Some { Engine.default_recovery with trigger; retry_limit = 2; backoff = 4 };
  }

let agreement_props =
  let ring config ~stats ~obs = Engine.run ~config ~stats ~obs ring5_rt in
  [
    prop_agree "stats = events (3x3 mesh, xy)" mesh3 (fun ~stats ~obs ->
        Engine.run ~stats ~obs mesh3_rt);
    prop_agree "stats = events (ring, deadlocks)" ring5 (ring Engine.default_config);
    prop_agree "stats = events (ring, watchdog recovery)" ring5
      (ring (recovering (Engine.Watchdog 8)));
    prop_agree "stats = events (ring, detect recovery)" ring5
      (ring (recovering (Engine.Detect Obs_detect.default_config)));
    prop_agree "stats = events (3x3 mesh, duato)" mesh3_vc2 (fun ~stats ~obs ->
        Engine.run_adaptive ~stats ~obs mesh3_duato);
  ]

(* ---- campaign reduction: byte-identical at any domain count ---- *)

let test_latency_report_domain_invariant () =
  let run_at domains =
    Wr_pool.set_default_domains domains;
    Fun.protect
      ~finally:(fun () -> Wr_pool.set_default_domains 1)
      (fun () ->
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        Experiments.latency_report ~quick:true ppf;
        Format.pp_print_flush ppf ();
        Buffer.contents buf)
  in
  let out4 = run_at 4 in
  let out1 = run_at 1 in
  check cb "report is nonempty" true (String.length out1 > 0);
  check cs "latency report byte-identical at 1 and 4 domains" out1 out4

(* ---- allocation: a stats-armed steady cycle stays allocation-free ---- *)

(* Same workload and bound as test_kernel's stats-off assertion: long worms
   down a 4-node line, thousands of cycles, <1.5 minor words per cycle
   amortized.  The accumulator is created once outside the measured run, so
   the bound only passes when the per-cycle accumulation sweep itself
   allocates nothing.  WORMHOLE_SANITIZE's per-cycle sweep allocates by
   design, so the bound is not meaningful under it. *)
let sanitize_on =
  match Sys.getenv_opt "WORMHOLE_SANITIZE" with
  | Some v when v <> "0" -> true
  | Some _ | None -> false

let line4 = Builders.line 4
let line4_rt = Dimension_order.mesh line4

let long_sched () =
  [ Schedule.message ~length:8000 "w1" 0 3; Schedule.message ~length:8000 "w2" 0 3 ]

let test_stats_steady_cycle_allocation () =
  if sanitize_on then ()
  else begin
    let st = Obs_stats.create ~nchan:(Topology.num_channels line4.Builders.topo) in
    ignore (Engine.run ~stats:st line4_rt (long_sched ()));
    let before = Gc.minor_words () in
    let outcome = Engine.run ~stats:st line4_rt (long_sched ()) in
    let delta = Gc.minor_words () -. before in
    (match outcome with
    | Engine.All_delivered _ -> ()
    | o -> Alcotest.failf "expected all-delivered, got %s" (Engine.outcome_string o));
    if delta > 25_000.0 then
      Alcotest.failf "stats-armed steady cycle allocates: %.0f minor words per ~16k-cycle run"
        delta
  end

let () =
  Alcotest.run "stats"
    [
      ( "golden-figure2",
        [
          Alcotest.test_case "witness replay deadlocks" `Quick test_fig2_deadlocks;
          Alcotest.test_case "prometheus" `Quick test_fig2_prometheus_golden;
          Alcotest.test_case "json" `Quick test_fig2_json_golden;
          Alcotest.test_case "heatmap" `Quick test_fig2_heatmap_golden;
        ] );
      ( "golden-mesh8x8",
        [
          Alcotest.test_case "measured run delivers" `Quick test_mesh_delivers;
          Alcotest.test_case "prometheus" `Quick test_mesh_prometheus_golden;
          Alcotest.test_case "json" `Quick test_mesh_json_golden;
          Alcotest.test_case "heatmap" `Quick test_mesh_heatmap_golden;
        ] );
      ( "purity",
        [
          QCheck_alcotest.to_alcotest prop_stats_pure_oblivious;
          QCheck_alcotest.to_alcotest prop_stats_pure_adaptive;
          QCheck_alcotest.to_alcotest prop_armed_pure;
          QCheck_alcotest.to_alcotest prop_merge_law;
          QCheck_alcotest.to_alcotest prop_percentiles;
        ] );
      ("agreement", List.map QCheck_alcotest.to_alcotest agreement_props);
      ( "campaign",
        [
          Alcotest.test_case "latency report domain-invariant" `Quick
            test_latency_report_domain_invariant;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "stats-armed steady cycle allocation bound" `Quick
            test_stats_steady_cycle_allocation;
        ] );
    ]
