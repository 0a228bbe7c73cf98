(* Observability-layer tests.

   - Sink purity: a run's [?obs] sink never changes an engine outcome --
     the central contract of the event stream, as a QCheck property over
     random schedules on an acyclic mesh and a deadlock-prone ring, with
     and without recovery, plus an adaptive run.
   - The Prometheus writer's exact text: order kept, label values escaped.
   - Golden-file exporter: the figure-1 false-resource-cycle run, the
     figure-2 explorer-witness deadlock replay, an adaptive mesh run that
     wedges on a multi-option header and the 5x5 torus tornado under
     --detect must reproduce the captured wormsim --trace-out files
     byte-for-byte (the files under test/golden); so must the tornado's
     post-mortem text without recovery.
   - Deadlock post-mortem: the figure-2 knot names its channels, the
     expanded cycle is a genuine CDG cycle, and classification says
     Theorem-reachable; figure 1 has no knot.
   - Trace truncation markers, pool claim coverage, and exact cancelled-run
     accounting across domain counts. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string
let qtest = QCheck_alcotest.to_alcotest ~long:false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- sink purity (same schedule generator family as test_qcheck) ---- *)

let schedule_gen coords =
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

let mesh3 = Builders.mesh [ 3; 3 ]
let mesh3_rt = Dimension_order.mesh mesh3
let ring5 = Builders.ring ~unidirectional:true 5
let ring5_rt = Ring_routing.clockwise ring5

let observed_run ?config rt sched =
  let sink, _ = Obs_event.recorder () in
  Engine.run ?config ~obs:(Obs_event.tee [ sink; Obs_event.null ]) rt sched

let prop_sink_purity coords rt name =
  QCheck.Test.make ~name ~count:100 (schedule_gen coords) (fun sched ->
      Engine.run rt sched = observed_run rt sched)

let prop_sink_purity_mesh =
  prop_sink_purity mesh3 mesh3_rt "sinks never change outcomes (mesh, delivery)"

let prop_sink_purity_ring =
  prop_sink_purity ring5 ring5_rt "sinks never change outcomes (ring, deadlocks)"

let prop_sink_purity_recovery =
  (* recovery exercises the Abort/Retry/Gave_up emission sites too *)
  QCheck.Test.make ~name:"sinks never change outcomes (ring, recovery)" ~count:60
    (schedule_gen ring5)
    (fun sched ->
      let config =
        {
          Engine.default_config with
          recovery =
            Some { Engine.default_recovery with trigger = Engine.Watchdog 8; retry_limit = 2; backoff = 4 };
        }
      in
      Engine.run ~config ring5_rt sched = observed_run ~config ring5_rt sched)

let test_adaptive_sink_purity () =
  let coords = Builders.mesh ~vcs:2 [ 3; 3 ] in
  let ad = Adaptive.duato_mesh coords in
  let sched =
    List.init 6 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 4) mod 9))
  in
  let plain = Engine.run_adaptive ad sched in
  let sink, events = Obs_event.recorder () in
  let observed = Engine.run_adaptive ~obs:sink ad sched in
  check cb "adaptive outcome unchanged under observation" true (plain = observed);
  check cb "adaptive run emitted events" true (events () <> [])

(* ---- Prometheus writer ---- *)

let test_prometheus_rendering () =
  let sample suffix labels value =
    { Obs_metrics.s_suffix = suffix; s_labels = labels; s_value = value }
  in
  let family kind name help samples =
    { Obs_metrics.f_name = name; f_kind = kind; f_help = help; f_samples = samples }
  in
  (* families and samples print in the order given, and label values are
     escaped *)
  check cs "prometheus text"
    "# HELP req_total Requests\n\
     # TYPE req_total counter\n\
     req_total{kind=\"b\"} 0\n\
     req_total{kind=\"a\\\"q\"} 1\n\
     # HELP lat Latency\n\
     # TYPE lat histogram\n\
     lat_bucket{le=\"1\"} 1\n\
     lat_bucket{le=\"2\"} 1\n\
     lat_bucket{le=\"+Inf\"} 2\n\
     lat_sum 4\n\
     lat_count 2\n\
     # HELP up Up\n\
     # TYPE up gauge\n\
     up 1\n"
    (Obs_metrics.to_prometheus
       [
         family Obs_metrics.Counter "req_total" "Requests"
           [ sample "" [ ("kind", "b") ] 0; sample "" [ ("kind", "a\"q") ] 1 ];
         family Obs_metrics.Histogram "lat" "Latency"
           [
             sample "_bucket" [ ("le", "1") ] 1;
             sample "_bucket" [ ("le", "2") ] 1;
             sample "_bucket" [ ("le", "+Inf") ] 2;
             sample "_sum" [] 4;
             sample "_count" [] 2;
           ];
         family Obs_metrics.Gauge "up" "Up" [ sample "" [] 1 ];
       ])

(* ---- golden exporters: figure 1 (false resource cycle, delivers) ---- *)

(* Mirrors wormsim's paper-net branch exactly: default --length 4 intent
   schedule, buffer 1, no faults or recovery, --trace-out recorder. *)
let fig1 =
  lazy
    (let net = Paper_nets.figure1 () in
     let rt = Cd_algorithm.of_net net in
     let sched =
       List.map
         (fun (it : Paper_nets.intent) -> Schedule.message ~length:4 it.i_label it.i_src it.i_dst)
         net.Paper_nets.intents
     in
     let sink, events = Obs_event.recorder () in
     let config =
       { Engine.default_config with buffer_capacity = 1; faults = Fault.empty; recovery = None }
     in
     let out = Engine.run ~config ~obs:sink rt sched in
     (net, rt, out, events ()))

let test_figure1_delivers () =
  let _, _, out, events = Lazy.force fig1 in
  (match out with
  | Engine.All_delivered _ -> ()
  | o -> Alcotest.fail ("figure1 should deliver, got " ^ Engine.outcome_string o));
  check cb "events recorded" true (events <> [])

let test_figure1_chrome_golden () =
  let net, _, _, events = Lazy.force fig1 in
  check cs "chrome trace matches wormsim --trace-out"
    (read_file "golden/figure1.trace.json")
    (Obs_chrome.to_json net.Paper_nets.topo events)

let test_figure1_postmortem_no_knot () =
  let _, rt, _, events = Lazy.force fig1 in
  let pm = Obs_postmortem.analyze ~rt events in
  check cb "no knot" true (pm.Obs_postmortem.pm_knot = []);
  check cb "no cycle" true (pm.Obs_postmortem.pm_cycle = []);
  check cb "no outstanding waits" true (pm.Obs_postmortem.pm_waits = []);
  (match pm.Obs_postmortem.pm_outcome with
  | Some "all-delivered" -> ()
  | o -> Alcotest.fail ("unexpected outcome " ^ Option.value ~default:"(none)" o));
  check cb "no verdict without a knot" true (pm.Obs_postmortem.pm_verdict = None)

(* ---- golden exporters: figure 2 (explorer witness, deadlocks) ---- *)

(* Mirrors wormsim --witness: sweep the intent schedule space (canonical at
   any domain count, so the witness is the same one the goldens captured),
   then replay only the witness under observation. *)
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
       let sink, events = Obs_event.recorder () in
       let out = Engine.run ~config:w.Explorer.w_config ~obs:sink rt w.Explorer.w_schedule in
       (net, rt, out, events ()))

let test_figure2_witness_deadlocks () =
  let _, _, out, _ = Lazy.force fig2 in
  check cb "witness replay deadlocks" true (Engine.is_deadlock out)

let test_figure2_chrome_golden () =
  let net, _, _, events = Lazy.force fig2 in
  check cs "chrome trace matches wormsim --witness --trace-out"
    (read_file "golden/figure2.trace.json")
    (Obs_chrome.to_json net.Paper_nets.topo events)

let test_figure2_postmortem () =
  let net, rt, _, events = Lazy.force fig2 in
  let pm = Obs_postmortem.analyze ~rt events in
  check cb "knot found" true (pm.Obs_postmortem.pm_knot <> []);
  let cycle = pm.Obs_postmortem.pm_cycle in
  check cb "cycle expands the knot" true (List.length cycle >= List.length pm.Obs_postmortem.pm_knot);
  (* the expanded cycle must be a genuine CDG cycle -- that is what makes
     the Theorem 2-5 classification sound *)
  let cdg = Cdg.build rt in
  let rec edges_ok = function
    | a :: (b :: _ as tl) -> List.mem b (Cdg.succ cdg a) && edges_ok tl
    | [ a ] -> List.mem (List.hd cycle) (Cdg.succ cdg a)
    | [] -> false
  in
  check cb "expanded cycle is a CDG cycle" true (edges_ok cycle);
  (match pm.Obs_postmortem.pm_verdict with
  | Some (_, Cycle_analysis.Deadlock_reachable _) -> ()
  | Some (_, v) ->
    Alcotest.fail (Format.asprintf "expected Deadlock_reachable, got %a" Cycle_analysis.pp_verdict v)
  | None -> Alcotest.fail "expected a classification verdict");
  let rendered = Obs_postmortem.render net.Paper_nets.topo pm in
  check cb "render names a theorem" true (contains rendered "Theorem");
  check cb "render names the knot" true (contains rendered "wait-for knot");
  (* occupancy history must cover every channel the knot waits on *)
  List.iter
    (fun (_, wanted) ->
      check cb "wanted channel has occupancy history" true
        (List.exists (fun o -> o.Obs_postmortem.oc_channel = wanted) pm.Obs_postmortem.pm_occupancy))
    pm.Obs_postmortem.pm_knot

(* ---- golden exporter: adaptive deadlock on a multi-option header ---- *)

(* Mirrors wormsim --topology mesh --dims 4x4 --routing adaptive --pattern
   uniform --rate 0.3 --length 6 --horizon 6 --seed 149: the run wedges at
   cycle 56 with n7/3 blocked on two options, so the trace pins the adaptive
   claim pass and its wait-for edges on rows with more than one entry. *)
let adaptive_deadlock =
  lazy
    (let coords = Builders.mesh [ 4; 4 ] in
     let rng = Rng.create 149 in
     let pattern = Traffic.uniform rng coords in
     let sched = Traffic.bernoulli_schedule rng pattern ~coords ~rate:0.3 ~length:6 ~horizon:6 in
     let sink, events = Obs_event.recorder () in
     let out = Engine.run_adaptive ~obs:sink (Adaptive.fully_adaptive_minimal coords) sched in
     (coords.Builders.topo, out, events ()))

let test_adaptive_multi_option_deadlock () =
  let _, out, _ = Lazy.force adaptive_deadlock in
  match out with
  | Engine.Deadlock d ->
    check cb "a blocked header has several options" true
      (List.exists (fun b -> List.length b.Engine.b_wants > 1) d.Engine.d_blocked)
  | o -> Alcotest.fail ("expected a deadlock, got " ^ Engine.outcome_string o)

let test_adaptive_chrome_golden () =
  let topo, _, events = Lazy.force adaptive_deadlock in
  check cs "chrome trace matches wormsim --routing adaptive --trace-out"
    (read_file "golden/adaptive-deadlock.trace.json")
    (Obs_chrome.to_json topo events)

(* ---- golden exporters: the 5x5 torus tornado, detected and wedged ---- *)

(* Mirrors wormsim --topology torus --routing ecube --dims 5x5 --pattern
   tornado --permutation --length 8, once with --detect (the CLI's default
   --watchdog 64 is the backstop) and once without recovery.  The run wedges
   into five disjoint knots at cycle 1: the trace pins the five rotated
   detections, the post-mortem the knot it names. *)
let tornado =
  lazy
    (let coords = Builders.torus [ 5; 5 ] in
     let rt = Dimension_order.torus coords in
     let sched = Traffic.permutation_schedule (Traffic.tornado coords) ~coords ~length:8 in
     let recorded recovery =
       let sink, events = Obs_event.recorder () in
       ignore (Engine.run ~config:{ Engine.default_config with recovery } ~obs:sink rt sched);
       events ()
     in
     let detect = Engine.Detect { Obs_detect.default_config with backstop = 64 } in
     ( coords.Builders.topo,
       rt,
       recorded (Some { Engine.default_recovery with trigger = detect }),
       recorded None ))

let test_tornado_detect_golden () =
  let topo, _, detected, _ = Lazy.force tornado in
  check cs "chrome trace matches wormsim --detect --trace-out"
    (read_file "golden/tornado-detect.trace.json")
    (Obs_chrome.to_json topo detected)

let test_tornado_postmortem_golden () =
  let topo, rt, _, wedged = Lazy.force tornado in
  check cs "post-mortem matches wormsim --trace-out"
    (read_file "golden/tornado.postmortem.txt")
    (Obs_postmortem.render topo (Obs_postmortem.analyze ~rt wedged))

(* ---- trace truncation ---- *)

let test_trace_truncation () =
  let sink, events = Obs_event.recorder () in
  let sched = [ Schedule.message ~length:6 "a" 0 8 ] in
  let cycles =
    match Engine.run ~obs:sink mesh3_rt sched with
    | Engine.All_delivered { finished_at; _ } -> finished_at + 1
    | _ -> Alcotest.fail "expected delivery"
  in
  let tr = events () in
  check cb "run long enough to truncate" true (cycles > 4);
  let truncated = Trace.render ~max_cycles:4 mesh3.Builders.topo tr in
  check cb "explicit cycle-count marker" true
    (contains truncated (Printf.sprintf "… +%d cycles" (cycles - 4)));
  check cb "rows are marked" true (contains truncated " …");
  let full = Trace.render mesh3.Builders.topo tr in
  check cb "no marker when untruncated" false (contains full "… +")

(* ---- pool coverage ---- *)

(* each task counts its own executions: the pool's claims must run every
   task exactly once *)
let test_pool_claims_cover_tasks () =
  let runs = Array.init 17 (fun _ -> Atomic.make 0) in
  let out =
    Wr_pool.mapi_array ~domains:2
      (fun i () ->
        Atomic.incr runs.(i);
        i)
      (Array.make 17 ())
  in
  check ci "all tasks ran" 17 (Array.length out);
  Array.iteri (fun i v -> check ci "task identity" i v) out;
  check cb "claims cover every task exactly once" true
    (Array.for_all (fun n -> Atomic.get n = 1) runs)

(* ---- exact cancelled accounting ---- *)

let fig2_space () =
  let net = Paper_nets.figure2 () in
  let rt = Cd_algorithm.of_net net in
  let templates = List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents in
  (rt, Explorer.default_space templates)

let test_cancelled_accounting () =
  let rt, space = fig2_space () in
  let sweep domains =
    let r0 = Engine.run_count () and c0 = Engine.cancelled_count () in
    let verdict = Explorer.explore ~domains rt space in
    let runs =
      match verdict with
      | Explorer.No_deadlock { runs } | Explorer.Deadlock_found { runs; _ } -> runs
    in
    (runs, Engine.run_count () - r0, Engine.cancelled_count () - c0)
  in
  let v1, s1, c1 = sweep 1 in
  let v4, s4, c4 = sweep 4 in
  check ci "verdict runs identical across domain counts" v1 v4;
  check ci "sequential sweep cancels nothing" 0 c1;
  (* every started run is either canonical or cancelled, and confirming the
     witness replays exactly one extra canonical run *)
  check ci "exact canonical tally (domains=1)" (v1 + 1) (s1 - c1);
  check ci "exact canonical tally (domains=4)" (v1 + 1) (s4 - c4)

let () =
  Alcotest.run "obs"
    [
      ( "purity",
        [
          qtest prop_sink_purity_mesh;
          qtest prop_sink_purity_ring;
          qtest prop_sink_purity_recovery;
          Alcotest.test_case "adaptive engine" `Quick test_adaptive_sink_purity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "prometheus rendering" `Quick test_prometheus_rendering;
        ] );
      ( "golden-figure1",
        [
          Alcotest.test_case "delivers" `Quick test_figure1_delivers;
          Alcotest.test_case "chrome trace" `Quick test_figure1_chrome_golden;
          Alcotest.test_case "post-mortem: no knot" `Quick test_figure1_postmortem_no_knot;
        ] );
      ( "golden-figure2",
        [
          Alcotest.test_case "witness deadlocks" `Quick test_figure2_witness_deadlocks;
          Alcotest.test_case "chrome trace" `Quick test_figure2_chrome_golden;
          Alcotest.test_case "post-mortem: knot + theorem" `Quick test_figure2_postmortem;
        ] );
      (* suite names stay within 14 characters: alcotest widens its name
         column to the longest one, and the wider column cuts the printed
         names of the long purity cases shorter *)
      ( "golden-adapt",
        [
          Alcotest.test_case "multi-option deadlock" `Quick test_adaptive_multi_option_deadlock;
          Alcotest.test_case "chrome trace" `Quick test_adaptive_chrome_golden;
        ] );
      ( "golden-tornado",
        [
          Alcotest.test_case "detect chrome trace" `Quick test_tornado_detect_golden;
          Alcotest.test_case "post-mortem: first knot" `Quick test_tornado_postmortem_golden;
        ] );
      ( "trace",
        [ Alcotest.test_case "truncation markers" `Quick test_trace_truncation ] );
      ( "pool",
        [ Alcotest.test_case "claims cover tasks" `Quick test_pool_claims_cover_tasks ] );
      ( "search",
        [ Alcotest.test_case "cancelled accounting" `Quick test_cancelled_accounting ] );
    ]
