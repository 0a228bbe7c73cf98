(* Online deadlock detection: the Obs_detect incremental wait-for cycle
   detector, offline via [scan] over recorded event streams and online via
   the engine's [Detect] recovery trigger. *)

let check = Alcotest.check
let cb = Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest
let dcfg = Obs_detect.default_config
let bound = dcfg.Obs_detect.bound

let recorded_run ?config rt sched =
  let sink, events = Obs_event.recorder () in
  let out = Engine.run ?config ~obs:sink rt sched in
  (out, events ())

let aborts events =
  List.length (List.filter (function Obs_event.Abort _ -> true | _ -> false) events)

let delivered_labels = function
  | Engine.All_delivered { messages; _ } | Engine.Cutoff { messages; _ } ->
    List.filter_map
      (fun (m : Engine.message_result) ->
        if m.r_delivered_at <> None then Some m.r_label else None)
      messages
  | Engine.Recovered { stats; _ } ->
    List.filter_map
      (fun (s : Engine.retry_stat) ->
        if s.t_fate = Engine.Delivered then Some s.t_label else None)
      stats
  | Engine.Deadlock _ -> []

(* ---- offline ground truth (fault-free, so every Deadlock outcome carries
   a genuine wait-for knot) ---- *)

let schedule_gen ?(msgs = 6) ?(len = 6) ?(at = 10) coords =
  let n = Topology.num_nodes coords.Builders.topo in
  QCheck.make
    QCheck.Gen.(
      let msg i =
        let* s = 0 -- (n - 1) in
        let* d = 0 -- (n - 1) in
        let* len = 1 -- len in
        let* at = 0 -- at in
        return
          (Schedule.message ~length:len ~at
             (Printf.sprintf "m%d" i)
             s
             (if d = s then (d + 1) mod n else d))
      in
      let* k = 1 -- msgs in
      let rec build i acc =
        if i = k then return (List.rev acc)
        else
          let* m = msg i in
          build (i + 1) (m :: acc)
      in
      build 0 [])

let ring5 = Builders.ring ~unidirectional:true 5
let ring5_rt = Ring_routing.clockwise ring5
let mesh3 = Builders.mesh [ 3; 3 ]
let mesh3_rt = Dimension_order.mesh mesh3

let prop_scan_matches_outcome =
  (* the detector's completeness/soundness contract against the engine's own
     verdict: every Deadlock outcome is confirmed within the latency bound of
     the cycle the engine declares the state permanently blocked, and runs
     that deliver (or cut off) never produce a detection *)
  QCheck.Test.make ~name:"scan flags exactly the Deadlock outcomes, within the bound"
    ~count:150 (schedule_gen ring5)
    (fun sched ->
      let out, events = recorded_run ring5_rt sched in
      let dets = Obs_detect.scan dcfg events in
      match out with
      | Engine.Deadlock d ->
        dets <> []
        && List.exists
             (fun (k : Obs_detect.detection) -> k.dk_cycle <= d.Engine.d_cycle + bound)
             dets
      | Engine.All_delivered _ | Engine.Cutoff _ -> dets = []
      | Engine.Recovered _ -> false)

let prop_no_detection_on_acyclic =
  QCheck.Test.make ~name:"acyclic mesh runs never trip the detector" ~count:100
    (schedule_gen mesh3)
    (fun sched ->
      let _, events = recorded_run mesh3_rt sched in
      Obs_detect.scan dcfg events = [])

let prop_scan_deterministic =
  QCheck.Test.make ~name:"scan is a pure function of the event stream" ~count:50
    (schedule_gen ring5)
    (fun sched ->
      let _, events = recorded_run ring5_rt sched in
      Obs_detect.scan dcfg events = Obs_detect.scan dcfg events)

(* ---- the detector's guarantees as properties (after Verbeek-Schmaltz,
   arXiv 1110.4677), on oblivious and fully adaptive nets, each with and
   without a random fault plan.  For every run without recovery:

   (a) every offline confirmation is a wait-for cycle in the post-mortem of
       the events up to its cycle: each member waits on its recorded
       channel, held by the next member;
   (b) every Deadlock whose kernel witness has a wait cycle is confirmed
       within [bound] cycles of the engine's verdict;
   (c) All_delivered and Cutoff runs get no confirmation;
   (d) the post-mortem's class and every confirmation's class equal the
       kernel's, and some confirmation has exactly the witness's members. *)

let torus4 = Builders.torus [ 4; 4 ]
let torus4_rt = Dimension_order.torus torus4

let detector_nets =
  let oblivious rt ~config ~obs sched = Engine.run ~config ~obs rt sched in
  let adaptive coords =
    let ad = Adaptive.fully_adaptive_minimal coords in
    fun ~config ~obs sched -> Engine.run_adaptive ~config ~obs ad sched
  in
  (* the larger nets only knot under dense traffic: about one run in ten
     ends in a wait cycle there *)
  let dense = schedule_gen ~msgs:48 ~len:8 ~at:3 in
  let mesh4 = Builders.mesh [ 4; 4 ] in
  [
    ("ring-5", ring5, schedule_gen ring5, oblivious ring5_rt);
    ("torus-4x4 e-cube", torus4, dense torus4, oblivious torus4_rt);
    ("adaptive mesh-3x3", mesh3, dense mesh3, adaptive mesh3);
    ("adaptive mesh-4x4", mesh4, dense mesh4, adaptive mesh4);
  ]

let sorted_labels members = List.sort compare (List.map fst members)

let detector_violation ~faulted coords run (sched, seed) =
  let faults =
    if faulted then
      Fault.random ~link_failures:1 ~stalls:2 ~max_stall:16 ~horizon:15 (Rng.create seed)
        coords.Builders.topo
    else Fault.empty
  in
  let sink, recorded = Obs_event.recorder () in
  let out = run ~config:{ Engine.default_config with faults } ~obs:sink sched in
  let events = recorded () in
  let dets = Obs_detect.scan dcfg events in
  let is_pm_cycle (k : Obs_detect.detection) =
    let upto =
      List.filter
        (fun e -> match Obs_event.cycle_of e with Some c -> c <= k.dk_cycle | None -> true)
        events
    in
    let waits = (Obs_postmortem.analyze upto).Obs_postmortem.pm_waits in
    let members = k.dk_members in
    members <> []
    && List.for_all2
         (fun (l, c) (next, _) ->
           List.exists
             (fun (w : Obs_postmortem.wait_edge) ->
               w.we_label = l && w.we_channel = c && w.we_holder = Some next)
             waits)
         members
         (List.tl members @ [ List.hd members ])
  in
  if not (List.for_all is_pm_cycle dets) then Some "(a) a confirmation is no post-mortem cycle"
  else
    match out with
    | Engine.All_delivered _ | Engine.Cutoff _ ->
      if dets = [] then None else Some "(c) a run that finished got a confirmation"
    | Engine.Recovered _ -> Some "a run without recovery recovered"
    | Engine.Deadlock d ->
      let pm = Obs_postmortem.analyze events in
      if
        d.Engine.d_wait_cycle <> []
        && not
             (List.exists
                (fun (k : Obs_detect.detection) -> k.dk_cycle <= d.Engine.d_cycle + bound)
                dets)
      then Some "(b) a deadlock was not confirmed within the bound"
      else if pm.Obs_postmortem.pm_class <> Some d.Engine.d_class then
        Some "(d) the post-mortem class differs from the kernel's"
      else if List.exists (fun (k : Obs_detect.detection) -> k.dk_class <> d.Engine.d_class) dets
      then Some "(d) a confirmation class differs from the kernel's"
      else if
        d.Engine.d_wait_cycle <> []
        && not
             (List.exists
                (fun (k : Obs_detect.detection) ->
                  sorted_labels k.dk_members = List.sort compare d.Engine.d_wait_cycle)
                dets)
      then Some "(d) no confirmation has the witness's members"
      else None

let detector_properties =
  List.concat_map
    (fun (name, coords, gen, run) ->
      List.map
        (fun faulted ->
          QCheck.Test.make
            ~name:(if faulted then name ^ ", faulted" else name)
            ~count:200
            (QCheck.pair gen (QCheck.int_bound 100_000))
            (fun case ->
              match detector_violation ~faulted coords run case with
              | None -> true
              | Some why -> QCheck.Test.fail_report why))
        [ false; true ])
    detector_nets

(* ---- online: the Detect trigger on the torus tornado knot ---- *)

let torus5 = Builders.torus [ 5; 5 ]
let torus5_rt = Dimension_order.torus torus5
let tornado = Traffic.permutation_schedule (Traffic.tornado torus5) ~coords:torus5 ~length:8
let detect_recovery = { Engine.default_recovery with trigger = Engine.Detect dcfg }
let watchdog_recovery = { Engine.default_recovery with trigger = Engine.Watchdog 32 }
let with_recovery r = { Engine.default_config with recovery = Some r }

let tornado_runs =
  lazy
    (let det = recorded_run ~config:(with_recovery detect_recovery) torus5_rt tornado in
     let wd = recorded_run ~config:(with_recovery watchdog_recovery) torus5_rt tornado in
     (det, wd))

let test_tornado_targeted_recovery () =
  let (det_out, det_events), (wd_out, wd_events) = Lazy.force tornado_runs in
  check cb "detect aborts strictly fewer messages" true (aborts det_events < aborts wd_events);
  let det_set = delivered_labels det_out and wd_set = delivered_labels wd_out in
  check cb "detect delivers a superset of the watchdog" true
    (List.for_all (fun l -> List.mem l det_set) wd_set);
  check cb "detect delivers the whole permutation" true (List.length det_set = 25)

let test_tornado_detection_within_bound () =
  let (_, det_events), _ = Lazy.force tornado_runs in
  let truth, _ = recorded_run torus5_rt tornado in
  let knot_cycle =
    match truth with
    | Engine.Deadlock d -> d.Engine.d_cycle
    | o -> Alcotest.fail ("tornado without recovery should deadlock, got " ^ Engine.outcome_string o)
  in
  match
    List.find_map
      (function Obs_event.Deadlock_detected { cycle; _ } -> Some cycle | _ -> None)
      det_events
  with
  | None -> Alcotest.fail "no Deadlock_detected event in the detect run"
  | Some c -> check cb "first detection within the bound" true (c <= knot_cycle + bound)

let test_victim_event_ordering () =
  (* every Victim_aborted is announced by a preceding Deadlock_detected that
     lists the victim, and is followed by the engine's Abort with reason
     "deadlock" for the same label *)
  let (_, det_events), _ = Lazy.force tornado_runs in
  let events = Array.of_list det_events in
  let n = Array.length events in
  let victims = ref 0 in
  Array.iteri
    (fun i ev ->
      match ev with
      | Obs_event.Victim_aborted { label; policy; _ } ->
        incr victims;
        check cb "minimal policy name" true (policy = "minimal");
        let announced = ref false and aborted = ref false in
        for j = 0 to i - 1 do
          match events.(j) with
          | Obs_event.Deadlock_detected { victims = vs; _ } when List.mem label vs ->
            announced := true
          | _ -> ()
        done;
        for j = i + 1 to n - 1 do
          match events.(j) with
          | Obs_event.Abort { label = l; reason = "deadlock"; _ } when l = label ->
            aborted := true
          | _ -> ()
        done;
        check cb (label ^ " announced by a detection") true !announced;
        check cb (label ^ " aborted with reason deadlock") true !aborted
      | _ -> ())
    events;
  check cb "at least one victim" true (!victims > 0)

let test_postmortem_sections () =
  let (_, det_events), _ = Lazy.force tornado_runs in
  let pm = Obs_postmortem.analyze ~rt:torus5_rt det_events in
  check cb "post-mortem records detections" true (pm.Obs_postmortem.pm_detections <> []);
  let victim_events =
    List.filter_map
      (function Obs_event.Victim_aborted { label; _ } -> Some label | _ -> None)
      det_events
  in
  check cb "post-mortem victims match the event stream" true
    (List.map fst pm.Obs_postmortem.pm_victims = victim_events)

(* ---- differential: the seeded fault corpus of EXP-FR ---- *)

let test_fault_corpus_superset () =
  (* with the same 32-cycle no-progress backstop, targeted recovery must
     deliver every message the plain watchdog delivers on the seeded
     campaigns of exp_fault *)
  let detect32 =
    {
      Engine.default_recovery with
      trigger = Engine.Detect { dcfg with Obs_detect.backstop = 32 };
    }
  in
  let watchdog32 = { Engine.default_recovery with trigger = Engine.Watchdog 32 } in
  let nets =
    [
      ("figure1", Paper_nets.figure1 ());
      ("figure2", Paper_nets.figure2 ());
      ("figure3c", Paper_nets.figure3 `C);
      ("figure3f", Paper_nets.figure3 `F);
    ]
  in
  List.iter
    (fun (name, net) ->
      let rt = Cd_algorithm.of_net net in
      let sched =
        List.map
          (fun (it : Paper_nets.intent) ->
            Schedule.message ~length:4 it.i_label it.i_src it.i_dst)
          net.Paper_nets.intents
      in
      let rng = Rng.create 7 in
      let faults =
        Fault.random ~link_failures:1 ~stalls:2 ~max_stall:16 ~horizon:15 rng
          net.Paper_nets.topo
      in
      let run r =
        Engine.run ~config:{ Engine.default_config with faults; recovery = Some r } rt sched
      in
      let det = delivered_labels (run detect32) and wd = delivered_labels (run watchdog32) in
      check cb (name ^ ": detect delivers a superset under seeded faults") true
        (List.for_all (fun l -> List.mem l det) wd))
    nets

(* ---- static lint for the Detect config ---- *)

let test_detect_config_lint () =
  let codes diags = List.map (fun d -> d.Diagnostic.code) diags in
  check (Alcotest.list Alcotest.string) "nonpositive bound is E045" [ "E045" ]
    (codes (Lint.detect_config ~algorithm:"cd" ~bound:0 ~backstop:512));
  check (Alcotest.list Alcotest.string) "backstop <= bound is W046" [ "W046" ]
    (codes (Lint.detect_config ~algorithm:"cd" ~bound:16 ~backstop:16));
  check (Alcotest.list Alcotest.string) "sane config is clean" []
    (codes (Lint.detect_config ~algorithm:"cd" ~bound:16 ~backstop:512))

(* ---- campaign determinism across domain counts ---- *)

let capture exp =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let rows = exp ppf in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, rows)

let run_at ~domains exp =
  Wr_pool.set_default_domains domains;
  Fun.protect ~finally:(fun () -> Wr_pool.set_default_domains 1) (fun () -> capture exp)

let test_exp_detect_domains () =
  let out4, rows4 = run_at ~domains:4 (Experiments.exp_detect ~quick:true) in
  let out1, rows1 = run_at ~domains:1 (Experiments.exp_detect ~quick:true) in
  check Alcotest.int "same claim count" (List.length rows1) (List.length rows4);
  List.iter2
    (fun (r1 : Experiments.row) (r4 : Experiments.row) ->
      check Alcotest.string "claim id" r1.x_id r4.x_id;
      check Alcotest.string "measured value" r1.x_measured r4.x_measured;
      check cb "verdict" r1.x_ok r4.x_ok)
    rows1 rows4;
  check Alcotest.string "byte-identical output" out1 out4;
  check cb "all claims hold" true (List.for_all (fun (r : Experiments.row) -> r.x_ok) rows1)

let () =
  Alcotest.run "detect"
    [
      ( "campaign",
        [ Alcotest.test_case "exp-detect identical at 1 and 4 domains" `Quick
            test_exp_detect_domains ] );
      ( "offline-scan",
        [
          qtest prop_scan_matches_outcome;
          qtest prop_no_detection_on_acyclic;
          qtest prop_scan_deterministic;
        ] );
      (* suite names stay within the 12 characters of "offline-scan":
         alcotest widens its name column to the longest one *)
      ("properties", List.map qtest detector_properties);
      ( "online",
        [
          Alcotest.test_case "tornado: targeted recovery beats the watchdog" `Quick
            test_tornado_targeted_recovery;
          Alcotest.test_case "tornado: detection within the bound" `Quick
            test_tornado_detection_within_bound;
          Alcotest.test_case "victim event ordering" `Quick test_victim_event_ordering;
          Alcotest.test_case "post-mortem sections" `Quick test_postmortem_sections;
        ] );
      ( "differential",
        [
          Alcotest.test_case "seeded fault corpus: delivery superset" `Quick
            test_fault_corpus_superset;
        ] );
      ("lint", [ Alcotest.test_case "detect-config lint codes" `Quick test_detect_config_lint ]);
    ]
