(* Tests for the extension modules: the message flow model (Section-2
   discussion), packet wait-for graphs (Dally-Aoki), the Corollary-1
   input-independence checker, and the engine probe. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---- message flow model ---- *)

let test_mfm_proves_xy () =
  let rt = Dimension_order.mesh (Builders.mesh [ 4; 4 ]) in
  let r = Message_flow.analyze rt in
  check cb "proves" true (Message_flow.proves_deadlock_free r);
  check cb "no stuck channels" true (r.Message_flow.stuck = []);
  check cb "needs several rounds" true (r.Message_flow.rounds > 1)

let test_mfm_proves_dateline () =
  let rt = Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6) in
  check cb "proves" true (Message_flow.proves_deadlock_free (Message_flow.analyze rt))

let test_mfm_stuck_on_ring () =
  (* genuinely deadlocking algorithm: correctly not proven *)
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let r = Message_flow.analyze rt in
  check cb "not proven" false (Message_flow.proves_deadlock_free r);
  check ci "all ring channels stuck" 4 (List.length r.Message_flow.stuck)

let test_mfm_incomplete_on_figure1 () =
  (* the paper's Section-2 point: the model cannot prove the CD algorithm
     although it is deadlock-free; the ring channels are all stuck *)
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let r = Message_flow.analyze rt in
  check cb "not proven" false (Message_flow.proves_deadlock_free r);
  Array.iter
    (fun c -> check cb "ring channel stuck" true (List.mem c r.Message_flow.stuck))
    net.ring_channels;
  (* direct hub channels N*->v are immune: every message using them is
     consumed right after *)
  let direct = Option.get (Topology.find_channel net.topo net.hub net.source) in
  check cb "hub->Src immune" true r.Message_flow.immune.(direct)

let test_mfm_used_flags () =
  let rt = Dimension_order.mesh (Builders.mesh [ 2; 2 ]) in
  let r = Message_flow.analyze rt in
  (* on a 2x2 mesh with XY routing every channel carries some message *)
  check cb "all used" true (Array.for_all Fun.id r.Message_flow.used)

let test_mfm_pp () =
  let rt = Dimension_order.mesh (Builders.mesh [ 2; 2 ]) in
  let r = Message_flow.analyze rt in
  let s = Format.asprintf "%a" (Message_flow.pp (Routing.topology rt)) r in
  check cb "renders" true (String.length s > 20)

(* ---- packet wait-for graph ---- *)

let test_pwfg_acyclic_on_mesh () =
  let coords = Builders.mesh [ 4; 4 ] in
  let rt = Dimension_order.mesh coords in
  let rng = Rng.create 21 in
  let pattern = Traffic.uniform rng coords in
  let sched =
    Traffic.bernoulli_schedule rng pattern ~coords ~rate:0.05 ~length:4 ~horizon:100
  in
  let probe, first_cyclic = Pwfg.monitor () in
  (match Engine.run ~probe rt sched with
  | Engine.All_delivered _ -> ()
  | _ -> Alcotest.fail "expected delivery");
  check (Alcotest.option ci) "wait-for graph stays acyclic" None (first_cyclic ())

let test_pwfg_cyclic_at_deadlock () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let probe, first_cyclic = Pwfg.monitor () in
  match Engine.run ~probe rt sched with
  | Engine.Deadlock d ->
    (match first_cyclic () with
    | Some t -> check cb "cycle appears no later than detection" true (t <= d.Engine.d_cycle)
    | None -> Alcotest.fail "wait-for graph never became cyclic")
  | _ -> Alcotest.fail "expected deadlock"

let test_pwfg_of_snapshot () =
  let snap =
    {
      Engine.s_cycle = 0;
      s_occupancy = [];
      s_waiting = [ ("a", 0, Some "b"); ("b", 1, Some "a"); ("c", 2, None) ];
      s_moved = false;
    }
  in
  let g = Pwfg.of_snapshot snap in
  check ci "two edges" 2 (List.length g.Pwfg.edges);
  check cb "cyclic" true g.Pwfg.cyclic;
  let snap2 = { snap with Engine.s_waiting = [ ("a", 0, Some "b"); ("c", 2, Some "b") ] } in
  check cb "chain acyclic" false (Pwfg.of_snapshot snap2).Pwfg.cyclic

(* ---- input independence (Corollary 1) ---- *)

let test_input_independent_xy () =
  let rt = Dimension_order.mesh (Builders.mesh [ 4; 4 ]) in
  check cb "xy input-independent" true
    (Properties.is_holds (Properties.input_independent rt))

let test_input_dependent_cd () =
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  (* Corollary 1: an N x N -> C algorithm has no unreachable cycles, so the
     CD algorithm must be input-dependent *)
  check cb "cd input-dependent" false
    (Properties.is_holds (Properties.input_independent rt))

let test_input_dependent_dateline () =
  (* the dateline discipline consults the input channel's vc *)
  let rt = Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6) in
  check cb "dateline input-dependent" false
    (Properties.is_holds (Properties.input_independent rt))

(* [summary] derives "coherent" from the three verdicts it already has:
   on every oblivious registry entry each row must equal its standalone
   property, failure text included *)
let test_summary_rows () =
  let rt = Dimension_order.mesh (Builders.mesh [ 2; 2 ]) in
  check cb "summary has input-independent" true
    (List.mem_assoc "input-independent" (Properties.summary rt));
  let verdict = Alcotest.testable Properties.pp_verdict ( = ) in
  let standalone =
    [
      ("minimal", Properties.minimal);
      ("no-repeated-nodes", Properties.no_repeated_nodes);
      ("prefix-closed", Properties.prefix_closed);
      ("suffix-closed", Properties.suffix_closed);
      ("coherent", Properties.coherent);
      ("input-independent", Properties.input_independent);
    ]
  in
  List.iter
    (fun (e : Registry.entry) ->
      match e.r_algo with
      | Registry.Adaptive _ -> ()
      | Registry.Oblivious rt ->
        let rows = Properties.summary rt in
        check (Alcotest.list Alcotest.string) (e.r_name ^ " rows") (List.map fst standalone)
          (List.map fst rows);
        List.iter
          (fun (name, prop) ->
            check verdict (e.r_name ^ " " ^ name) (prop rt) (List.assoc name rows))
          standalone)
    (Registry.entries ())

(* ---- engine probe ---- *)

let test_probe_sees_every_cycle () =
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 3 ]) in
  let cycles = ref [] in
  let probe (s : Engine.snapshot) = cycles := s.Engine.s_cycle :: !cycles in
  (match Engine.run ~probe rt [ Schedule.message ~length:4 "m" 0 8 ] with
  | Engine.All_delivered { finished_at; _ } ->
    check ci "one snapshot per cycle" (finished_at + 1) (List.length !cycles);
    check (Alcotest.list ci) "in order" (List.init (finished_at + 1) Fun.id) (List.rev !cycles)
  | _ -> Alcotest.fail "expected delivery")

let test_probe_occupancy_consistent () =
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 3 ]) in
  let max_flits = ref 0 in
  let probe (s : Engine.snapshot) =
    let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 s.Engine.s_occupancy in
    if total > !max_flits then max_flits := total;
    (* per-queue occupancy never exceeds the buffer capacity (1) *)
    List.iter (fun (_, _, n) -> if n > 1 then Alcotest.fail "overfull queue") s.Engine.s_occupancy
  in
  ignore (Engine.run ~probe rt [ Schedule.message ~length:4 "m" 0 8 ]);
  check cb "some flits in flight" true (!max_flits >= 1);
  check cb "bounded by length" true (!max_flits <= 4)

(* ---- trace ---- *)

let test_trace_collects_and_renders () =
  let coords = Builders.mesh [ 3; 3 ] in
  let rt = Dimension_order.mesh coords in
  let get, probe = Trace.collector () in
  (match Engine.run ~probe rt [ Schedule.message ~length:3 "a" 0 8 ] with
  | Engine.All_delivered { finished_at; _ } ->
    let trace = get () in
    check ci "one snapshot per cycle" (finished_at + 1) (List.length trace);
    let s = Trace.render coords.Builders.topo trace in
    check cb "renders rows" true (String.length s > 80);
    (* the first channel of the path appears in the rendering *)
    let first = List.hd (Routing.path_exn rt 0 8) in
    let name = Topology.channel_name coords.Builders.topo first in
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
      scan 0
    in
    check cb "mentions first channel" true (contains name s)
  | _ -> Alcotest.fail "expected delivery")

let test_trace_occupancy_of () =
  let coords = Builders.mesh [ 3; 3 ] in
  let rt = Dimension_order.mesh coords in
  let get, probe = Trace.collector () in
  ignore (Engine.run ~probe rt [ Schedule.message ~length:4 "a" 0 8 ]);
  let first = List.hd (Routing.path_exn rt 0 8) in
  let hist = Trace.occupancy_of (get ()) first in
  check cb "occupied for length cycles" true (List.length hist >= 4);
  List.iter (fun (_, owner, n) ->
      check Alcotest.string "owner" "a" owner;
      check cb "capacity respected" true (n = 1))
    hist

let test_trace_truncation () =
  let coords = Builders.mesh [ 3; 3 ] in
  let rt = Dimension_order.mesh coords in
  let get, probe = Trace.collector () in
  ignore (Engine.run ~probe rt [ Schedule.message ~length:30 "a" 0 8 ]);
  let trace = get () in
  let s = Trace.render ~max_cycles:5 coords.Builders.topo trace in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check cb "notes exact truncated cycle count" true
    (contains (Printf.sprintf "… +%d cycles" (List.length trace - 5)) s)

(* the ring's four two-hop messages wedge; the detector aborts [a], whose
   channel empties at cycle 17 and which re-enters at cycle 25 *)
let test_trace_detect_recovery () =
  let ring = Builders.ring ~unidirectional:true 4 in
  let rt = Ring_routing.clockwise ring in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (String.make 1 "abcd".[i]) i ((i + 2) mod 4))
  in
  let config =
    {
      Engine.default_config with
      recovery =
        Some { Engine.default_recovery with trigger = Engine.Detect Obs_detect.default_config };
    }
  in
  let get, probe = Trace.collector () in
  check Alcotest.string "outcome" "recovered"
    (Engine.outcome_string (Engine.run ~config ~probe rt sched));
  check Alcotest.string "timeline"
    (String.concat "\n"
       [
         "channel    0         1         2         3";
         "n(0)->n(1) aaaaaaaaaaaaaaaaa.ddd....aaaa..";
         "n(1)->n(2) bbbbbbbbbbbbbbbbbbbbbbbbbb.aaa.";
         "n(2)->n(3) ccccccccccccccccccccccc.bbb....";
         "n(3)->n(0) dddddddddddddddddddd.ccc.......";
         "";
       ])
    (Trace.render ring.Builders.topo (get ()))

(* the probe detours over the Y channel while the hog holds the X one *)
let test_trace_adaptive () =
  let mesh = Builders.mesh [ 3; 3 ] in
  let n = mesh.Builders.node_at in
  let sched =
    [
      Schedule.message ~length:6 "hog" (n [| 0; 0 |]) (n [| 2; 0 |]);
      Schedule.message ~length:2 ~at:1 "probe" (n [| 0; 0 |]) (n [| 2; 2 |]);
    ]
  in
  let get, probe = Trace.collector () in
  check Alcotest.string "outcome" "all-delivered"
    (Engine.outcome_string
       (Engine.run_adaptive ~probe (Adaptive.fully_adaptive_minimal mesh) sched));
  check Alcotest.string "timeline"
    (String.concat "\n"
       [
         "channel        0       ";
         "n(0,0)->n(1,0) hhhhhh..";
         "n(0,0)->n(0,1) .pp.....";
         "n(1,0)->n(2,0) .hhhhhh.";
         "n(0,1)->n(1,1) ..pp....";
         "n(1,1)->n(2,1) ...pp...";
         "n(2,1)->n(2,2) ....pp..";
         "";
       ])
    (Trace.render mesh.Builders.topo (get ()))

let () =
  Alcotest.run "extensions"
    [
      ( "message_flow",
        [
          Alcotest.test_case "proves xy" `Quick test_mfm_proves_xy;
          Alcotest.test_case "proves dateline" `Quick test_mfm_proves_dateline;
          Alcotest.test_case "stuck on deadlocking ring" `Quick test_mfm_stuck_on_ring;
          Alcotest.test_case "incomplete on figure 1" `Quick test_mfm_incomplete_on_figure1;
          Alcotest.test_case "used flags" `Quick test_mfm_used_flags;
          Alcotest.test_case "pp" `Quick test_mfm_pp;
        ] );
      ( "pwfg",
        [
          Alcotest.test_case "acyclic on mesh traffic" `Quick test_pwfg_acyclic_on_mesh;
          Alcotest.test_case "cyclic at deadlock" `Quick test_pwfg_cyclic_at_deadlock;
          Alcotest.test_case "of_snapshot" `Quick test_pwfg_of_snapshot;
        ] );
      ( "input_independence",
        [
          Alcotest.test_case "xy independent" `Quick test_input_independent_xy;
          Alcotest.test_case "cd dependent" `Quick test_input_dependent_cd;
          Alcotest.test_case "dateline dependent" `Quick test_input_dependent_dateline;
          Alcotest.test_case "summary row" `Quick test_summary_rows;
        ] );
      ( "probe",
        [
          Alcotest.test_case "every cycle" `Quick test_probe_sees_every_cycle;
          Alcotest.test_case "occupancy consistent" `Quick test_probe_occupancy_consistent;
        ] );
      ( "trace",
        [
          Alcotest.test_case "collect and render" `Quick test_trace_collects_and_renders;
          Alcotest.test_case "occupancy_of" `Quick test_trace_occupancy_of;
          Alcotest.test_case "truncation" `Quick test_trace_truncation;
          Alcotest.test_case "detect recovery" `Quick test_trace_detect_recovery;
          Alcotest.test_case "adaptive" `Quick test_trace_adaptive;
        ] );
    ]
