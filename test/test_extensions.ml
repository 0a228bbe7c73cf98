(* Tests for the extension modules: the message flow model (Section-2
   discussion), packet wait-for graphs (Dally-Aoki), the Corollary-1
   input-independence checker, and Trace timelines. *)

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

(* An event sink that rebuilds the wait-for graph (who waits for which
   channel, who holds it) and, after the run, the first cycle at whose end
   the waiter -> holder graph held a cycle. *)
let first_cyclic_monitor () =
  let wants = Hashtbl.create 16 and owner = Hashtbl.create 16 in
  let first = ref None and cycle = ref 0 in
  let close_cycle () =
    let holder l = Option.bind (Hashtbl.find_opt wants l) (Hashtbl.find_opt owner) in
    let waiters = Hashtbl.fold (fun l _ acc -> l :: acc) wants [] in
    if !first = None && Waitfor.cycle ~next:holder waiters <> [] then first := Some !cycle
  in
  let at t = if t > !cycle then (close_cycle (); cycle := t) in
  let emit (e : Obs_event.t) =
    match e with
    | Wait_add { cycle = t; label; channel; _ } ->
      at t;
      Hashtbl.replace wants label channel
    | Wait_drop { cycle = t; label; _ } | Abort { cycle = t; label; _ } ->
      at t;
      Hashtbl.remove wants label
    | Channel_acquire { cycle = t; label; channel; _ } ->
      at t;
      Hashtbl.remove wants label;
      Hashtbl.replace owner channel label
    | Channel_release { cycle = t; channel; _ } ->
      at t;
      Hashtbl.remove owner channel
    | Run_end { cycle = t; _ } ->
      at t;
      close_cycle ()
    | _ -> ()
  in
  ({ Obs_event.emit }, fun () -> !first)

let test_pwfg_acyclic_on_mesh () =
  let coords = Builders.mesh [ 4; 4 ] in
  let rt = Dimension_order.mesh coords in
  let rng = Rng.create 21 in
  let pattern = Traffic.uniform rng coords in
  let sched =
    Traffic.bernoulli_schedule rng pattern ~coords ~rate:0.05 ~length:4 ~horizon:100
  in
  let obs, first_cyclic = first_cyclic_monitor () in
  (match Engine.run ~obs rt sched with
  | Engine.All_delivered _ -> ()
  | _ -> Alcotest.fail "expected delivery");
  check (Alcotest.option ci) "wait-for graph stays acyclic" None (first_cyclic ())

let test_pwfg_cyclic_at_deadlock () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let obs, first_cyclic = first_cyclic_monitor () in
  match Engine.run ~obs rt sched with
  | Engine.Deadlock d ->
    (match first_cyclic () with
    | Some t -> check cb "cycle appears no later than detection" true (t <= d.Engine.d_cycle)
    | None -> Alcotest.fail "wait-for graph never became cyclic")
  | _ -> Alcotest.fail "expected deadlock"

(* [Waitfor.cycle] over a plain (waiter, holder) list *)
let test_pwfg_holder_list () =
  let cycle edges =
    Waitfor.cycle ~next:(fun l -> Option.join (List.assoc_opt l edges)) (List.map fst edges)
  in
  check (Alcotest.list Alcotest.string) "cycle" [ "a"; "b" ]
    (cycle [ ("a", Some "b"); ("b", Some "a"); ("c", None) ]);
  check (Alcotest.list Alcotest.string) "chain acyclic" []
    (cycle [ ("a", Some "b"); ("c", Some "b") ]);
  (* a walk that runs into a cycle from outside returns the cycle alone *)
  check (Alcotest.list Alcotest.string) "tail cut" [ "b"; "c" ]
    (cycle [ ("a", Some "b"); ("b", Some "c"); ("c", Some "b") ])

(* ---- input independence (Corollary 1) ---- *)

let input_independent rt =
  Properties.is_holds (List.assoc "input-independent" (Properties.summary rt))

let test_input_independent_xy () =
  let rt = Dimension_order.mesh (Builders.mesh [ 4; 4 ]) in
  check cb "xy input-independent" true (input_independent rt)

let test_input_dependent_cd () =
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  (* Corollary 1: an N x N -> C algorithm has no unreachable cycles, so the
     CD algorithm must be input-dependent *)
  check cb "cd input-dependent" false (input_independent rt)

let test_input_dependent_dateline () =
  (* the dateline discipline consults the input channel's vc *)
  let rt = Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6) in
  check cb "dateline input-dependent" false (input_independent rt)

(* [summary] labels its six rows in a fixed order and derives "coherent"
   (Definition 9) from the three verdicts it conjoins: on every oblivious
   registry entry the coherent row is the first failure among no repeated
   nodes, prefix-closed and suffix-closed, failure text included.  Each
   row against an independent checker is test_qcheck's "static-oracle". *)
let test_summary_rows () =
  let verdict = Alcotest.testable Properties.pp_verdict ( = ) in
  let labels =
    [
      "minimal"; "no-repeated-nodes"; "prefix-closed"; "suffix-closed"; "coherent";
      "input-independent";
    ]
  in
  List.iter
    (fun (e : Registry.entry) ->
      match e.r_algo with
      | Registry.Adaptive _ -> ()
      | Registry.Oblivious rt ->
        let rows = Properties.summary rt in
        check (Alcotest.list Alcotest.string) (e.r_name ^ " rows") labels (List.map fst rows);
        let conjuncts =
          List.map
            (fun l -> List.assoc l rows)
            [ "no-repeated-nodes"; "prefix-closed"; "suffix-closed" ]
        in
        let want =
          Option.value ~default:Properties.Holds
            (List.find_opt (fun v -> not (Properties.is_holds v)) conjuncts)
        in
        check verdict (e.r_name ^ " coherent") want (List.assoc "coherent" rows))
    (Registry.entries ())

(* ---- trace ---- *)

(* cells per row of an untruncated render *)
let columns render =
  match String.split_on_char '\n' render with
  | _ :: row :: _ -> String.length row - String.rindex row ' ' - 1
  | _ -> 0

let test_trace_collects_and_renders () =
  let coords = Builders.mesh [ 3; 3 ] in
  let rt = Dimension_order.mesh coords in
  let obs, events = Obs_event.recorder () in
  (match Engine.run ~obs rt [ Schedule.message ~length:3 "a" 0 8 ] with
  | Engine.All_delivered { finished_at; _ } ->
    let s = Trace.render coords.Builders.topo (events ()) in
    check ci "one column per cycle" (finished_at + 1) (columns s);
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

let test_trace_truncation () =
  let coords = Builders.mesh [ 3; 3 ] in
  let rt = Dimension_order.mesh coords in
  let obs, events = Obs_event.recorder () in
  let cycles =
    match Engine.run ~obs rt [ Schedule.message ~length:30 "a" 0 8 ] with
    | Engine.All_delivered { finished_at; _ } -> finished_at + 1
    | _ -> Alcotest.fail "expected delivery"
  in
  let s = Trace.render ~max_cycles:5 coords.Builders.topo (events ()) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check cb "notes exact truncated cycle count" true
    (contains (Printf.sprintf "… +%d cycles" (cycles - 5)) s)

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
  let obs, events = Obs_event.recorder () in
  check Alcotest.string "outcome" "recovered"
    (Engine.outcome_string (Engine.run ~config ~obs rt sched));
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
    (Trace.render ring.Builders.topo (events ()))

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
  let obs, events = Obs_event.recorder () in
  check Alcotest.string "outcome" "all-delivered"
    (Engine.outcome_string
       (Engine.run_adaptive ~obs (Adaptive.fully_adaptive_minimal mesh) sched));
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
    (Trace.render mesh.Builders.topo (events ()))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Under cut-through the channel queues hold the longest packet (6 flits
   here, over the configured 2): [worm], blocked behind [hog], compresses
   into its head channel and shows uppercase cells. *)
let test_trace_vct_compression () =
  let mesh = Builders.mesh [ 4; 2 ] in
  let n = mesh.Builders.node_at in
  let sched =
    [
      Schedule.message ~length:6 "hog" (n [| 1; 0 |]) (n [| 3; 0 |]);
      Schedule.message ~length:4 ~at:1 "worm" (n [| 0; 0 |]) (n [| 3; 0 |]);
    ]
  in
  let config =
    { Engine.default_config with buffer_capacity = 2; discipline = Engine.Virtual_cut_through }
  in
  let obs, events = Obs_event.recorder () in
  check Alcotest.string "outcome" "all-delivered"
    (Engine.outcome_string (Engine.run ~config ~obs (Dimension_order.mesh mesh) sched));
  check Alcotest.string "timeline"
    (read_file "golden/vct-compress.timeline.txt")
    (Trace.render mesh.Builders.topo (events ()))

(* A stall holds [b]'s header, a failed link wedges [a] until the watchdog
   drains it and reroutes it around the failure, and [c] is dropped at its
   source and re-injected after the backoff. *)
let test_trace_faulted_reroute () =
  let mesh = Builders.mesh [ 4; 4 ] in
  let topo = mesh.Builders.topo and n = mesh.Builders.node_at in
  let rt = Dimension_order.mesh mesh in
  let chan a b = Option.get (Topology.find_channel topo (n a) (n b)) in
  let failed = chan [| 1; 0 |] [| 2; 0 |] in
  let sched =
    [
      Schedule.message ~length:4 "a" (n [| 0; 0 |]) (n [| 3; 0 |]);
      Schedule.message ~length:3 "b" (n [| 0; 1 |]) (n [| 0; 3 |]);
      Schedule.message ~length:3 ~at:3 "c" (n [| 3; 3 |]) (n [| 0; 3 |]);
    ]
  in
  let config =
    {
      Engine.default_config with
      faults =
        Fault.make
          [
            Fault.Link_failure { channel = failed; at = 2 };
            Fault.Transient_stall { channel = chan [| 0; 1 |] [| 0; 2 |]; at = 1; duration = 4 };
            Fault.Message_drop { label = "c"; at = 2 };
          ];
      recovery =
        Some
          {
            Engine.trigger = Engine.Watchdog 6;
            retry_limit = 2;
            backoff = 3;
            reroute = Some (Routing.avoiding ~failed:[ failed ] rt);
          };
    }
  in
  let obs, events = Obs_event.recorder () in
  check Alcotest.string "outcome"
    "recovered by cycle 19: 3 delivered, 0 dropped, 0 gave up (2 retries total)\n\
    \  a: delivered after 1 retry\n\
    \  c: delivered after 1 retry"
    (Format.asprintf "%a" (Engine.pp_outcome topo) (Engine.run ~config ~obs rt sched));
  check Alcotest.string "timeline"
    (read_file "golden/faulted-reroute.timeline.txt")
    (Trace.render topo (events ()))

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
          Alcotest.test_case "waiter-holder list" `Quick test_pwfg_holder_list;
        ] );
      ( "input_independence",
        [
          Alcotest.test_case "xy independent" `Quick test_input_independent_xy;
          Alcotest.test_case "cd dependent" `Quick test_input_dependent_cd;
          Alcotest.test_case "dateline dependent" `Quick test_input_dependent_dateline;
          Alcotest.test_case "summary row" `Quick test_summary_rows;
        ] );
      ( "trace",
        [
          Alcotest.test_case "collect and render" `Quick test_trace_collects_and_renders;
          Alcotest.test_case "truncation" `Quick test_trace_truncation;
          Alcotest.test_case "detect recovery" `Quick test_trace_detect_recovery;
          Alcotest.test_case "adaptive" `Quick test_trace_adaptive;
          Alcotest.test_case "vct compression" `Quick test_trace_vct_compression;
          Alcotest.test_case "faulted reroute" `Quick test_trace_faulted_reroute;
        ] );
    ]
