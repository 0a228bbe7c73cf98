(* Tests for the adaptive routing extension: option functions, validation,
   the Duato escape-channel condition, and the adaptive engine. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let mesh2 = Builders.mesh ~vcs:2 [ 4; 4 ]
let mesh1 = Builders.mesh [ 4; 4 ]

(* ---- option functions and validation ---- *)

let test_of_oblivious_roundtrip () =
  let rt = Dimension_order.mesh mesh1 in
  let ad = Adaptive.of_oblivious rt in
  (match Adaptive.validate ad with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* singleton options equal the oblivious decision everywhere *)
  Routing.iter_realized rt (fun input dest c ->
      check (Alcotest.list ci) "singleton" [ c ] (Adaptive.options ad input dest));
  (* restrict_to_first gives back the same paths *)
  let rt' = Adaptive.restrict_to_first ad in
  for s = 0 to 15 do
    for d = 0 to 15 do
      if s <> d then
        check (Alcotest.list ci) "same path" (Routing.path_exn rt s d) (Routing.path_exn rt' s d)
    done
  done

let test_fully_adaptive_options () =
  let ad = Adaptive.fully_adaptive_minimal mesh1 in
  (match Adaptive.validate ad with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* from a corner toward the opposite corner both productive channels are
     offered *)
  let src = mesh1.node_at [| 0; 0 |] and dst = mesh1.node_at [| 3; 3 |] in
  check ci "two options" 2 (List.length (Adaptive.options ad (Routing.Inject src) dst));
  (* aligned in one dimension: only one productive channel *)
  let dst2 = mesh1.node_at [| 0; 3 |] in
  check ci "one option" 1 (List.length (Adaptive.options ad (Routing.Inject src) dst2))

let test_duato_mesh_validates () =
  let ad = Adaptive.duato_mesh mesh2 in
  match Adaptive.validate ad with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_west_first_adaptive_validates () =
  let ad = Adaptive.west_first_adaptive mesh1 in
  (match Adaptive.validate ad with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* west destinations get exactly the forced west hop *)
  let src = mesh1.node_at [| 3; 1 |] and dst = mesh1.node_at [| 0; 2 |] in
  check ci "forced west" 1 (List.length (Adaptive.options ad (Routing.Inject src) dst))

let test_validate_rejects_livelock () =
  (* an option function that allows spinning around a ring forever *)
  let r = Builders.ring ~unidirectional:true 4 in
  let ad =
    Adaptive.create ~name:"spin" r.topo (fun input dest ->
        let here = Routing.current_node r.topo input in
        if here = dest then []
        else [ Option.get (Topology.find_channel r.topo here ((here + 1) mod 4)) ])
  in
  (* clockwise ring routing is fine (terminates)... *)
  (match Adaptive.validate ad with Ok () -> () | Error e -> Alcotest.fail e);
  (* ...but offering a continuation past the destination loops *)
  let ad2 =
    Adaptive.create ~name:"overshoot" r.topo (fun input dest ->
        let here = Routing.current_node r.topo input in
        if here = dest then []
        else
          [ Option.get (Topology.find_channel r.topo here ((here + 1) mod 4)) ]
          @
          (* extra nonminimal option that skips the destination *)
          if (here + 1) mod 4 = dest then
            [ Option.get (Topology.find_channel r.topo here ((here + 1) mod 4)) ]
          else [])
  in
  ignore ad2;
  (* a function with an empty option set mid-route is rejected *)
  let ad3 =
    Adaptive.create ~name:"dead-end" r.topo (fun input dest ->
        let here = Routing.current_node r.topo input in
        if here = dest || here = (dest + 2) mod 4 then []
        else [ Option.get (Topology.find_channel r.topo here ((here + 1) mod 4)) ])
  in
  match Adaptive.validate ad3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dead-end function must be rejected"

let test_adaptive_cdg_edges () =
  let ad = Adaptive.fully_adaptive_minimal mesh1 in
  let edges = Adaptive.cdg_edges ad in
  check cb "has dependencies" true (List.length edges > 50);
  (* the adaptive CDG of fully adaptive routing on a mesh has cycles *)
  let nchan = Topology.num_channels mesh1.topo in
  let succs = Array.make nchan [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) edges;
  check cb "cyclic" true (Scc.has_cycle ~n:nchan ~succ:(fun c -> succs.(c)))

(* ---- Duato condition ---- *)

let test_duato_certifies_escape_design () =
  let ad = Adaptive.duato_mesh mesh2 in
  let escape = Adaptive.escape_of_duato_mesh mesh2 in
  let r = Duato.check ad ~escape in
  check cb "connected" true r.Duato.escape_connected;
  check cb "extended acyclic" true r.Duato.extended_acyclic;
  check cb "certified" true r.Duato.deadlock_free;
  check cb "has indirect deps" true (r.Duato.indirect_edges > 0)

let test_duato_rejects_fully_adaptive () =
  (* using the whole network as its own escape: cyclic extended CDG *)
  let ad = Adaptive.fully_adaptive_minimal mesh1 in
  let escape = Dimension_order.mesh mesh1 in
  let r = Duato.check ad ~escape in
  (* escape is offered (XY channel is always productive) but the extended
     CDG on vc0 picks up the adaptive cycles *)
  check cb "connected" true r.Duato.escape_connected;
  check cb "extended CDG cyclic" false r.Duato.extended_acyclic;
  check cb "not certified" false r.Duato.deadlock_free

let test_duato_detects_missing_escape () =
  (* an adaptive function that sometimes refuses the escape channel *)
  let ad0 = Adaptive.duato_mesh mesh2 in
  let escape = Adaptive.escape_of_duato_mesh mesh2 in
  let ad =
    Adaptive.create ~name:"broken" (Adaptive.topology ad0) (fun input dest ->
        match Adaptive.options ad0 input dest with
        | [ only ] -> [ only ]
        | adaptive_and_escape -> (
          (* drop the escape (last) option when there is an alternative *)
          match List.rev adaptive_and_escape with
          | _ :: rest -> List.rev rest
          | [] -> []))
  in
  let r = Duato.check ad ~escape in
  check cb "not connected" false r.Duato.escape_connected;
  check cb "witness" true (r.Duato.connected_witness <> None)

(* ---- adaptive engine ---- *)

let test_adaptive_engine_matches_oblivious_for_singletons () =
  let rt = Dimension_order.mesh mesh1 in
  let ad = Adaptive.of_oblivious rt in
  let sched =
    [
      Schedule.message ~length:4 "a" (mesh1.node_at [| 0; 0 |]) (mesh1.node_at [| 3; 3 |]);
      Schedule.message ~length:4 "b" (mesh1.node_at [| 3; 3 |]) (mesh1.node_at [| 0; 0 |]);
      Schedule.message ~length:2 ~at:3 "c" (mesh1.node_at [| 1; 0 |]) (mesh1.node_at [| 1; 3 |]);
    ]
  in
  match (Engine.run rt sched, Engine.run_adaptive ad sched) with
  | ( Engine.All_delivered { finished_at = t1; messages = m1 },
      Engine.All_delivered { finished_at = t2; messages = m2 } ) ->
    check ci "same finish" t1 t2;
    check cb "same results" true (m1 = m2)
  | _ -> Alcotest.fail "expected delivery on both engines"

let test_adaptive_avoids_blocked_channel () =
  (* a long message blocks the XY path; the adaptive header routes around *)
  let ad = Adaptive.fully_adaptive_minimal mesh1 in
  let n00 = mesh1.node_at [| 0; 0 |]
  and n20 = mesh1.node_at [| 2; 0 |]
  and n22 = mesh1.node_at [| 2; 2 |] in
  let hog = Schedule.message ~length:40 "hog" n00 n20 in
  let probe = Schedule.message ~length:2 ~at:2 "probe" n00 n22 in
  match Engine.run_adaptive ad [ hog; probe ] with
  | Engine.All_delivered { messages; _ } ->
    let p = List.find (fun (r : Engine.message_result) -> r.r_label = "probe") messages in
    (* the probe must not wait for the hog's 40-flit worm to drain: it can
       leave over the Y channel immediately *)
    check cb "probe fast" true (Option.get p.r_delivered_at < 20)
  | o -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" (Engine.pp_outcome mesh1.topo) o)

let test_adaptive_ring_deadlock () =
  (* with no routing freedom the adaptive engine reproduces the ring
     deadlock, wait cycle included *)
  let r = Builders.ring ~unidirectional:true 4 in
  let ad = Adaptive.of_oblivious (Ring_routing.clockwise r) in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  match Engine.run_adaptive ad sched with
  | Engine.Deadlock { d_wait_cycle; d_blocked; _ } ->
    check ci "four blocked" 4 (List.length d_blocked);
    check ci "cycle of four" 4 (List.length d_wait_cycle)
  | o -> Alcotest.failf "expected deadlock: %s" (Format.asprintf "%a" (Engine.pp_outcome r.topo) o)

let test_duato_mesh_survives_stress () =
  (* heavy random traffic on the certified design delivers *)
  let ad = Adaptive.duato_mesh mesh2 in
  let rng = Rng.create 31 in
  let pattern = Traffic.uniform rng mesh2 in
  let sched =
    Traffic.bernoulli_schedule rng pattern ~coords:mesh2 ~rate:0.08 ~length:5 ~horizon:150
  in
  match Engine.run_adaptive ad sched with
  | Engine.All_delivered _ -> ()
  | o -> Alcotest.failf "expected delivery: %s" (Format.asprintf "%a" (Engine.pp_outcome mesh2.topo) o)

let test_adaptive_determinism () =
  let ad = Adaptive.duato_mesh mesh2 in
  let rng = Rng.create 5 in
  let pattern = Traffic.uniform rng mesh2 in
  let sched =
    Traffic.bernoulli_schedule rng pattern ~coords:mesh2 ~rate:0.05 ~length:4 ~horizon:80
  in
  check cb "replays identically" true
    (Engine.run_adaptive ad sched = Engine.run_adaptive ad sched)

let () =
  Alcotest.run "adaptive"
    [
      ( "functions",
        [
          Alcotest.test_case "oblivious lift roundtrip" `Quick test_of_oblivious_roundtrip;
          Alcotest.test_case "fully adaptive options" `Quick test_fully_adaptive_options;
          Alcotest.test_case "duato mesh validates" `Quick test_duato_mesh_validates;
          Alcotest.test_case "west-first adaptive validates" `Quick
            test_west_first_adaptive_validates;
          Alcotest.test_case "dead ends rejected" `Quick test_validate_rejects_livelock;
          Alcotest.test_case "adaptive CDG edges" `Quick test_adaptive_cdg_edges;
        ] );
      ( "duato",
        [
          Alcotest.test_case "certifies escape design" `Quick test_duato_certifies_escape_design;
          Alcotest.test_case "rejects fully adaptive" `Quick test_duato_rejects_fully_adaptive;
          Alcotest.test_case "detects missing escape" `Quick test_duato_detects_missing_escape;
        ] );
      ( "engine",
        [
          Alcotest.test_case "singleton = oblivious" `Quick
            test_adaptive_engine_matches_oblivious_for_singletons;
          Alcotest.test_case "routes around blockage" `Quick test_adaptive_avoids_blocked_channel;
          Alcotest.test_case "ring deadlock" `Quick test_adaptive_ring_deadlock;
          Alcotest.test_case "duato mesh stress" `Quick test_duato_mesh_survives_stress;
          Alcotest.test_case "determinism" `Quick test_adaptive_determinism;
        ] );
    ]
