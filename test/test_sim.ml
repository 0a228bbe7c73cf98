(* Unit tests for the flit-level wormhole engine: timing, atomic buffer
   allocation, arbitration, adversarial holds, deadlock detection. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let line3 () =
  (* a -> b -> c -> d directed line for timing tests *)
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let c = Topology.add_node t "c" in
  let d = Topology.add_node t "d" in
  let ab = Topology.add_channel t a b in
  let bc = Topology.add_channel t b c in
  let cd = Topology.add_channel t c d in
  let rt =
    Routing.create ~name:"line" t (fun input _dest ->
        match input with
        | Routing.Inject n -> if n = a then Some ab else None
        | Routing.From ch -> if ch = ab then Some bc else if ch = bc then Some cd else None)
  in
  (rt, a, d, ab, bc, cd)

let delivered_at = function
  | Engine.All_delivered { messages = [ r ]; _ } -> (
    match r.Engine.r_delivered_at with Some t -> t | None -> Alcotest.fail "no delivery time")
  | _ -> Alcotest.fail "expected single delivery"

let test_solo_latency () =
  (* header: cycle 0 enters ab, 1 bc, 2 cd, consumed at 3; flit f of L
     follows; tail consumed at 3 + L - 1.  L=1 -> 3, L=4 -> 6. *)
  let rt, a, d, _, _, _ = line3 () in
  let t1 = delivered_at (Engine.run rt [ Schedule.message ~length:1 "m" a d ]) in
  check ci "L=1" 3 t1;
  let t4 = delivered_at (Engine.run rt [ Schedule.message ~length:4 "m" a d ]) in
  check ci "L=4" 6 t4;
  (* distance-insensitivity of wormhole: latency = hops + length - 1 + 1 *)
  let t10 = delivered_at (Engine.run rt [ Schedule.message ~length:10 "m" a d ]) in
  check ci "L=10" 12 t10

let test_inject_time_respected () =
  let rt, a, d, _, _, _ = line3 () in
  let t = delivered_at (Engine.run rt [ Schedule.message ~length:1 ~at:5 "m" a d ]) in
  check ci "shifted by 5" 8 t

let test_larger_buffers_do_not_slow () =
  let rt, a, d, _, _, _ = line3 () in
  let config = { Engine.default_config with buffer_capacity = 4 } in
  let t = delivered_at (Engine.run ~config rt [ Schedule.message ~length:4 "m" a d ]) in
  check ci "same latency" 6 t

let test_atomic_allocation_serializes () =
  (* two messages over the same line: the second header may only enter ab
     after the first message's tail has left it *)
  let rt, a, d, _, _, _ = line3 () in
  let out =
    Engine.run rt
      [ Schedule.message ~length:3 "first" a d; Schedule.message ~length:3 "second" a d ]
  in
  match out with
  | Engine.All_delivered { messages; _ } ->
    let find l =
      List.find (fun (r : Engine.message_result) -> r.r_label = l) messages
    in
    let first = find "first" and second = find "second" in
    (* first: header in ab at 0; flits 3: tail enters ab at 2, leaves at 3;
       ab released end of 3; second injected at 4 *)
    check (Alcotest.option ci) "first injected" (Some 0) first.r_injected_at;
    check (Alcotest.option ci) "second waits for release" (Some 4) second.r_injected_at;
    check (Alcotest.option ci) "first delivered" (Some 5) first.r_delivered_at;
    check (Alcotest.option ci) "second delivered" (Some 9) second.r_delivered_at
  | _ -> Alcotest.fail "expected delivery"

let test_fifo_arbitration_fairness () =
  (* three messages requesting the same first channel at the same cycle are
     served in schedule order under FIFO; all deliver *)
  let rt, a, d, _, _, _ = line3 () in
  let sched = List.init 3 (fun i -> Schedule.message ~length:2 (Printf.sprintf "m%d" i) a d) in
  match Engine.run rt sched with
  | Engine.All_delivered { messages; _ } ->
    let times =
      List.map
        (fun (r : Engine.message_result) -> Option.get r.r_injected_at)
        messages
    in
    check (Alcotest.list ci) "served in order" [ 0; 3; 6 ] times
  | _ -> Alcotest.fail "expected delivery"

let test_priority_arbitration () =
  (* priority order reverses who wins the simultaneous request *)
  let rt, a, d, _, _, _ = line3 () in
  let sched = [ Schedule.message ~length:2 "x" a d; Schedule.message ~length:2 "y" a d ] in
  let config = { Engine.default_config with arbitration = Engine.Priority [ "y"; "x" ] } in
  match Engine.run ~config rt sched with
  | Engine.All_delivered { messages; _ } ->
    let find l = List.find (fun (r : Engine.message_result) -> r.r_label = l) messages in
    check cb "y first" true
      (Option.get (find "y").r_injected_at < Option.get (find "x").r_injected_at)
  | _ -> Alcotest.fail "expected delivery"

let test_priority_does_not_starve_waiters () =
  (* a message already waiting beats a higher-priority later request
     (assumption 5: starvation-free service) *)
  let rt, a, d, _, _, _ = line3 () in
  let sched =
    [ Schedule.message ~length:6 "hog" a d;
      Schedule.message ~length:1 ~at:1 "early" a d;
      Schedule.message ~length:1 ~at:5 "late" a d ]
  in
  let config = { Engine.default_config with arbitration = Engine.Priority [ "late"; "early"; "hog" ] } in
  match Engine.run ~config rt sched with
  | Engine.All_delivered { messages; _ } ->
    let find l = List.find (fun (r : Engine.message_result) -> r.r_label = l) messages in
    check cb "early before late" true
      (Option.get (find "early").r_injected_at < Option.get (find "late").r_injected_at)
  | _ -> Alcotest.fail "expected delivery"

let test_hold_delays_exactly () =
  let rt, a, d, _, bc, _ = line3 () in
  let base = delivered_at (Engine.run rt [ Schedule.message ~length:2 "m" a d ]) in
  List.iter
    (fun h ->
      let held =
        delivered_at
          (Engine.run rt [ Schedule.message ~length:2 ~holds:[ (bc, h) ] "m" a d ])
      in
      check ci (Printf.sprintf "hold %d" h) (base + h) held)
    [ 1; 2; 5 ]

let test_hold_expiry_not_deadlock () =
  (* regression: a hold expiring in an otherwise quiet cycle must not be
     misreported as a permanent block *)
  let rt, a, d, ab, _, _ = line3 () in
  match Engine.run rt [ Schedule.message ~length:1 ~holds:[ (ab, 10) ] "m" a d ] with
  | Engine.All_delivered { finished_at; _ } -> check ci "delivered late" 13 finished_at
  | o -> Alcotest.failf "unexpected outcome: %s" (Format.asprintf "%a" (Engine.pp_outcome (Routing.topology rt)) o)

let ring4 () =
  let coords = Builders.ring ~unidirectional:true 4 in
  (Ring_routing.clockwise coords, coords)

let test_ring_deadlock_detected () =
  let rt, _ = ring4 () in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:2 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  match Engine.run rt sched with
  | Engine.Deadlock d ->
    check ci "four blocked" 4 (List.length d.Engine.d_blocked);
    check ci "wait cycle covers all" 4 (List.length d.Engine.d_wait_cycle);
    (* every blocked message's wanted channel is held by another message *)
    List.iter
      (fun (b : Engine.blocked_info) ->
        match b.b_holder with
        | Some h -> check cb "holder is another message" true (h <> b.b_label)
        | None -> Alcotest.fail "blocked on a free channel")
      d.Engine.d_blocked;
    (* occupancy is consistent: each ring channel held by exactly one *)
    check ci "four held channels" 4 (List.length d.Engine.d_occupancy)
  | o ->
    Alcotest.failf "expected deadlock, got %s"
      (Format.asprintf "%a" (Engine.pp_outcome (Routing.topology rt)) o)

let test_ring_staggered_no_deadlock () =
  (* the same population, injected far enough apart to drain, delivers *)
  let rt, _ = ring4 () in
  let sched =
    List.init 4 (fun i ->
        Schedule.message ~length:2 ~at:(10 * i) (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  match Engine.run rt sched with
  | Engine.All_delivered _ -> ()
  | o ->
    Alcotest.failf "expected delivery, got %s"
      (Format.asprintf "%a" (Engine.pp_outcome (Routing.topology rt)) o)

let test_partial_traffic_then_quiesce () =
  (* messages that do not interact still finish independently *)
  let rt, _ = ring4 () in
  let sched = [ Schedule.message ~length:3 "solo" 0 1; Schedule.message ~length:3 ~at:20 "later" 2 3 ] in
  match Engine.run rt sched with
  | Engine.All_delivered { finished_at; _ } -> check cb "finishes after 20" true (finished_at >= 20)
  | _ -> Alcotest.fail "expected delivery"

let test_validate_rejected () =
  let rt, _ = ring4 () in
  let bad label = Alcotest.check_raises label (Invalid_argument ("Engine.run: " ^ label)) in
  bad "duplicate message labels" (fun () ->
      ignore (Engine.run rt [ Schedule.message "m" 0 1; Schedule.message "m" 1 2 ]));
  Alcotest.check_raises "src=dst" (Invalid_argument "Engine.run: m: source equals destination")
    (fun () -> ignore (Engine.run rt [ Schedule.message "m" 0 0 ]));
  Alcotest.check_raises "bad length" (Invalid_argument "Engine.run: m: length < 1") (fun () ->
      ignore (Engine.run rt [ Schedule.message ~length:0 "m" 0 1 ]))

(* a hold naming a channel outside the topology is rejected by validation
   in both engines (it used to reach the kernel's channel-indexed hold
   scratch row and die there with a bare index error) *)
let test_hold_unknown_channel () =
  let rt, _ = ring4 () in
  let ad = Adaptive.of_oblivious rt in
  let nchan = Topology.num_channels (Routing.topology rt) in
  List.iter
    (fun c ->
      let bad = [ Schedule.message ~holds:[ (c, 2) ] "m" 0 2 ] in
      Alcotest.check_raises "oblivious"
        (Invalid_argument "Engine.run: m: hold on unknown channel") (fun () ->
          ignore (Engine.run rt bad));
      Alcotest.check_raises "adaptive"
        (Invalid_argument "Adaptive_engine.run: m: hold on unknown channel") (fun () ->
          ignore (Adaptive_engine.run ad bad));
      check cb "Schedule.validate" true
        (Schedule.validate rt bad = Error "m: hold on unknown channel"))
    [ nchan; -1 ];
  (* the rejected runs leave nothing behind: an in-range hold afterwards
     runs exactly as on a freshly built routing *)
  let first = List.hd (Routing.path_exn rt 0 2) in
  let good = [ Schedule.message ~length:2 ~holds:[ (first, 3) ] "m" 0 2 ] in
  let fresh = Routing.create ~name:(Routing.name rt) (Routing.topology rt) (Routing.next rt) in
  check cb "same outcome as a fresh routing" true (Engine.run rt good = Engine.run fresh good)

let test_cutoff () =
  let rt, _ = ring4 () in
  let config = { Engine.default_config with max_cycles = 2 } in
  match Engine.run ~config rt [ Schedule.message ~length:50 "m" 0 3 ] with
  | Engine.Cutoff { at; _ } -> check ci "cutoff at limit" 2 at
  | _ -> Alcotest.fail "expected cutoff"

let test_determinism () =
  let rt, _ = ring4 () in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let a = Engine.run rt sched and b = Engine.run rt sched in
  check cb "identical outcomes" true (a = b)

let test_buffer_capacity_compresses () =
  (* with capacity 2 a 4-flit message occupies half as many channels when
     blocked; verify via deadlock occupancy on the ring *)
  let rt, _ = ring4 () in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:4 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let config = { Engine.default_config with buffer_capacity = 4 } in
  match Engine.run ~config rt sched with
  | Engine.Deadlock d ->
    List.iter (fun (_, _, n) -> check cb "compressed" true (n <= 4)) d.Engine.d_occupancy;
    (* at least one queue holds more than one flit *)
    check cb "some multi-flit queue" true
      (List.exists (fun (_, _, n) -> n > 1) d.Engine.d_occupancy)
  | _ -> Alcotest.fail "expected deadlock"

(* ---- switching disciplines ---- *)

let test_saf_slower_than_wormhole () =
  let rt, a, d, _, _, _ = line3 () in
  let saf =
    { Engine.default_config with buffer_capacity = 4; discipline = Engine.Store_and_forward }
  in
  let t_saf = delivered_at (Engine.run ~config:saf rt [ Schedule.message ~length:4 "m" a d ]) in
  let t_wh = delivered_at (Engine.run rt [ Schedule.message ~length:4 "m" a d ]) in
  check cb "SAF strictly slower" true (t_saf > t_wh);
  (* SAF latency grows with hops x length, wormhole with hops + length *)
  check ci "SAF latency" 11 t_saf

let test_saf_requires_capacity () =
  let rt, a, d, _, _, _ = line3 () in
  let saf =
    { Engine.default_config with buffer_capacity = 2; discipline = Engine.Store_and_forward }
  in
  Alcotest.check_raises "capacity check"
    (Invalid_argument "Engine.run: store-and-forward needs buffer_capacity >= message length")
    (fun () -> ignore (Engine.run ~config:saf rt [ Schedule.message ~length:4 "m" a d ]))

let test_vct_releases_upstream () =
  (* under cut-through buffering a blocked message compresses into one
     queue, so a second message can reuse the upstream channels *)
  let rt, a, d, ab, _, _ = line3 () in
  let vct = { Engine.default_config with buffer_capacity = 8 } in
  let sched =
    [
      Schedule.message ~length:4 ~holds:[ (ab, 0) ] "first" a d;
      Schedule.message ~length:4 "second" a d;
    ]
  in
  match (Engine.run ~config:vct rt sched, Engine.run rt sched) with
  | Engine.All_delivered { finished_at = t_vct; _ }, Engine.All_delivered { finished_at = t_wh; _ }
    ->
    (* with deep buffers the second message streams in right behind the
       first and the whole run finishes no later than under wormhole *)
    check cb "vct no slower" true (t_vct <= t_wh)
  | _ -> Alcotest.fail "expected delivery"

let test_vct_ring_still_deadlocks () =
  let rt, _ = ring4 () in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:3 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let vct = { Engine.default_config with buffer_capacity = 8 } in
  check cb "buffer cycle deadlock" true (Engine.is_deadlock (Engine.run ~config:vct rt sched))

let test_saf_ring_deadlock () =
  (* store-and-forward is no safer than wormhole on the cyclic substrate:
     each message fully buffers in its first ring channel, then every header
     wants the channel the next message occupies -- a closed buffer cycle *)
  let rt, _ = ring4 () in
  let sched =
    List.init 4 (fun i -> Schedule.message ~length:2 (Printf.sprintf "m%d" i) i ((i + 2) mod 4))
  in
  let saf =
    { Engine.default_config with buffer_capacity = 2; discipline = Engine.Store_and_forward }
  in
  match Engine.run ~config:saf rt sched with
  | Engine.Deadlock d ->
    check ci "four blocked" 4 (List.length d.Engine.d_blocked);
    check ci "wait cycle covers all" 4 (List.length d.Engine.d_wait_cycle);
    List.iter
      (fun (b : Engine.blocked_info) ->
        match b.b_holder with
        | Some h -> check cb "holder is another message" true (h <> b.b_label)
        | None -> Alcotest.fail "blocked on a free channel")
      d.Engine.d_blocked
  | o ->
    Alcotest.failf "expected SAF deadlock, got %s"
      (Format.asprintf "%a" (Engine.pp_outcome (Routing.topology rt)) o)

(* a unidirectional 4-ring r0..r3 plus a feeder node s injecting into r1.
   Four length-2 messages contend; whoever wins channel r1->r2 decides the
   run: the ring message "a" winning drains the network, the feeder message
   "e" winning closes a four-message wait cycle. *)
let ring_with_feeder () =
  let t = Topology.create () in
  let r = Array.init 4 (fun i -> Topology.add_node t (Printf.sprintf "r%d" i)) in
  let s = Topology.add_node t "s" in
  let c = Array.init 4 (fun i -> Topology.add_channel t r.(i) r.((i + 1) mod 4)) in
  let cs = Topology.add_channel t s r.(1) in
  let rt =
    Routing.create ~name:"ring+feeder" t (fun input dest ->
        let step node = if node = dest then None else Some c.(node) in
        match input with
        | Routing.Inject n -> if n = s then Some cs else step n
        | Routing.From ch -> step (Topology.dst t ch))
  in
  (rt, s)

let test_priority_dependent_deadlock () =
  let rt, s = ring_with_feeder () in
  let sched =
    [
      Schedule.message ~length:2 "a" 0 2;
      Schedule.message ~length:2 "c" 2 0;
      Schedule.message ~length:2 "d" 3 1;
      Schedule.message ~length:2 "e" s 3;
    ]
  in
  (* FIFO breaks the r1->r2 tie for "a" (schedule order) and everything
     drains behind it *)
  (match Engine.run rt sched with
  | Engine.All_delivered _ -> ()
  | o ->
    Alcotest.failf "fifo should deliver, got %s"
      (Format.asprintf "%a" (Engine.pp_outcome (Routing.topology rt)) o));
  (* promoting the feeder message realizes the adversarial acquisition
     order: e holds r1->r2 and waits on c, c on d, d on a, a on e *)
  let config =
    { Engine.default_config with arbitration = Engine.Priority [ "e"; "a"; "c"; "d" ] }
  in
  match Engine.run ~config rt sched with
  | Engine.Deadlock d ->
    check ci "four blocked" 4 (List.length d.Engine.d_blocked);
    check ci "wait cycle covers all" 4 (List.length d.Engine.d_wait_cycle)
  | o ->
    Alcotest.failf "priority order should deadlock, got %s"
      (Format.asprintf "%a" (Engine.pp_outcome (Routing.topology rt)) o)

let test_schedule_pp_and_validate () =
  let rt, coords = ring4 () in
  let sched = [ Schedule.message ~length:2 ~holds:[ (0, 1) ] "m" 0 2 ] in
  (match Schedule.validate rt sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let s = Format.asprintf "%a" (Schedule.pp coords.Builders.topo) sched in
  check cb "pp mentions hold" true (String.length s > 10)

let () =
  Alcotest.run "sim"
    [
      ( "timing",
        [
          Alcotest.test_case "solo latency" `Quick test_solo_latency;
          Alcotest.test_case "inject time" `Quick test_inject_time_respected;
          Alcotest.test_case "buffers don't slow" `Quick test_larger_buffers_do_not_slow;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "atomic allocation serializes" `Quick
            test_atomic_allocation_serializes;
          Alcotest.test_case "buffer capacity compresses" `Quick test_buffer_capacity_compresses;
        ] );
      ( "arbitration",
        [
          Alcotest.test_case "fifo fairness" `Quick test_fifo_arbitration_fairness;
          Alcotest.test_case "priority override" `Quick test_priority_arbitration;
          Alcotest.test_case "no starvation" `Quick test_priority_does_not_starve_waiters;
          Alcotest.test_case "priority-dependent deadlock" `Quick
            test_priority_dependent_deadlock;
        ] );
      ( "holds",
        [
          Alcotest.test_case "delays exactly" `Quick test_hold_delays_exactly;
          Alcotest.test_case "expiry is not deadlock" `Quick test_hold_expiry_not_deadlock;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "ring deadlock detected" `Quick test_ring_deadlock_detected;
          Alcotest.test_case "staggered traffic passes" `Quick test_ring_staggered_no_deadlock;
          Alcotest.test_case "quiesce with future work" `Quick test_partial_traffic_then_quiesce;
        ] );
      ( "switching",
        [
          Alcotest.test_case "SAF slower" `Quick test_saf_slower_than_wormhole;
          Alcotest.test_case "SAF capacity check" `Quick test_saf_requires_capacity;
          Alcotest.test_case "VCT releases upstream" `Quick test_vct_releases_upstream;
          Alcotest.test_case "VCT ring deadlock" `Quick test_vct_ring_still_deadlocks;
          Alcotest.test_case "SAF ring deadlock" `Quick test_saf_ring_deadlock;
        ] );
      ( "api",
        [
          Alcotest.test_case "validation errors" `Quick test_validate_rejected;
          Alcotest.test_case "hold on unknown channel" `Quick test_hold_unknown_channel;
          Alcotest.test_case "cutoff" `Quick test_cutoff;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "schedule pp/validate" `Quick test_schedule_pp_and_validate;
        ] );
    ]
