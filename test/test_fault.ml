(* Unit tests for fault plans (construction, compiled queries, parsing) and
   for the engines' recovery semantics: deadlock reporting with recovery off,
   stall delays, watchdog abort/retry, drops, degraded-routing reroute, and
   the arbitration-seniority regression after an abort. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let line3 () =
  (* a -> b -> c -> d directed line, as in test_sim *)
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

let fail_outcome rt o =
  Alcotest.failf "unexpected outcome: %s"
    (Format.asprintf "%a" (Engine.pp_outcome (Routing.topology rt)) o)

let stat_of label = function
  | Engine.Recovered { stats; _ } -> (
    match List.find_opt (fun (s : Engine.retry_stat) -> s.t_label = label) stats with
    | Some s -> s
    | None -> Alcotest.failf "no retry stat for %s" label)
  | _ -> Alcotest.fail "expected Recovered outcome"

let result_of label = function
  | Engine.All_delivered { messages; _ }
  | Engine.Cutoff { messages; _ }
  | Engine.Recovered { messages; _ } ->
    List.find (fun (r : Engine.message_result) -> r.r_label = label) messages
  | Engine.Deadlock _ -> Alcotest.fail "expected messages"

(* ---- plans and compiled queries ---- *)

let test_make_and_queries () =
  let rt, _, _, ab, bc, _ = line3 () in
  let topo = Routing.topology rt in
  let plan =
    Fault.make
      [
        Fault.Link_failure { channel = ab; at = 5 };
        Fault.Transient_stall { channel = bc; at = 2; duration = 3 };
        Fault.Message_drop { label = "m"; at = 4 };
      ]
  in
  check cb "empty is empty" true (Fault.is_empty Fault.empty);
  check cb "plan not empty" false (Fault.is_empty plan);
  check (Alcotest.list ci) "failed channels" [ ab ] (Fault.failed_channels plan);
  let c = Fault.compile ~nchan:(Topology.num_channels topo) plan in
  (* permanent failure: down from its cycle onward *)
  check cb "ab up before" false (Fault.down c ab 4);
  check cb "ab down at failure" true (Fault.down c ab 5);
  check cb "ab down forever" true (Fault.down c ab 1000);
  check cb "ab perm" true (Fault.perm_failed c ab 5);
  (* stall: a half-open window *)
  check cb "bc up before stall" false (Fault.down c bc 1);
  check cb "bc down at start" true (Fault.down c bc 2);
  check cb "bc down at end" true (Fault.down c bc 4);
  check cb "bc up after stall" false (Fault.down c bc 5);
  check cb "bc never perm" false (Fault.perm_failed c bc 1000);
  (* last boundary is the failure at 5 / stall end at 5 *)
  check cb "change after 4" true (Fault.change_after c 4);
  check cb "quiet after 5" false (Fault.change_after c 5)

let test_make_rejects () =
  let _, _, _, ab, _, _ = line3 () in
  Alcotest.check_raises "negative failure time"
    (Invalid_argument "Fault.make: failure time < 0") (fun () ->
      ignore (Fault.make [ Fault.Link_failure { channel = ab; at = -1 } ]));
  Alcotest.check_raises "zero stall duration"
    (Invalid_argument "Fault.make: stall duration < 1") (fun () ->
      ignore (Fault.make [ Fault.Transient_stall { channel = ab; at = 0; duration = 0 } ]));
  Alcotest.check_raises "negative drop time" (Invalid_argument "Fault.make: drop time < 0")
    (fun () -> ignore (Fault.make [ Fault.Message_drop { label = "m"; at = -2 } ]))

let test_parse_roundtrip () =
  let rt, _, _, ab, bc, _ = line3 () in
  let topo = Routing.topology rt in
  let plan =
    match Fault.parse topo "fail:b>c@10, stall:a>b@5+8, drop:m1@0" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  check cb "parsed events" true
    (Fault.events plan
    = [
        Fault.Link_failure { channel = bc; at = 10 };
        Fault.Transient_stall { channel = ab; at = 5; duration = 8 };
        Fault.Message_drop { label = "m1"; at = 0 };
      ]);
  (* the printed form (src->dst names) parses back to the same plan *)
  let printed = Format.asprintf "%a" (Fault.pp topo) plan in
  match Fault.parse topo printed with
  | Ok p2 -> check cb "round trip" true (Fault.events p2 = Fault.events plan)
  | Error e -> Alcotest.failf "re-parse of %S failed: %s" printed e

let test_parse_mesh_channel_names () =
  (* mesh node names contain commas -- "n(0,1)" -- so the event splitter
     must not break inside parentheses *)
  let coords = Builders.mesh [ 2; 2 ] in
  let topo = coords.Builders.topo in
  match Fault.parse topo "fail:n(0,0)>n(0,1)@2, stall:n(0,1)>n(1,1)@0+4" with
  | Ok p -> (
    match Fault.events p with
    | [ Fault.Link_failure { at = 2; _ }; Fault.Transient_stall { at = 0; duration = 4; _ } ]
      ->
      check ci "one failed channel" 1 (List.length (Fault.failed_channels p))
    | _ -> Alcotest.fail "wrong events")
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let rt, _, _, _, _, _ = line3 () in
  let topo = Routing.topology rt in
  List.iter
    (fun spec ->
      match Fault.parse topo spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" spec)
    [
      "fail:a>z@3" (* unknown node *);
      "fail:a@3" (* no channel *);
      "wedge:a>b@3" (* unknown kind *);
      "stall:a>b@3" (* missing duration *);
      "fail:a>b" (* missing time *);
      "fail:a>b@-2" (* negative time *);
      "stall:a>b@3+0" (* empty window *);
    ]

(* ---- engine semantics ---- *)

let test_failure_is_deadlock_without_recovery () =
  (* a permanently failed channel wedges the message; with the paper's model
     (no recovery) that is reported exactly like a deadlock *)
  let rt, a, d, _, bc, _ = line3 () in
  let config =
    {
      Engine.default_config with
      faults = Fault.make [ Fault.Link_failure { channel = bc; at = 0 } ];
    }
  in
  match Engine.run ~config rt [ Schedule.message ~length:2 "m" a d ] with
  | Engine.Deadlock dl -> (
    match dl.Engine.d_blocked with
    | [ b ] ->
      check cb "blocked message" true (b.Engine.b_label = "m");
      check cb "waiting on the dead channel" true (b.Engine.b_wants = [ bc ]);
      check cb "nobody holds it" true (b.Engine.b_holder = None)
    | _ -> Alcotest.fail "expected exactly one blocked message")
  | o -> fail_outcome rt o

let test_stall_delays_delivery () =
  let rt, a, d, _, bc, _ = line3 () in
  let sched = [ Schedule.message ~length:2 "m" a d ] in
  let base =
    match Engine.run rt sched with
    | Engine.All_delivered { finished_at; _ } -> finished_at
    | o -> fail_outcome rt o
  in
  (* the header wants bc at cycle 1; a stall over cycles 1..5 delays the
     whole worm by exactly the remaining window *)
  let config =
    {
      Engine.default_config with
      faults = Fault.make [ Fault.Transient_stall { channel = bc; at = 1; duration = 5 } ];
    }
  in
  match Engine.run ~config rt sched with
  | Engine.All_delivered { finished_at; _ } ->
    check ci "delayed by the stall" (base + 5) finished_at
  | o -> fail_outcome rt o

let test_watchdog_gives_up_on_permanent_failure () =
  let rt, a, d, _, bc, _ = line3 () in
  let config =
    {
      Engine.default_config with
      faults = Fault.make [ Fault.Link_failure { channel = bc; at = 0 } ];
      recovery =
        Some { Engine.default_recovery with trigger = Engine.Watchdog 4; retry_limit = 2; backoff = 1 };
    }
  in
  let out = Engine.run ~config rt [ Schedule.message ~length:2 "m" a d ] in
  let s = stat_of "m" out in
  check cb "gave up" true (s.Engine.t_fate = Engine.Gave_up);
  check ci "used the whole retry budget" 3 s.Engine.t_retries;
  check cb "never delivered" true ((result_of "m" out).Engine.r_delivered_at = None)

let test_drop_without_recovery () =
  (* m2 is still queued behind m1 at its drop cycle, so the drop kills it *)
  let rt, a, d, _, _, _ = line3 () in
  let sched =
    [ Schedule.message ~length:4 "m1" a d; Schedule.message ~length:4 "m2" a d ]
  in
  let config =
    {
      Engine.default_config with
      faults = Fault.make [ Fault.Message_drop { label = "m2"; at = 2 } ];
    }
  in
  let out = Engine.run ~config rt sched in
  let s = stat_of "m2" out in
  check cb "dropped" true (s.Engine.t_fate = Engine.Dropped);
  check cb "never entered the network" true
    ((result_of "m2" out).Engine.r_injected_at = None);
  check cb "m1 unaffected" true
    ((stat_of "m1" out).Engine.t_fate = Engine.Delivered)

let test_drop_with_recovery_retries () =
  (* the same drop under a recovery policy costs one retry, then delivers *)
  let rt, a, d, _, _, _ = line3 () in
  let sched =
    [ Schedule.message ~length:4 "m1" a d; Schedule.message ~length:4 "m2" a d ]
  in
  let config =
    {
      Engine.default_config with
      faults = Fault.make [ Fault.Message_drop { label = "m2"; at = 2 } ];
      recovery =
        Some { Engine.default_recovery with trigger = Engine.Watchdog 8; retry_limit = 2; backoff = 2 };
    }
  in
  let out = Engine.run ~config rt sched in
  let s = stat_of "m2" out in
  check cb "delivered after retry" true (s.Engine.t_fate = Engine.Delivered);
  check ci "one retry" 1 s.Engine.t_retries;
  check cb "delivery time recorded" true
    ((result_of "m2" out).Engine.r_delivered_at <> None)

let test_reroute_restores_delivery () =
  (* mesh with one failed channel: Degrade certifies an avoiding routing and
     the engine delivers over it after the watchdog abort *)
  let coords = Builders.mesh [ 4; 4 ] in
  let rt = Dimension_order.mesh coords in
  let failed = [ List.hd (Routing.path_exn rt 0 15) ] in
  let d =
    match Degrade.reroute ~quick:true ~failed rt with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  check cb "certified" true (Degrade.certified d);
  (match d.Degrade.certification with
  | Degrade.Acyclic _ -> ()
  | c -> Alcotest.failf "expected acyclic certificate, got %s" (Format.asprintf "%a" Degrade.pp { d with Degrade.certification = c }));
  let config =
    {
      Engine.default_config with
      faults =
        Fault.make [ Fault.Link_failure { channel = List.hd failed; at = 0 } ];
      recovery =
        Some
          {
            Engine.trigger = Engine.Watchdog 8;
            retry_limit = 3;
            backoff = 2;
            reroute = Some d.Degrade.routing;
          };
    }
  in
  let out = Engine.run ~config rt [ Schedule.message ~length:2 "m" 0 15 ] in
  let s = stat_of "m" out in
  check cb "delivered via detour" true (s.Engine.t_fate = Engine.Delivered);
  check cb "after at least one abort" true (s.Engine.t_retries >= 1)

let test_reroute_rejects_disconnection () =
  (* failing the only b->c link disconnects a from d: reroute must refuse *)
  let rt, _, _, _, bc, _ = line3 () in
  match Degrade.reroute ~failed:[ bc ] rt with
  | Error _ -> ()
  | Ok d -> Alcotest.failf "expected error, got %s" (Format.asprintf "%a" Degrade.pp d)

let test_abort_resets_wait_seniority () =
  (* regression for the stale wait_since bookkeeping: after m1 aborts and
     backs off, m2 (waiting since cycle 3) must beat m1's fresh re-request
     for the injection channel.  With stale entries m1 would keep its
     cycle-0 seniority and win again. *)
  let rt, a, d, _, bc, _ = line3 () in
  let config =
    {
      Engine.default_config with
      faults = Fault.make [ Fault.Transient_stall { channel = bc; at = 0; duration = 9 } ];
      recovery =
        Some { Engine.default_recovery with trigger = Engine.Watchdog 4; retry_limit = 5; backoff = 1 };
    }
  in
  let sched =
    [ Schedule.message ~length:1 "m1" a d; Schedule.message ~length:1 ~at:3 "m2" a d ]
  in
  let out = Engine.run ~config rt sched in
  let m1 = result_of "m1" out and m2 = result_of "m2" out in
  check cb "both delivered" true
    (m1.Engine.r_delivered_at <> None && m2.Engine.r_delivered_at <> None);
  check cb "waiter outranks the re-injection" true
    (Option.get m2.Engine.r_injected_at < Option.get m1.Engine.r_injected_at)

let test_adaptive_recovery_terminates () =
  (* fully adaptive minimal routing can deadlock on its own; with recovery
     the faulted run still terminates, deterministically *)
  let coords = Builders.mesh [ 3; 3 ] in
  let ad = Adaptive.fully_adaptive_minimal coords in
  let sched =
    [
      Schedule.message ~length:3 "ne" 0 8;
      Schedule.message ~length:3 "sw" 8 0;
      Schedule.message ~length:3 "nw" 2 6;
      Schedule.message ~length:3 "se" 6 2;
    ]
  in
  let topo = coords.Builders.topo in
  let config =
    {
      Engine.default_config with
      faults =
        Fault.make
          [
            Fault.Transient_stall
              { channel = List.hd (Topology.channels topo); at = 0; duration = 6 };
          ];
      recovery =
        Some { Engine.default_recovery with trigger = Engine.Watchdog 8; retry_limit = 3; backoff = 2 };
    }
  in
  let run () = Engine.run_adaptive ~config ad sched in
  let out = run () in
  (match out with
  | Engine.All_delivered _ | Engine.Recovered _ -> ()
  | o ->
    Alcotest.failf "expected termination, got %s"
      (Format.asprintf "%a" (Engine.pp_outcome topo) o));
  check cb "deterministic" true (run () = out)

let () =
  Alcotest.run "fault"
    [
      ( "plans",
        [
          Alcotest.test_case "make and compiled queries" `Quick test_make_and_queries;
          Alcotest.test_case "make rejects bad events" `Quick test_make_rejects;
          Alcotest.test_case "parse round trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse mesh channel names" `Quick test_parse_mesh_channel_names;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "failure is deadlock without recovery" `Quick
            test_failure_is_deadlock_without_recovery;
          Alcotest.test_case "stall delays delivery" `Quick test_stall_delays_delivery;
          Alcotest.test_case "watchdog gives up" `Quick
            test_watchdog_gives_up_on_permanent_failure;
          Alcotest.test_case "drop without recovery" `Quick test_drop_without_recovery;
          Alcotest.test_case "drop with recovery retries" `Quick
            test_drop_with_recovery_retries;
          Alcotest.test_case "abort resets wait seniority" `Quick
            test_abort_resets_wait_seniority;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "reroute restores delivery" `Quick test_reroute_restores_delivery;
          Alcotest.test_case "reroute rejects disconnection" `Quick
            test_reroute_rejects_disconnection;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "recovery terminates" `Quick test_adaptive_recovery_terminates;
        ] );
    ]
