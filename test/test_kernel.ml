(* Kernel-equivalence pins for the struct-of-arrays switching kernel.

   A deterministic matrix of seeded runs -- paper figure networks and
   mesh/torus substrates, oblivious and adaptive, with holds, priorities,
   store-and-forward, faults, watchdog and online-detection recovery -- is
   fingerprinted (full outcome payload plus a digest of every field of
   every event the run emits) and compared against the verdicts captured
   from the pre-refactor record-based kernel in
   test/golden/kernel-pins.txt.  The data-oriented kernel must not change
   a single decision: not an award, not a wait edge, not a witness.

   Regenerate the pins ONLY when kernel semantics or the event stream
   change deliberately, and check that the outcome part of every line
   (before " ev=") stays the same unless a decision was meant to move:

     dune build test/test_kernel.exe && \
       WORMHOLE_KERNEL_PIN_REGEN=$PWD/test/golden/kernel-pins.txt \
       ./_build/default/test/test_kernel.exe

   The steady-cycle allocation tests pin the other half of the kernel's
   contract: once a run is past setup, simulated cycles allocate nothing
   (no closures, no option lists, no boxed options).  The reuse tests at
   the bottom check the compiled kernel (DESIGN.md section 18): runs that
   hit the per-domain memo must match runs on a freshly built routing. *)

let check = Alcotest.check

(* the kernel's two routing modes, dispatched to their entry points *)
type policy = Oblivious of Routing.t | Adaptive of Adaptive.t

let run_policy ?config ?obs policy sched =
  match policy with
  | Oblivious rt -> Engine.run ?config ?obs rt sched
  | Adaptive ad -> Engine.run_adaptive ?config ?obs ad sched

(* ---- fingerprinting ---- *)

let digest_add d (s : string) =
  (* djb2, folded into 30 bits: stable across OCaml versions, unlike
     Hashtbl.hash on arbitrary structure *)
  String.iter (fun ch -> d := ((!d lsl 5) + !d + Char.code ch) land 0x3FFFFFFF) s

let fp_messages (ms : Engine.message_result list) =
  String.concat ","
    (List.map
       (fun (r : Engine.message_result) ->
         Printf.sprintf "%s:%s:%s" r.r_label
           (match r.r_injected_at with Some t -> string_of_int t | None -> "-")
           (match r.r_delivered_at with Some t -> string_of_int t | None -> "-"))
       ms)

let fp_stats (ss : Engine.retry_stat list) =
  String.concat ","
    (List.map
       (fun (s : Engine.retry_stat) ->
         Printf.sprintf "%s:%d:%s" s.t_label s.t_retries
           (match s.t_fate with
           | Engine.Delivered -> "d"
           | Engine.Dropped -> "x"
           | Engine.Gave_up -> "g"))
       ss)

let fp_occupancy topo occ =
  String.concat ","
    (List.map
       (fun (c, l, n) -> Printf.sprintf "%s=%s*%d" (Topology.channel_name topo c) l n)
       occ)

let fp_outcome topo (o : Engine.outcome) =
  match o with
  | Engine.All_delivered { finished_at; messages } ->
    Printf.sprintf "all-delivered@%d[%s]" finished_at (fp_messages messages)
  | Engine.Cutoff { at; messages } ->
    Printf.sprintf "cutoff@%d[%s]" at (fp_messages messages)
  | Engine.Recovered { finished_at; messages; stats } ->
    Printf.sprintf "recovered@%d[%s][%s]" finished_at (fp_messages messages)
      (fp_stats stats)
  | Engine.Deadlock d ->
    let blocked =
      String.concat ";"
        (List.map
           (fun (b : Engine.blocked_info) ->
             Printf.sprintf "%s>{%s}%s" b.b_label
               (String.concat "," (List.map (Topology.channel_name topo) b.b_wants))
               (match b.b_holder with Some h -> "@" ^ h | None -> ""))
           d.d_blocked)
    in
    Printf.sprintf "deadlock@%d wait=[%s] blocked=[%s] occ=[%s]" d.d_cycle
      (String.concat ">" d.d_wait_cycle)
      blocked
      (fp_occupancy topo d.d_occupancy)

(* every field of one event, channels by name *)
let fp_event topo (e : Obs_event.t) =
  let ch = Topology.channel_name topo in
  let opt f = function Some x -> f x | None -> "-" in
  match e with
  | Obs_event.Run_start { engine; algorithm; messages } ->
    Printf.sprintf "start %s %s %d" engine algorithm messages
  | Run_end { cycle; outcome } -> Printf.sprintf "end@%d %s" cycle outcome
  | Channel_acquire { cycle; label; channel; waited } ->
    Printf.sprintf "acq@%d %s %s %d" cycle label (ch channel) waited
  | Channel_release { cycle; label; channel } ->
    Printf.sprintf "rel@%d %s %s" cycle label (ch channel)
  | Wait_add { cycle; label; channel; holder } ->
    Printf.sprintf "wadd@%d %s %s %s" cycle label (ch channel) (opt Fun.id holder)
  | Wait_drop { cycle; label; channel; waited } ->
    Printf.sprintf "wdrop@%d %s %s %d" cycle label (ch channel) waited
  | Flit { cycle; label; channel; kind } ->
    Printf.sprintf "flit@%d %s %s %s" cycle label (ch channel)
      (match kind with
      | Obs_event.Inject -> "inject"
      | Hop -> "hop"
      | Cascade -> "cascade"
      | Consume -> "consume")
  | Delivered { cycle; label; latency } -> Printf.sprintf "dlv@%d %s %d" cycle label latency
  | Abort { cycle; label; retries; reason } ->
    Printf.sprintf "abort@%d %s %d %s" cycle label retries reason
  | Retry { cycle; label; resume_at } -> Printf.sprintf "retry@%d %s %d" cycle label resume_at
  | Gave_up { cycle; label; fate } -> Printf.sprintf "gaveup@%d %s %s" cycle label fate
  | Fault { cycle; kind; channel; label; duration } ->
    Printf.sprintf "fault@%d %s %s %s %d" cycle (Obs_event.fault_kind_string kind)
      (opt ch channel) (opt Fun.id label) duration
  | Deadlock_detected { cycle; members; channels; victims } ->
    Printf.sprintf "knot@%d %s %s %s" cycle (String.concat "," members)
      (String.concat "," (List.map ch channels))
      (String.concat "," victims)
  | Victim_aborted { cycle; label; policy } ->
    Printf.sprintf "victim@%d %s %s" cycle label policy

(* The outcome comes from a run without a sink, which keeps the no-sink
   path pinned; the event digest from a second run with a recorder, which
   must reach the same outcome.  [hook] also sees every event of that
   second run. *)
let run_fingerprint topo ?config ?hook policy sched =
  let outcome = fp_outcome topo (run_policy ?config policy sched) in
  let recorder, events = Obs_event.recorder () in
  let sink =
    match hook with
    | None -> recorder
    | Some emit -> Obs_event.tee [ recorder; { Obs_event.emit } ]
  in
  let observed = fp_outcome topo (run_policy ?config ~obs:sink policy sched) in
  if observed <> outcome then
    Alcotest.failf "a sink moved the outcome:\n  without %s\n  with    %s" outcome observed;
  let ev = ref 5381 in
  List.iter (fun e -> digest_add ev (fp_event topo e ^ ";")) (events ());
  Printf.sprintf "%s ev=%08x" outcome !ev

(* ---- the seeded case matrix ---- *)

(* A seeded schedule over routable pairs.  [path_of] (oblivious only)
   supplies the fixed route so adversarial holds can name an on-path
   channel; adaptive families pass [None] and generate no holds. *)
let gen_sched rng topo ~routable ~path_of =
  let n = Topology.num_nodes topo in
  let nmsg = 4 + Rng.int rng 6 in
  let rec pick_pair tries =
    if tries > 200 then None
    else
      let s = Rng.int rng n and d = Rng.int rng n in
      if s <> d && routable s d then Some (s, d) else pick_pair (tries + 1)
  in
  List.filter_map
    (fun i ->
      match pick_pair 0 with
      | None -> None
      | Some (s, d) ->
        let length = 1 + Rng.int rng 5 in
        let at = Rng.int rng 8 in
        let holds =
          match path_of with
          | Some path_fn when Rng.int rng 3 = 0 -> (
            match path_fn s d with
            | [] -> []
            | path ->
              let c = List.nth path (Rng.int rng (List.length path)) in
              [ (c, 1 + Rng.int rng 3) ])
          | Some _ | None -> []
        in
        Some (Schedule.message ~length ~at ~holds (Printf.sprintf "m%d" i) s d))
    (List.init nmsg (fun i -> i))

let gen_config rng topo labels =
  let store_forward = Rng.int rng 5 = 0 in
  let buffer_capacity = if store_forward then 8 else 1 + Rng.int rng 2 in
  let arbitration =
    if Rng.bool rng then Engine.Fifo
    else begin
      let arr = Array.of_list labels in
      Rng.shuffle rng arr;
      let k = 1 + Rng.int rng (Array.length arr) in
      Engine.Priority (Array.to_list (Array.sub arr 0 k))
    end
  in
  let faults =
    if Rng.int rng 3 = 0 then
      Fault.random ~link_failures:1 ~stalls:1 ~max_stall:6
        ~drops:(match labels with l :: _ when Rng.bool rng -> [ l ] | _ -> [])
        ~horizon:40 rng topo
    else Fault.empty
  in
  let recovery =
    if Rng.bool rng then
      Some
        {
          Engine.trigger = Engine.Watchdog (16 + Rng.int rng 32);
          retry_limit = 1 + Rng.int rng 2;
          backoff = 2 + Rng.int rng 4;
          reroute = None;
        }
    else None
  in
  {
    Engine.default_config with
    buffer_capacity;
    arbitration;
    discipline = (if store_forward then Engine.Store_and_forward else Engine.Wormhole);
    faults;
    recovery;
  }

(* one pinned run: everything [run_fingerprint] needs *)
type run_spec = {
  topo : Topology.t;
  policy : policy;
  sched : Schedule.t;
  config : Engine.config option;
}

let fp_of ?hook r = run_fingerprint r.topo ?config:r.config ?hook r.policy r.sched

let spec_of ?config topo policy sched = { topo; policy; sched; config }

type case = { id : string; spec : unit -> run_spec }

let oblivious_family name base topo rt ~store_forward_ok ~seeds =
  List.init seeds (fun seed ->
      {
        id = Printf.sprintf "obl/%s/%d" name seed;
        spec =
          (fun () ->
            let rng = Rng.create (0x5EED + (7919 * base) + seed) in
            let routable s d =
              match Routing.path rt s d with Ok _ -> true | Error _ -> false
            in
            let path_of s d =
              match Routing.path rt s d with Ok p -> p | Error _ -> []
            in
            let sched = gen_sched rng topo ~routable ~path_of:(Some path_of) in
            let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
            let config = gen_config rng topo labels in
            let config =
              if store_forward_ok then config
              else { config with discipline = Engine.Wormhole }
            in
            spec_of ~config topo (Oblivious rt) sched);
      })

let adaptive_family name base topo ad ~routable ~seeds =
  List.init seeds (fun seed ->
      {
        id = Printf.sprintf "adp/%s/%d" name seed;
        spec =
          (fun () ->
            let rng = Rng.create (0xADA0 + (104729 * base) + seed) in
            let sched = gen_sched rng topo ~routable ~path_of:None in
            let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
            let config = gen_config rng topo labels in
            (* adaptive runs switch wormhole; SF is rejected only for
               oblivious, but keep the matrix uniform *)
            let config = { config with discipline = Engine.Wormhole } in
            spec_of ~config topo (Adaptive ad) sched);
      })

(* Discipline families (PR 10): the same seeded schedules re-run under
   virtual cut-through and store-and-forward.  These pin the new
   disciplines' decisions the same way the oblivious/adaptive families pin
   wormhole's; the wormhole pins above them must never move.  SAF runs
   raise the buffer capacity to the longest scheduled message (the engine
   rejects under-provisioned store-and-forward outright). *)
let discipline_family name base topo rt disc tag ~seeds =
  List.init seeds (fun seed ->
      {
        id = Printf.sprintf "%s/%s/%d" tag name seed;
        spec =
          (fun () ->
            let rng = Rng.create (0xD15C + (7919 * base) + seed) in
            let routable s d =
              match Routing.path rt s d with Ok _ -> true | Error _ -> false
            in
            let path_of s d =
              match Routing.path rt s d with Ok p -> p | Error _ -> []
            in
            let sched = gen_sched rng topo ~routable ~path_of:(Some path_of) in
            let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
            let config = gen_config rng topo labels in
            let buffer_capacity =
              match disc with
              | Engine.Store_and_forward ->
                List.fold_left
                  (fun acc (m : Schedule.message_spec) -> max acc m.ms_length)
                  config.Engine.buffer_capacity sched
              | _ -> config.Engine.buffer_capacity
            in
            let config = { config with Engine.discipline = disc; buffer_capacity } in
            spec_of ~config topo (Oblivious rt) sched);
      })

let mesh4 = Builders.mesh [ 4; 4 ]
let mesh4_rt = Dimension_order.mesh mesh4
let torus4 = Builders.torus [ 4; 4 ]
let torus4_rt = Dimension_order.torus torus4
let torus5 = Builders.torus [ 5; 5 ]
let torus5_rt = Dimension_order.torus torus5
let mesh2vc = Builders.mesh ~vcs:2 [ 4; 4 ]
let fig1 = Paper_nets.figure1 ()
let fig1_rt = Cd_algorithm.of_net fig1
let fig2 = Paper_nets.figure2 ()
let fig2_rt = Cd_algorithm.of_net fig2
let fig3c = Paper_nets.figure3 `C
let fig3c_rt = Cd_algorithm.of_net fig3c

(* the exact engine-hotpath / mesh8x8 bench workload: the perf target of
   the refactor must keep its verdict and its event stream *)
let mesh8 = Builders.mesh [ 8; 8 ]
let mesh8_rt = Dimension_order.mesh mesh8

let mesh8_schedule () =
  let rng = Rng.create 11 in
  let pattern = Traffic.uniform rng mesh8 in
  Traffic.bernoulli_schedule rng pattern ~coords:mesh8 ~rate:0.02 ~length:4 ~horizon:300

let tornado5 () = Traffic.permutation_schedule (Traffic.tornado torus5) ~coords:torus5 ~length:8

(* wormsim --topology mesh --dims 4x4 --routing adaptive --rate 0.3
   --length 6 --horizon 6 --seed 149: a local deadlock at cycle 56 whose
   blocked header n7/3 still has two options, so the witness lists a full
   option set and the claim pass resolves multi-option rows *)
let mesh4_fully = Adaptive.fully_adaptive_minimal mesh4

let mesh4_dense () =
  let rng = Rng.create 149 in
  let pattern = Traffic.uniform rng mesh4 in
  Traffic.bernoulli_schedule rng pattern ~coords:mesh4 ~rate:0.3 ~length:6 ~horizon:6

(* The 8x8 mesh past saturation: uniform traffic at 0.08 messages per
   node and cycle, 8-flit worms.  Most messages spend most of their run
   queued at their source behind a worm that owns their first channel, so
   these cases pin the kernel's handling of source waiters.  Horizon 100
   gives 490 messages, past the arena's pooled limit; horizon 40 gives 198,
   under it.  Each runs on the oblivious kernel and, lifted, on the
   adaptive one. *)
let mesh8_lifted = Adaptive.of_oblivious mesh8_rt

let mesh8_saturated ~horizon () =
  let rng = Rng.create 5 in
  let pattern = Traffic.uniform rng mesh8 in
  Traffic.bernoulli_schedule rng pattern ~coords:mesh8 ~rate:0.08 ~length:8 ~horizon

let sat_drops =
  [
    Fault.Message_drop { label = "n6/5"; at = 200 };
    Fault.Message_drop { label = "n56/4"; at = 150 };
  ]

let saturated_cases =
  let labels sched = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
  let variants =
    [
      ("sat", 100, fun _ -> Engine.default_config);
      ("sat-pooled", 40, fun _ -> Engine.default_config);
      ( "sat-priority",
        100,
        fun sched ->
          {
            Engine.default_config with
            arbitration =
              Engine.Priority (List.filteri (fun i _ -> i mod 3 = 0) (List.rev (labels sched)));
          } );
      ( "sat-watchdog",
        100,
        fun _ ->
          {
            Engine.default_config with
            recovery = Some { Engine.default_recovery with trigger = Engine.Watchdog 16 };
          } );
      (* both messages are queued at their source when the drop fires *)
      ( "sat-drop",
        100,
        fun _ ->
          {
            Engine.default_config with
            faults = Fault.make sat_drops;
          } );
    ]
  in
  List.concat_map
    (fun (name, horizon, config_of) ->
      let spec policy () =
        let sched = mesh8_saturated ~horizon () in
        spec_of ~config:(config_of sched) mesh8.Builders.topo policy sched
      in
      [
        { id = "obl/mesh8x8-" ^ name; spec = spec (Oblivious mesh8_rt) };
        { id = "adp/mesh8x8-" ^ name; spec = spec (Adaptive mesh8_lifted) };
      ])
    variants

(* The VC-less e-cube torus (a cyclic CDG) past saturation under recovery:
   uniform traffic at 0.10 messages per node and cycle, 16-flit worms,
   horizon 100 (166 messages).  Aborts keep moving attempt windows, so
   these cases pin the kernel's handling of sleeping sources and of the
   watchdog deadlines of parked waiters: online detection with a short
   backstop (victim and backstop aborts), and the watchdog under backoff
   1, where a first retry re-injects the very next cycle. *)
let torus4_lifted = Adaptive.of_oblivious torus4_rt

let torus4_saturated () =
  let rng = Rng.create 5 in
  let pattern = Traffic.uniform rng torus4 in
  Traffic.bernoulli_schedule rng pattern ~coords:torus4 ~rate:0.10 ~length:16 ~horizon:100

(* Five 40-flit worms queued at node 0 of a 4-node line, all bound for
   node 3, under a watchdog with backoff 1.  The drop fires at cycle 5
   while q2 waits parked behind q0, so its retry is due the next cycle
   and skips the calendar: the watchdog then counts from the stamp the
   drop left, the abort cycle, and the run's last cycles pin it. *)
let line4 = Builders.line 4
let line4_rt = Dimension_order.mesh line4

let line4_queued ~length () =
  List.init 5 (fun i -> Schedule.message ~length (Printf.sprintf "q%d" i) 0 3)

let recovery_cases =
  let torus name trigger backoff =
    let recovery = Some { Engine.default_recovery with trigger; backoff } in
    let config = { Engine.default_config with recovery } in
    ( "torus4x4-" ^ name,
      (fun policy () -> spec_of ~config torus4.Builders.topo policy (torus4_saturated ())),
      Oblivious torus4_rt,
      Adaptive torus4_lifted )
  in
  (* sat-drop's drops retried under the watchdog, plus one that fires while
     n52/9 sleeps before its window (cycle 99) and moves the window forward
     to cycle 13 *)
  let drop_retry =
    let config =
      {
        Engine.default_config with
        faults = Fault.make (Fault.Message_drop { label = "n52/9"; at = 5 } :: sat_drops);
        recovery = Some { Engine.default_recovery with trigger = Engine.Watchdog 16 };
      }
    in
    ( "mesh8x8-sat-drop-retry",
      (fun policy () ->
        spec_of ~config mesh8.Builders.topo policy (mesh8_saturated ~horizon:100 ())),
      Oblivious mesh8_rt,
      Adaptive mesh8_lifted )
  in
  let line4_drop =
    let config =
      {
        Engine.default_config with
        faults = Fault.make [ Fault.Message_drop { label = "q2"; at = 5 } ];
        recovery =
          Some
            { Engine.trigger = Engine.Watchdog 16; retry_limit = 1_000; backoff = 1;
              reroute = None };
      }
    in
    ( "line4-queued-drop-b1",
      (fun policy () -> spec_of ~config line4.Builders.topo policy (line4_queued ~length:40 ())),
      Oblivious line4_rt,
      Adaptive (Adaptive.of_oblivious line4_rt) )
  in
  List.concat_map
    (fun (name, spec, obl, adp) ->
      [ { id = "obl/" ^ name; spec = spec obl }; { id = "adp/" ^ name; spec = spec adp } ])
    [
      torus "sat-detect"
        (Engine.Detect { Obs_detect.default_config with backstop = 64 })
        Engine.default_recovery.Engine.backoff;
      torus "sat-watchdog-b1" (Engine.Watchdog 16) 1;
      drop_retry;
      line4_drop;
    ]

(* A backlog on a cyclic routing: three 3-flit worms queued at each node
   of a unidirectional 4-ring, each bound two hops ahead.  The first worms
   close a wait cycle at cycle 2 with the rest still waiting at their
   sources, so a run ends with waiters queued behind wedged worms. *)
let ring4 = Builders.ring ~unidirectional:true 4
let ring4_rt = Ring_routing.clockwise ring4
let ring4_lifted = Adaptive.of_oblivious ring4_rt

let ring4_backlog () =
  List.concat_map
    (fun src ->
      List.init 3 (fun i ->
          Schedule.message ~length:3 ~at:i (Printf.sprintf "r%d/%d" src i) src ((src + 2) mod 4)))
    [ 0; 1; 2; 3 ]

let backlog_cases =
  [
    {
      id = "obl/ring4-backlog-deadlock";
      spec = (fun () -> spec_of ring4.Builders.topo (Oblivious ring4_rt) (ring4_backlog ()));
    };
    {
      id = "obl/ring4-backlog-watchdog";
      spec =
        (fun () ->
          let config =
            { Engine.default_config with recovery = Some Engine.default_recovery }
          in
          spec_of ~config ring4.Builders.topo (Oblivious ring4_rt) (ring4_backlog ()));
    };
    {
      id = "adp/ring4-backlog-deadlock";
      spec = (fun () -> spec_of ring4.Builders.topo (Adaptive ring4_lifted) (ring4_backlog ()));
    };
  ]

let special_cases =
  [
    {
      id = "obl/mesh8x8-hotpath";
      spec =
        (fun () ->
          spec_of mesh8.Builders.topo (Oblivious mesh8_rt) (mesh8_schedule ()));
    };
    {
      id = "adp/mesh8x8-hotpath";
      spec =
        (fun () ->
          spec_of mesh8.Builders.topo
            (Adaptive (Adaptive.of_oblivious mesh8_rt))
            (mesh8_schedule ()));
    };
    {
      id = "obl/torus5-tornado-deadlock";
      spec =
        (fun () -> spec_of torus5.Builders.topo (Oblivious torus5_rt) (tornado5 ()));
    };
    {
      id = "obl/torus5-tornado-vct";
      spec =
        (fun () ->
          let config =
            { Engine.default_config with discipline = Engine.Virtual_cut_through }
          in
          spec_of ~config torus5.Builders.topo (Oblivious torus5_rt) (tornado5 ()));
    };
    {
      id = "obl/torus5-tornado-saf";
      spec =
        (fun () ->
          let config =
            {
              Engine.default_config with
              discipline = Engine.Store_and_forward;
              buffer_capacity = 8;
            }
          in
          spec_of ~config torus5.Builders.topo (Oblivious torus5_rt) (tornado5 ()));
    };
    {
      id = "obl/torus5-tornado-detect";
      spec =
        (fun () ->
          let config =
            {
              Engine.default_config with
              recovery =
                Some
                  {
                    Engine.default_recovery with
                    trigger = Engine.Detect Obs_detect.default_config;
                  };
            }
          in
          spec_of ~config torus5.Builders.topo (Oblivious torus5_rt) (tornado5 ()));
    };
    {
      id = "obl/torus5-tornado-watchdog";
      spec =
        (fun () ->
          let config =
            { Engine.default_config with recovery = Some Engine.default_recovery }
          in
          spec_of ~config torus5.Builders.topo (Oblivious torus5_rt) (tornado5 ()));
    };
    {
      id = "adp/mesh4x4-fully-deadlock";
      spec = (fun () -> spec_of mesh4.Builders.topo (Adaptive mesh4_fully) (mesh4_dense ()));
    };
  ]

(* Online detection where the stall horizon and the victim policy decide.
   A clockwise 6-ring (20 messages, bound 3) whose two planned stalls
   park worms behind stalled links: a detector that ignored the stalls
   would confirm knots that the stalls' end resolves.  A fully adaptive
   4x4 mesh (91 messages, bound 3) under the [Oldest] and the [Youngest]
   policy, where a link failure and a stall make blocked headers
   advertise a new first option: a member's victim key is the cycle its
   current wait edge appeared, not the cycle its claim started.  And the
   tornado knot under [Youngest] (its members all wait from the same
   cycle, so every policy picks the same victims there). *)
let ring6 = Builders.ring ~unidirectional:true 6
let ring6_rt = Ring_routing.clockwise ring6

let detect_cases =
  let detect ?(policy = Obs_detect.Minimal_victim) bound faults topo =
    let trigger = Engine.Detect { Obs_detect.default_config with bound; policy } in
    {
      Engine.default_config with
      faults = Result.get_ok (Fault.parse topo faults);
      recovery = Some { Engine.default_recovery with trigger };
    }
  in
  let uniform coords ~seed ~rate ~length ~horizon =
    let rng = Rng.create seed in
    let pattern = Traffic.uniform rng coords in
    Traffic.bernoulli_schedule rng pattern ~coords ~rate ~length ~horizon
  in
  let mesh4_fully_detect policy () =
    let topo = mesh4.Builders.topo in
    spec_of
      ~config:(detect ~policy 3 "fail:n(0,2)>n(0,3)@25, stall:n(3,1)>n(3,2)@26+8" topo)
      topo (Adaptive mesh4_fully)
      (uniform mesh4 ~seed:1137 ~rate:0.2 ~length:8 ~horizon:29)
  in
  let ring6_stalls policy () =
    spec_of
      ~config:(detect 3 "stall:n(0)>n(1)@4+7, stall:n(3)>n(4)@24+7" ring6.Builders.topo)
      ring6.Builders.topo policy
      (uniform ring6 ~seed:1328 ~rate:0.08 ~length:4 ~horizon:45)
  in
  [
    { id = "obl/ring6-detect-stalls"; spec = ring6_stalls (Oblivious ring6_rt) };
    {
      id = "adp/ring6-detect-stalls";
      spec = ring6_stalls (Adaptive (Adaptive.of_oblivious ring6_rt));
    };
    { id = "adp/mesh4x4-fully-detect-oldest"; spec = mesh4_fully_detect Obs_detect.Oldest };
    {
      id = "obl/torus5-tornado-detect-youngest";
      spec =
        (fun () ->
          spec_of
            ~config:(detect ~policy:Obs_detect.Youngest 16 "" torus5.Builders.topo)
            torus5.Builders.topo (Oblivious torus5_rt) (tornado5 ()));
    };
    {
      id = "adp/mesh4x4-fully-detect-youngest";
      spec = mesh4_fully_detect Obs_detect.Youngest;
    };
  ]

let cases =
  special_cases
  @ oblivious_family "figure1" 1 fig1.Paper_nets.topo fig1_rt ~store_forward_ok:true ~seeds:6
  @ oblivious_family "figure2" 2 fig2.Paper_nets.topo fig2_rt ~store_forward_ok:true ~seeds:6
  @ oblivious_family "figure3c" 3 fig3c.Paper_nets.topo fig3c_rt ~store_forward_ok:true
      ~seeds:6
  @ oblivious_family "mesh4x4" 4 mesh4.Builders.topo mesh4_rt ~store_forward_ok:true ~seeds:8
  @ oblivious_family "torus4x4" 5 torus4.Builders.topo torus4_rt ~store_forward_ok:true
      ~seeds:8
  @ adaptive_family "mesh4x4-minimal" 6 mesh4.Builders.topo mesh4_fully
      ~routable:(fun s d -> s <> d)
      ~seeds:6
  @ adaptive_family "mesh4x4-duato" 7 mesh2vc.Builders.topo (Adaptive.duato_mesh mesh2vc)
      ~routable:(fun s d -> s <> d)
      ~seeds:6
  @ adaptive_family "figure1-singleton" 8 fig1.Paper_nets.topo
      (Adaptive.of_oblivious fig1_rt)
      ~routable:(fun s d ->
        match Routing.path fig1_rt s d with Ok _ -> true | Error _ -> false)
      ~seeds:6
  @ discipline_family "figure2" 2 fig2.Paper_nets.topo fig2_rt
      Engine.Virtual_cut_through "vct" ~seeds:4
  @ discipline_family "figure2" 2 fig2.Paper_nets.topo fig2_rt
      Engine.Store_and_forward "saf" ~seeds:4
  @ discipline_family "mesh4x4" 4 mesh4.Builders.topo mesh4_rt
      Engine.Virtual_cut_through "vct" ~seeds:4
  @ discipline_family "mesh4x4" 4 mesh4.Builders.topo mesh4_rt
      Engine.Store_and_forward "saf" ~seeds:4
  @ discipline_family "torus4x4" 5 torus4.Builders.topo torus4_rt
      Engine.Virtual_cut_through "vct" ~seeds:4
  @ discipline_family "torus4x4" 5 torus4.Builders.topo torus4_rt
      Engine.Store_and_forward "saf" ~seeds:4
  @ saturated_cases @ backlog_cases @ recovery_cases @ detect_cases

(* ---- pins: load, compare, regenerate ---- *)

let pins_path = "golden/kernel-pins.txt"

let compute_pins () = List.map (fun c -> (c.id, fp_of (c.spec ()))) cases

let load_pins () =
  let ic = open_in pins_path in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ' ' with
       | Some i ->
         Hashtbl.replace tbl (String.sub line 0 i)
           (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> close_in ic);
  tbl

let () =
  match Sys.getenv_opt "WORMHOLE_KERNEL_PIN_REGEN" with
  | Some path when path <> "" && path <> "0" ->
    let oc = open_out path in
    List.iter (fun (id, fp) -> Printf.fprintf oc "%s %s\n" id fp) (compute_pins ());
    close_out oc;
    Printf.printf "kernel pins written to %s (%d cases)\n" path (List.length cases);
    exit 0
  | Some _ | None -> ()

let test_pins_match () =
  let pins = load_pins () in
  List.iter
    (fun c ->
      match Hashtbl.find_opt pins c.id with
      | None ->
        Alcotest.failf "case %s has no pin; regenerate test/golden/kernel-pins.txt" c.id
      | Some expected -> check Alcotest.string c.id expected (fp_of (c.spec ())))
    cases;
  (* and no stale pins for cases that no longer exist *)
  let ids = List.map (fun c -> c.id) cases in
  Hashtbl.iter
    (fun id _ ->
      if not (List.mem id ids) then
        Alcotest.failf "stale pin %s; regenerate test/golden/kernel-pins.txt" id)
    pins

(* the same equivalence as a sampled qcheck property: any case drawn from
   the matrix reproduces its pinned verdict (catches order-of-evaluation
   drift that a fixed iteration order might mask, and keeps the pins under
   the property-test umbrella that gets run with larger counts) *)
let prop_pins =
  let pins = lazy (load_pins ()) in
  QCheck.Test.make ~name:"sampled case matches pinned verdict" ~count:25
    QCheck.(int_bound (List.length cases - 1))
    (fun i ->
      let c = List.nth cases i in
      match Hashtbl.find_opt (Lazy.force pins) c.id with
      | None -> QCheck.Test.fail_reportf "case %s has no pin" c.id
      | Some expected ->
        let got = fp_of (c.spec ()) in
        if got <> expected then
          QCheck.Test.fail_reportf "case %s diverged from pin:\n  pin %s\n  got %s" c.id
            expected got
        else true)

(* ---- steady-cycle allocation bound ---- *)

(* Long worms down a 4-node line: thousands of cycles of request, award,
   hop, cascade and release, with a once-only setup.  The bound (in minor
   words, <1.5 words/cycle amortized) only passes when the steady cycle
   itself allocates nothing; the record-based kernel's per-cycle closures
   alone cost an order of magnitude more.  WORMHOLE_SANITIZE installs a
   process-wide sanitizer whose per-cycle sweep allocates by design, so the
   bound is not meaningful under it. *)
let sanitize_on =
  match Sys.getenv_opt "WORMHOLE_SANITIZE" with
  | Some v when v <> "0" -> true
  | Some _ | None -> false

let long_sched () =
  let a = 0 and d = 3 in
  [
    Schedule.message ~length:8000 "w1" a d;
    Schedule.message ~length:8000 "w2" a d;
  ]

(* five long worms queued at one source: behind the worm in flight the
   rest wait parked, and every release of the first channel wakes them *)
let queued_sched = line4_queued ~length:3200

(* The queued worms again, under a watchdog that fires while they wait
   parked, with backoff 1 and retries enough for all: the waiters park,
   time out and retry the next cycle over and over, and the run recovers
   at cycle 36,196. *)
let watchdog_b1 =
  let trigger = Engine.Watchdog 16 in
  {
    Engine.default_config with
    recovery = Some { Engine.trigger; retry_limit = 1_000; backoff = 1; reroute = None };
  }

(* Both schedules under online detection with the same backoff and a
   16-cycle backstop: the detector reads the kernel's own columns, so its
   cycles allocate nothing either. *)
let detect_b1 =
  let trigger = Engine.Detect { Obs_detect.default_config with backstop = 16 } in
  {
    Engine.default_config with
    recovery = Some { Engine.trigger; retry_limit = 1_000; backoff = 1; reroute = None };
  }

let alloc_per_run ?config policy sched =
  (* one warm-up run (fills any per-state memo tables), then measure *)
  ignore (run_policy ?config policy (sched ()));
  let before = Gc.minor_words () in
  let outcome = run_policy ?config policy (sched ()) in
  let delta = Gc.minor_words () -. before in
  (match (outcome, config) with
  | Engine.All_delivered _, None | Engine.Recovered _, Some _ -> ()
  | o, _ -> Alcotest.failf "unexpected outcome %s" (Engine.outcome_string o));
  delta

(* the schedules on either kernel; under recovery, retries after the
   first sleep in the calendar and wake from it *)
let check_steady_cycle kernel policy =
  if sanitize_on then ()
  else
    List.iter
      (fun (name, config, sched) ->
        let words = alloc_per_run ?config policy sched in
        if words > 25_000.0 then
          Alcotest.failf "%s steady cycle allocates (%s): %.0f minor words per ~16k-cycle run"
            kernel name words)
      [
        ("two worms", None, long_sched);
        ("five queued worms", None, queued_sched);
        ("five queued worms, watchdog backoff 1", Some watchdog_b1, queued_sched);
        ("two worms, detect backoff 1", Some detect_b1, long_sched);
        ("five queued worms, detect backoff 1", Some detect_b1, queued_sched);
      ]

let test_steady_cycle_allocation_oblivious () = check_steady_cycle "oblivious" (Oblivious line4_rt)

let test_steady_cycle_allocation_adaptive () =
  check_steady_cycle "adaptive" (Adaptive (Adaptive.of_oblivious line4_rt))

(* ---- kernel reuse: memo-hit runs equal fresh-kernel runs ----

   [Engine] compiles each routing once per domain and resets the
   compiled kernel at the entry of every run.  These tests run pinned
   cases back to back on their shared routings (so every run after the
   first hits the memo) and compare each with the same run on a physically
   fresh routing, which compiles a new kernel that no earlier run touched. *)

let fresh_policy = function
  | Oblivious rt ->
    Oblivious
      (Routing.create ~name:(Routing.name rt) (Routing.topology rt) (Routing.next rt))
  | Adaptive ad ->
    Adaptive
      (Adaptive.create ~name:(Adaptive.name ad) (Adaptive.topology ad) (Adaptive.options ad))

let fresh r = { r with policy = fresh_policy r.policy }

(* what is layered on a pinned case: nothing, the paper's bare model (no
   faults, no recovery: cyclic routings wedge, leaving held channels and
   wait entries behind), a failing link with recovery that reroutes around
   it, a process-wide discipline override, or the sanitizer *)
type variant = Plain | Bare | Reroute | Override of Engine.discipline | Sanitized

let variant_name = function
  | Plain -> "plain"
  | Bare -> "bare"
  | Reroute -> "reroute"
  | Override d -> "override-" ^ Engine.discipline_string d
  | Sanitized -> "sanitized"

let with_variant v r =
  match (v, r.policy, r.sched) with
  | Bare, _, _ ->
    let config = Option.value r.config ~default:Engine.default_config in
    { r with config = Some { config with faults = Fault.empty; recovery = None } }
  | Reroute, Oblivious rt, (m : Schedule.message_spec) :: _ -> (
    match Routing.path rt m.ms_src m.ms_dst with
    | Ok (c :: _) ->
      let config =
        {
          (Option.value r.config ~default:Engine.default_config) with
          faults = Fault.make [ Fault.Link_failure { channel = c; at = 2 } ];
          recovery =
            Some
              {
                Engine.trigger = Engine.Watchdog 16;
                retry_limit = 2;
                backoff = 2;
                reroute = Some (Routing.avoiding ~failed:[ c ] rt);
              };
        }
      in
      { r with config = Some config }
    | Ok [] | Error _ -> r)
  | (Plain | Reroute | Override _ | Sanitized), _, _ -> r

(* [f s] with a fresh collecting sanitizer [s] installed process-wide,
   then the sanitizer that was installed before (WORMHOLE_SANITIZE's
   fail-fast one, or none) *)
let sanitized f =
  let prev = Sanitizer.current () in
  let s = Sanitizer.create () in
  Sanitizer.install s;
  Fun.protect
    ~finally:(fun () ->
      match prev with Some p -> Sanitizer.install p | None -> Sanitizer.uninstall ())
    (fun () -> f s)

(* fingerprint [r] under variant [v]; the reroute config is built by the
   caller so the memo-hit run and its fresh reference share it.  The
   sanitizer is pure observation, so [~sanitize] adds its invariant sweep
   (E101-E106) without moving the fingerprint. *)
let fp_variant ?(sanitize = false) v r =
  let run () =
    if sanitize || v = Sanitized then
      sanitized (fun s ->
          let fp = fp_of r in
          if not (Sanitizer.ok s) then Alcotest.failf "sanitizer tripped on a reused kernel";
          fp)
    else fp_of r
  in
  match v with
  | Plain | Bare | Reroute | Sanitized -> run ()
  | Override d ->
    Engine.set_discipline_override (Some d);
    Fun.protect ~finally:(fun () -> Engine.set_discipline_override None) run

(* the pinned cases grouped by the routing they run on (physically), so a
   sequence drawn from one group keeps hitting one compiled kernel *)
let reuse_groups =
  lazy
    (let same a b =
       match (a, b) with
       | Oblivious x, Oblivious y -> x == y
       | Adaptive x, Adaptive y -> x == y
       | _ -> false
     in
     let groups =
       List.fold_left
         (fun groups c ->
           let r = c.spec () in
           match List.partition (fun (p, _) -> same p r.policy) groups with
           | [ (p, members) ], rest -> (p, members @ [ (c.id, r) ]) :: rest
           | _, rest -> (r.policy, [ (c.id, r) ]) :: rest)
         [] cases
     in
     Array.of_list (List.rev_map (fun (_, members) -> Array.of_list members) groups))

let variants =
  [| Plain; Bare; Reroute; Bare; Override Engine.Virtual_cut_through; Plain;
     Override Engine.Store_and_forward; Sanitized |]

let prop_reuse =
  QCheck.Test.make ~name:"memo-hit run sequences match fresh-kernel runs" ~count:40
    QCheck.(pair small_nat (list_of_size (Gen.int_range 3 10) (pair small_nat small_nat)))
    (fun (g, picks) ->
      let groups = Lazy.force reuse_groups in
      let group = groups.(g mod Array.length groups) in
      let runs =
        List.map
          (fun (i, v) ->
            let id, r = group.(i mod Array.length group) in
            let v = variants.(v mod Array.length variants) in
            (id ^ "/" ^ variant_name v, v, with_variant v r))
          picks
      in
      (* references first: each on its own fresh routing *)
      let expected = List.map (fun (_, v, r) -> fp_variant v (fresh r)) runs in
      List.for_all2
        (fun (id, v, r) want ->
          let got = fp_variant v r in
          if got <> want then
            QCheck.Test.fail_reportf "%s diverged after kernel reuse:\n  fresh %s\n  reused %s"
              id want got
          else true)
        runs expected)

(* the deterministic sweep of the same check: every group's members back
   to back under each variant, then every run that wedged followed by
   each member of its group (a deadlock leaves the most state behind:
   held channels, wait entries, parked flits).  Every reused run is also
   sanitized. *)
let test_reuse_groups () =
  let is_deadlock fp = String.length fp >= 9 && String.sub fp 0 9 = "deadlock@" in
  Array.iter
    (fun group ->
      let plain = Hashtbl.create 16 and wedges = ref [] in
      Array.iter
        (fun v ->
          let runs = Array.map (fun (id, r) -> (id, with_variant v r)) group in
          let expected = Array.map (fun (_, r) -> fp_variant v (fresh r)) runs in
          Array.iteri
            (fun i (id, r) ->
              if v = Plain then Hashtbl.replace plain id expected.(i);
              if is_deadlock expected.(i) && not (List.mem_assoc id !wedges) then
                wedges := (id, (v, r)) :: !wedges;
              check Alcotest.string (id ^ "/" ^ variant_name v) expected.(i)
                (fp_variant ~sanitize:true v r))
            runs)
        variants;
      List.iter
        (fun (wid, (v, w)) ->
          Array.iter
            (fun (id, r) ->
              ignore (fp_variant v w);
              check Alcotest.string
                (Printf.sprintf "%s after %s/%s" id wid (variant_name v))
                (Hashtbl.find plain id)
                (fp_variant ~sanitize:true Plain r))
            group)
        (List.rev !wedges))
    (Lazy.force reuse_groups)

let case_spec id = (List.find (fun c -> c.id = id) cases).spec ()

(* a sink that calls the engine on the same routing: the inner run finds
   the memo's kernel busy and must run on a private one, leaving the outer
   run's state alone *)
let test_reentrant_sink () =
  let outer = case_spec "obl/figure2/1" and inner = case_spec "obl/figure2/2" in
  let want_outer = fp_of (fresh outer) and want_inner = fp_of (fresh inner) in
  let inner_fps = ref [] in
  let hook = function
    | Obs_event.Run_start _ -> inner_fps := fp_of inner :: !inner_fps
    | _ -> ()
  in
  check Alcotest.string "outer run" want_outer (fp_of ~hook outer);
  check Alcotest.(list string) "inner run" [ want_inner ] !inner_fps;
  check Alcotest.string "next run" want_inner (fp_of inner)

(* a sink that raises mid-run: the next run on the same routing resets the
   kernel at entry and still hits the memo (the busy flag was released) *)
let test_raising_sink () =
  let long = case_spec "obl/torus5-tornado-watchdog"
  and short = case_spec "obl/torus5-tornado-deadlock" in
  let want_long = fp_of (fresh long) and want_short = fp_of (fresh short) in
  let emit e =
    match Obs_event.cycle_of e with Some t when t >= 100 -> raise Exit | Some _ | None -> ()
  in
  let raised =
    match run_policy ?config:long.config ~obs:{ Obs_event.emit } long.policy long.sched with
    | _ -> false
    | exception Exit -> true
  in
  check Alcotest.bool "sink raised mid-run" true raised;
  check Alcotest.string "clean run after the raise" want_short (fp_of short);
  check Alcotest.string "the interrupted run, clean" want_long (fp_of long);
  if not sanitize_on then begin
    let before = Gc.minor_words () in
    ignore (run_policy short.policy short.sched);
    let words = Gc.minor_words () -. before in
    (* a stuck busy flag would compile a private kernel for every run *)
    if words > 2_000.0 then
      Alcotest.failf "run after a raising sink allocates %.0f minor words: memo missed" words
  end

(* ---- per-run allocation of short runs ---- *)

(* The benchmark probes' replay list: the Figure-1 and Figure-3(c) intent
   templates, one injection offset each; every length combination x
   injection order, the j-th message of the order injected at cycle j. *)
let replay_list () =
  List.concat_map
    (fun net ->
      let rt = Cd_algorithm.of_net net in
      let tpls =
        Array.of_list
          (List.map (Explorer.intent_template ~offsets:[ 0 ] net) net.Paper_nets.intents)
      in
      let n = Array.length tpls in
      let rec combos i =
        if i = n then [ [] ]
        else
          List.concat_map
            (fun len -> List.map (fun tl -> len :: tl) (combos (i + 1)))
            tpls.(i).Explorer.t_lengths
      in
      let orders = ref [] in
      Combinat.iter_permutations (fun p -> orders := Array.copy p :: !orders) (Array.init n Fun.id);
      List.concat_map
        (fun order ->
          let at = Array.make n 0 in
          Array.iteri (fun j mi -> at.(mi) <- j) order;
          List.map
            (fun lens ->
              ( rt,
                List.mapi
                  (fun mi length ->
                    let t = tpls.(mi) in
                    Schedule.message ~length ~at:at.(mi) t.Explorer.t_label t.t_src t.t_dst)
                  lens ))
            (combos 0))
        (List.rev !orders))
    [ fig1; fig3c ]

(* Half the 1,736 minor words a short run cost when every run re-walked
   its routes and rebuilt its arrays: only the compiled kernel's reuse
   (path rows, arena, channel columns) keeps a warmed run under it. *)
let short_run_word_budget = 868.0

let test_short_run_allocation () =
  let replay = replay_list () in
  let n = List.length replay in
  let config = { Engine.default_config with max_cycles = 10_000 } in
  let replay_all () =
    List.iter (fun (rt, s) -> ignore (Engine.run ~config rt s)) replay
  in
  let runs0 = Engine.run_count () in
  replay_all ();
  let before = Gc.minor_words () in
  replay_all ();
  let per_run = (Gc.minor_words () -. before) /. float_of_int n in
  (* memo-hit runs still count as runs *)
  check Alcotest.int "run_count counts every run" (2 * n) (Engine.run_count () - runs0);
  if (not sanitize_on) && per_run > short_run_word_budget then
    Alcotest.failf "warmed short run allocates %.0f minor words (budget %.0f)" per_run
      short_run_word_budget

let () =
  Alcotest.run "kernel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all pinned verdicts reproduced" `Quick test_pins_match;
          QCheck_alcotest.to_alcotest prop_pins;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "oblivious steady cycle allocation bound" `Quick
            test_steady_cycle_allocation_oblivious;
          Alcotest.test_case "adaptive steady cycle allocation bound" `Quick
            test_steady_cycle_allocation_adaptive;
          Alcotest.test_case "warmed short-run allocation budget" `Quick
            test_short_run_allocation;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "every case group back to back" `Quick test_reuse_groups;
          QCheck_alcotest.to_alcotest prop_reuse;
          Alcotest.test_case "re-entrant run from a sink" `Quick test_reentrant_sink;
          Alcotest.test_case "clean run after a raising sink" `Quick test_raising_sink;
        ] );
    ]
