(* Property-based tests (qcheck, registered as alcotest cases).

   These check the library's core invariants over randomized inputs:
   data-structure laws, routing/CDG soundness, simulator conservation and
   determinism, and the Dally-Seitz theorem itself (acyclic CDG implies no
   deadlock under random traffic). *)

let count n = n (* default iteration count per property *)

(* ---- data structures ---- *)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a set model" ~count:(count 200)
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let b = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove model i
          end)
        ops;
      let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
      Bitset.to_list b = expected && Bitset.cardinal b = List.length expected)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:(count 200)
    QCheck.(list int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

let prop_permutations_are_permutations =
  QCheck.Test.make ~name:"iter_permutations yields permutations" ~count:(count 50)
    QCheck.(int_bound 4)
    (fun n ->
      let base = List.init n Fun.id in
      let ok = ref true in
      Combinat.iter_permutations
        (fun a -> if List.sort compare (Array.to_list a) <> base then ok := false)
        (Array.of_list base);
      !ok)

let prop_stats_mean =
  QCheck.Test.make ~name:"stats mean matches direct sum" ~count:(count 200)
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let direct = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. direct) < 1e-6)

(* ---- topology and routing ---- *)

let mesh_dims_gen =
  QCheck.make
    QCheck.Gen.(
      let* w = 2 -- 4 in
      let* h = 2 -- 4 in
      return [ w; h ])

let prop_mesh_xy_delivers_minimally =
  QCheck.Test.make ~name:"xy is minimal on random meshes" ~count:(count 20) mesh_dims_gen
    (fun dims ->
      let coords = Builders.mesh dims in
      let rt = Dimension_order.mesh coords in
      Routing.validate rt = Ok () && Properties.is_holds (Properties.minimal rt))

let prop_mesh_cdg_acyclic =
  QCheck.Test.make ~name:"xy CDG acyclic with valid numbering" ~count:(count 20) mesh_dims_gen
    (fun dims ->
      let rt = Dimension_order.mesh (Builders.mesh dims) in
      let cdg = Cdg.build rt in
      match Cdg.numbering cdg with
      | None -> false
      | Some f ->
        let ok = ref true in
        Topology.iter_channels
          (fun c -> List.iter (fun c' -> if f.(c) >= f.(c') then ok := false) (Cdg.succ cdg c))
          (Routing.topology rt);
        !ok)

let prop_cdg_soundness =
  QCheck.Test.make ~name:"every path step is a CDG edge (torus)" ~count:(count 10)
    QCheck.(pair (2 -- 4) (2 -- 4))
    (fun (a, b) ->
      let rt = Dimension_order.torus (Builders.torus [ a + 1; b + 1 ]) in
      let cdg = Cdg.build rt in
      let topo = Routing.topology rt in
      let n = Topology.num_nodes topo in
      let ok = ref true in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d then begin
            let rec chk = function
              | c1 :: (c2 :: _ as rest) ->
                if not (List.mem c2 (Cdg.succ cdg c1)) then ok := false;
                chk rest
              | _ -> ()
            in
            chk (Routing.path_exn rt s d)
          end
        done
      done;
      !ok)

let prop_paper_net_intents_valid =
  (* random small access-ring specs build into consistent networks *)
  let spec_gen =
    QCheck.make
      QCheck.Gen.(
        let* ring = 6 -- 12 in
        let* a1 = 1 -- 4 in
        let* a2 = 1 -- 4 in
        let* d1 = 2 -- (ring - 1) in
        let* d2 = 2 -- (ring - 1) in
        let* e2 = 1 -- (ring - 1) in
        return
          {
            Paper_nets.s_name = "rand";
            s_ring_len = ring;
            s_msgs =
              [
                { m_label = "A"; m_source = Paper_nets.Shared; m_access = a1; m_entry = 0; m_dist = d1 };
                { m_label = "B"; m_source = Paper_nets.Shared; m_access = a2; m_entry = e2; m_dist = d2 };
              ];
          })
  in
  QCheck.Test.make ~name:"random access-ring nets are consistent" ~count:(count 50) spec_gen
    (fun spec ->
      (* two messages from the shared source with the same destination node
         would make the oblivious table ambiguous; such specs are invalid *)
      (match spec.Paper_nets.s_msgs with
      | [ m1; m2 ] ->
        QCheck.assume
          ((m1.Paper_nets.m_entry + m1.m_dist) mod spec.s_ring_len
          <> (m2.Paper_nets.m_entry + m2.m_dist) mod spec.s_ring_len)
      | _ -> ());
      let net = Paper_nets.build spec in
      let rt = Cd_algorithm.of_net net in
      Routing.validate rt = Ok ()
      && Topology.strongly_connected net.Paper_nets.topo
      && List.for_all2
           (fun (m : Paper_nets.msg_spec) (i : Paper_nets.intent) ->
             Paper_nets.access_channel_count net i = m.m_access
             && List.length (Paper_nets.in_cycle_channels net i) = m.m_dist
             && Routing.path_exn rt i.i_src i.i_dst = i.i_path)
           spec.Paper_nets.s_msgs net.Paper_nets.intents)

(* ---- simulator ---- *)

let schedule_gen coords =
  let n = Topology.num_nodes coords.Builders.topo in
  QCheck.make
    QCheck.Gen.(
      let msg i =
        let* s = 0 -- (n - 1) in
        let* d = 0 -- (n - 1) in
        let* len = 1 -- 6 in
        let* at = 0 -- 10 in
        return (Schedule.message ~length:len ~at (Printf.sprintf "m%d" i) s (if d = s then (d + 1) mod n else d))
      in
      let* k = 1 -- 6 in
      let rec build i acc = if i = k then return (List.rev acc) else
          let* m = msg i in
          build (i + 1) (m :: acc)
      in
      build 0 [])

let mesh3 = Builders.mesh [ 3; 3 ]
let mesh3_rt = Dimension_order.mesh mesh3

let prop_acyclic_never_deadlocks =
  (* Dally-Seitz: random traffic on an acyclic-CDG algorithm always delivers *)
  QCheck.Test.make ~name:"acyclic CDG => no deadlock (random schedules)" ~count:(count 100)
    (schedule_gen mesh3)
    (fun sched ->
      match Engine.run mesh3_rt sched with
      | Engine.All_delivered { messages; _ } ->
        List.for_all
          (fun (r : Engine.message_result) ->
            match (r.r_injected_at, r.r_delivered_at) with
            | Some i, Some d -> d >= i
            | _ -> false)
          messages
      | Engine.Deadlock _ | Engine.Cutoff _ | Engine.Recovered _ -> false)

let prop_sim_deterministic =
  QCheck.Test.make ~name:"simulation replays identically" ~count:(count 50)
    (schedule_gen mesh3)
    (fun sched -> Engine.run mesh3_rt sched = Engine.run mesh3_rt sched)

let ring5 = Builders.ring ~unidirectional:true 5
let ring5_rt = Ring_routing.clockwise ring5

let prop_ring_outcomes_wellformed =
  (* on a cyclic substrate, outcomes are delivery or a closed deadlock *)
  QCheck.Test.make ~name:"ring outcomes are delivery or closed deadlock" ~count:(count 100)
    (schedule_gen ring5)
    (fun sched ->
      match Engine.run ring5_rt sched with
      | Engine.All_delivered _ -> true
      | Engine.Cutoff _ | Engine.Recovered _ -> false
      | Engine.Deadlock d ->
        d.Engine.d_wait_cycle <> []
        && List.for_all
             (fun (b : Engine.blocked_info) -> b.Engine.b_holder <> None || b.b_wants <> [])
             d.Engine.d_blocked)

let prop_buffer_capacity_preserves_delivery =
  QCheck.Test.make ~name:"bigger buffers never break delivery on acyclic nets"
    ~count:(count 50) (schedule_gen mesh3)
    (fun sched ->
      let run cap =
        let config = { Engine.default_config with buffer_capacity = cap } in
        match Engine.run ~config mesh3_rt sched with
        | Engine.All_delivered { finished_at; _ } -> Some finished_at
        | _ -> None
      in
      match (run 1, run 3) with
      | Some t1, Some t3 -> t3 <= t1 (* more buffering can only help or tie *)
      | _ -> false)

(* ---- switching disciplines ---- *)

(* Cross-discipline containment on an acyclic-CDG net: wormhole delivers
   everything there (Dally-Seitz), and virtual cut-through and
   store-and-forward only ever hold {e more} buffering per hop, never
   less, so each must deliver (at least) every message wormhole delivers.
   Store-and-forward runs provision whole-packet buffers, which the
   engine requires. *)
let prop_disciplines_deliver_superset =
  QCheck.Test.make ~name:"VCT/SAF deliver a superset of wormhole (acyclic CDG)"
    ~count:(count 60) (schedule_gen mesh3)
    (fun sched ->
      let max_len =
        List.fold_left (fun acc (m : Schedule.message_spec) -> max acc m.ms_length) 1 sched
      in
      let run discipline buffer_capacity =
        let config = { Engine.default_config with discipline; buffer_capacity } in
        Engine.run ~config mesh3_rt sched
      in
      let delivered = function
        | Engine.All_delivered { messages; _ } ->
          List.filter_map
            (fun (r : Engine.message_result) ->
              Option.map (fun _ -> r.r_label) r.r_delivered_at)
            messages
        | _ -> []
      in
      let wormhole = run Engine.Wormhole 1 in
      let vct = delivered (run Engine.Virtual_cut_through 1) in
      let saf = delivered (run Engine.Store_and_forward max_len) in
      match wormhole with
      | Engine.All_delivered _ ->
        List.for_all
          (fun l -> List.mem l vct && List.mem l saf)
          (delivered wormhole)
      | _ -> false)

(* The refactor contract from the other side: asking for wormhole
   explicitly is the pre-parameterization engine bit-for-bit, witness
   payloads and deadlock class included (cyclic ring, so deadlock
   outcomes are exercised too). *)
let prop_wormhole_discipline_identity =
  QCheck.Test.make ~name:"explicit wormhole discipline = default engine (bit-for-bit)"
    ~count:(count 60) (schedule_gen ring5)
    (fun sched ->
      let config = { Engine.default_config with discipline = Engine.Wormhole } in
      Engine.run ~config ring5_rt sched = Engine.run ring5_rt sched)

(* ---- fault injection and recovery ---- *)

let fault_params_gen =
  QCheck.make
    QCheck.Gen.(
      let* seed = 0 -- 100_000 in
      let* failures = 0 -- 2 in
      let* stalls = 0 -- 3 in
      let* drop = bool in
      return (seed, failures, stalls, drop))
    ~print:(fun (seed, failures, stalls, drop) ->
      Printf.sprintf "seed=%d failures=%d stalls=%d drop=%b" seed failures stalls drop)

let retry_limit = 3

let recovery_config faults =
  {
    Engine.default_config with
    faults;
    recovery = Some { Engine.default_recovery with trigger = Engine.Watchdog 16; retry_limit; backoff = 4 };
  }

let random_faults coords sched (seed, failures, stalls, drop) =
  let rng = Rng.create seed in
  let drops =
    if drop then
      match sched with [] -> [] | (m : Schedule.message_spec) :: _ -> [ m.ms_label ]
    else []
  in
  Fault.random ~link_failures:failures ~stalls ~max_stall:12 ~drops ~horizon:60 rng
    coords.Builders.topo

(* the satellite property: recovery with a retry cap can never hang -- every
   run ends delivered, cut off, or as a bounded-retries recovery report *)
let prop_recovery_terminates coords rt name =
  QCheck.Test.make ~name ~count:(count 60)
    QCheck.(pair (schedule_gen coords) fault_params_gen)
    (fun (sched, params) ->
      let config = recovery_config (random_faults coords sched params) in
      match Engine.run ~config rt sched with
      | Engine.All_delivered _ | Engine.Cutoff _ -> true
      | Engine.Deadlock _ -> false (* recovery must preempt any permanent block *)
      | Engine.Recovered { stats; _ } ->
        List.for_all
          (fun (s : Engine.retry_stat) ->
            s.Engine.t_retries <= retry_limit + 1
            && (s.t_fate <> Engine.Gave_up || s.t_retries = retry_limit + 1))
          stats)

let prop_recovery_terminates_mesh =
  prop_recovery_terminates mesh3 mesh3_rt "recovery+cap terminates (mesh, random faults)"

let prop_recovery_terminates_ring =
  prop_recovery_terminates ring5 ring5_rt "recovery+cap terminates (ring, random faults)"

let prop_faulted_runs_deterministic =
  QCheck.Test.make ~name:"faulted runs replay identically" ~count:(count 40)
    QCheck.(pair (schedule_gen ring5) fault_params_gen)
    (fun (sched, params) ->
      let config = recovery_config (random_faults ring5 sched params) in
      Engine.run ~config ring5_rt sched = Engine.run ~config ring5_rt sched)

(* ---- differential: singleton-adaptive vs oblivious ---- *)

(* The adaptive engine run with [Adaptive.of_oblivious rt] (every header has
   exactly one option) must reproduce the oblivious engine exactly.  This is
   the permanent regression gate for the shared switching kernel: the two
   entry points are thin shims over one core, and this property pins the
   singleton case across random schedules, arbitrations, buffer capacities
   and fault plans.

   The generators stay inside the semantic domain the two engines share by
   contract: wormhole switching, no adversarial holds, fault plans made of
   message drops only, recovery without a reroute.  Outside it the engines
   differ by design -- adaptive headers steer around down channels instead
   of waiting on them, and ignore per-channel holds -- so link failures and
   stalls are exercised by their own tests, not this equivalence. *)

let arbitration_gen labels =
  QCheck.Gen.(
    let* use_priority = bool in
    if not use_priority then return Engine.Fifo
    else
      let* order = shuffle_l labels in
      let* keep = 0 -- List.length order in
      return (Engine.Priority (List.filteri (fun i _ -> i < keep) order)))

let drops_gen labels =
  QCheck.Gen.(
    let* mask = flatten_l (List.map (fun l -> map (fun b -> (b, l)) bool) labels) in
    let drop_list = List.filter_map (fun (b, l) -> if b then Some l else None) mask in
    let* ats = flatten_l (List.map (fun l -> map (fun t -> (l, t)) (0 -- 40)) drop_list) in
    return ats)

let recovery_gen =
  QCheck.Gen.(
    let* on = bool in
    if not on then return None
    else
      let* watchdog = 8 -- 32 in
      let* retry_limit = 0 -- 3 in
      let* backoff = 1 -- 8 in
      return
        (Some
           { Engine.default_recovery with trigger = Engine.Watchdog watchdog; retry_limit;
             backoff }))

let differential_case_gen coords =
  let sched_gen = schedule_gen coords in
  QCheck.make
    ~print:(fun (sched, arb, cap, drops, recovery) ->
      Printf.sprintf "sched=[%s] arb=%s cap=%d drops=[%s] recovery=%s"
        (String.concat "; "
           (List.map
              (fun (m : Schedule.message_spec) ->
                Printf.sprintf "%s:%d->%d len=%d at=%d" m.ms_label m.ms_src m.ms_dst
                  m.ms_length m.ms_inject_at)
              sched))
        (match arb with
        | Engine.Fifo -> "fifo"
        | Engine.Priority o -> "priority:" ^ String.concat ">" o)
        cap
        (String.concat ", "
           (List.map (fun (l, t) -> Printf.sprintf "%s@%d" l t) drops))
        (match recovery with
        | None -> "off"
        | Some r ->
          Printf.sprintf "%s retries=%d backoff=%d"
            (match r.Engine.trigger with
            | Engine.Watchdog w -> Printf.sprintf "watchdog=%d" w
            | Engine.Detect c ->
              Printf.sprintf "detect(bound=%d,backstop=%d)" c.Obs_detect.bound
                c.Obs_detect.backstop)
            r.Engine.retry_limit r.Engine.backoff))
    QCheck.Gen.(
      let* sched = QCheck.gen sched_gen in
      let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) sched in
      let* arb = arbitration_gen labels in
      let* cap = 1 -- 3 in
      let* drops = drops_gen labels in
      let* recovery = recovery_gen in
      return (sched, arb, cap, drops, recovery))

(* Since the kernel unification the two entry points share one outcome
   type, so the equivalence check is plain structural equality -- witness
   payloads (blocked set, wait cycle, occupancy) included. *)
let prop_singleton_adaptive_matches_oblivious coords rt name =
  let ad = Adaptive.of_oblivious rt in
  QCheck.Test.make ~name ~count:(count 80) (differential_case_gen coords)
    (fun (sched, arbitration, buffer_capacity, drops, recovery) ->
      let faults =
        Fault.make (List.map (fun (label, at) -> Fault.Message_drop { label; at }) drops)
      in
      let config =
        { Engine.default_config with arbitration; buffer_capacity; faults; recovery }
      in
      let oblivious = Engine.run ~config rt sched in
      let adaptive = Engine.run_adaptive ~config ad sched in
      if oblivious <> adaptive then
        QCheck.Test.fail_reportf "engines diverge: oblivious %s, adaptive %s"
          (Engine.outcome_string oblivious)
          (Engine.outcome_string adaptive)
      else true)

let prop_differential_mesh =
  prop_singleton_adaptive_matches_oblivious mesh3 mesh3_rt
    "adaptive(of_oblivious) = oblivious (mesh, drops+recovery)"

let prop_differential_ring =
  prop_singleton_adaptive_matches_oblivious ring5 ring5_rt
    "adaptive(of_oblivious) = oblivious (ring, deadlock witnesses)"

(* ---- random spanning-tree routing on random digraphs ---- *)

(* Build a random strongly-connected topology (a ring plus random chords)
   and an oblivious routing algorithm from per-destination in-trees (BFS
   trees toward each destination).  This exercises Topology/Routing/Cdg on
   structures far from the regular grids. *)
let random_net_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = 4 -- 8 in
      let* chords = 0 -- 6 in
      let* seed = 0 -- 10_000 in
      return (n, chords, seed))

let build_random_net (n, chords, seed) =
  let rng = Rng.create seed in
  let topo = Topology.create () in
  for i = 0 to n - 1 do
    ignore (Topology.add_node topo (Printf.sprintf "v%d" i))
  done;
  for i = 0 to n - 1 do
    ignore (Topology.add_channel topo i ((i + 1) mod n))
  done;
  for _ = 1 to chords do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b && Topology.find_channel topo a b = None then
      ignore (Topology.add_channel topo a b)
  done;
  let rt =
    Routing.create ~name:"bfs-tree" topo (fun input dest ->
        let here = Routing.current_node topo input in
        if here = dest then None
        else
          (* next hop along a BFS shortest path toward dest (deterministic:
             first channel in adjacency order on a shortest path) *)
          let dist = Topology.distance_matrix topo in
          Topology.out_channels topo here
          |> List.find_opt (fun c -> dist.(Topology.dst topo c).(dest) = dist.(here).(dest) - 1))
  in
  (topo, rt)

let prop_random_net_routing_valid =
  QCheck.Test.make ~name:"BFS-tree routing delivers on random digraphs" ~count:(count 40)
    random_net_gen
    (fun params ->
      let _, rt = build_random_net params in
      Routing.validate rt = Ok ())

let prop_random_net_cdg_sound =
  QCheck.Test.make ~name:"CDG soundness on random digraphs" ~count:(count 25) random_net_gen
    (fun params ->
      let topo, rt = build_random_net params in
      let cdg = Cdg.build rt in
      let n = Topology.num_nodes topo in
      let ok = ref true in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d then begin
            let rec chk = function
              | c1 :: (c2 :: _ as rest) ->
                if not (List.mem c2 (Cdg.succ cdg c1)) then ok := false;
                chk rest
              | _ -> ()
            in
            chk (Routing.path_exn rt s d)
          end
        done
      done;
      !ok)

let prop_random_net_acyclic_implies_safe =
  (* Dally-Seitz on random structures: when the CDG happens to be acyclic,
     random traffic never deadlocks; when the model checker says a message
     population deadlocks, the CDG must be cyclic (contrapositive). *)
  QCheck.Test.make ~name:"acyclic CDG => random traffic delivers (random digraphs)"
    ~count:(count 25) random_net_gen
    (fun ((n, _, seed) as params) ->
      let _, rt = build_random_net params in
      let cdg = Cdg.build rt in
      let rng = Rng.create (seed + 17) in
      let sched =
        List.init 5 (fun i ->
            let s = Rng.int rng n in
            let d = (s + 1 + Rng.int rng (n - 1)) mod n in
            Schedule.message ~length:(1 + Rng.int rng 4) ~at:(Rng.int rng 5)
              (Printf.sprintf "m%d" i) s d)
      in
      match Engine.run rt sched with
      | Engine.All_delivered _ -> true
      | Engine.Cutoff _ | Engine.Recovered _ -> false
      | Engine.Deadlock _ -> not (Cdg.is_acyclic cdg))

(* ---- synthesis existence checker on the random digraphs ---- *)

let prop_synth_differential =
  (* Both sides of the existence verdict, backed the hard way.  "Exists"
     must ship a routing that certifies (Verify: Deadlock_free, zero
     E-severity diagnostics from either pipeline).  "Impossible" must ship
     a witness that machine-checks, and the bounded greedy routing family
     may contain no acyclic-CDG member -- such a member would itself be a
     deadlock-free routing, contradicting the verdict. *)
  QCheck.Test.make ~name:"synthesis verdict matches certificate / family sweep"
    ~count:(count 25) random_net_gen
    (fun params ->
      let topo, _ = build_random_net params in
      match Synth.synthesize topo with
      | Ok (rt, plan) ->
        let report = Verify.analyze ~quick:true rt in
        let certified =
          match report.Verify.conclusion with
          | Verify.Deadlock_free _ -> true
          | _ -> false
        in
        certified
        && Diagnostic.errors (Verify.diagnostics report) = []
        && Diagnostic.errors (Synth.diagnostics topo (Ok (rt, plan))) = []
      | Error w ->
        Synth.check_witness topo w
        && List.for_all
             (fun rt -> not (Cdg.is_acyclic (Cdg.build rt)))
             (Synth.greedy_family topo))

(* ---- three-sharer ground truth vs Theorem-5 checker ---- *)

let three_sharer_gen =
  QCheck.make
    QCheck.Gen.(
      let* perm = oneofl [ (2, 3, 4); (2, 4, 3); (3, 2, 4); (3, 4, 2); (4, 2, 3); (4, 3, 2) ] in
      let* g1 = 2 -- 4 in
      let* g2 = 2 -- 4 in
      let* g3 = 2 -- 4 in
      let* ov = 1 -- 2 in
      return (perm, (g1, g2, g3), ov))

let prop_theorem5_matches_search =
  QCheck.Test.make ~name:"theorem-5 checker agrees with exhaustive search"
    ~count:(count 12) three_sharer_gen
    (fun ((a1, a2, a3), (g1, g2, g3), ov) ->
      let spec =
        {
          Paper_nets.s_name = "rand3";
          s_ring_len = g1 + g2 + g3;
          s_msgs =
            [
              { m_label = "M1"; m_source = Paper_nets.Shared; m_access = a1; m_entry = 0; m_dist = g1 + ov };
              { m_label = "M2"; m_source = Paper_nets.Shared; m_access = a2; m_entry = g1; m_dist = g2 + ov };
              { m_label = "M3"; m_source = Paper_nets.Shared; m_access = a3; m_entry = g1 + g2; m_dist = g3 + ov };
            ];
        }
      in
      let net = Paper_nets.build spec in
      let rt = Cd_algorithm.of_net net in
      let cdg = Cdg.build rt in
      match Cdg.elementary_cycles cdg with
      | [ cycle ] -> (
        let _, verdict = Cycle_analysis.classify cdg cycle in
        let templates = List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents in
        let space = { (Explorer.default_space templates) with buffers = [ 1 ] } in
        let found = Explorer.is_deadlock_found (Explorer.explore rt space) in
        match verdict with
        | Cycle_analysis.Unreachable _ -> not found
        | Cycle_analysis.Deadlock_reachable _ -> found
        | Cycle_analysis.Needs_search _ -> true)
      | _ -> QCheck.assume_fail ())

(* ---- fault-plan parse/print round-trip ---- *)

(* Parenthesized mesh node names ("n(0,2)") carry commas, and vcs:2 puts
   "#1" suffixes on half the channels, so this exercises every corner of
   the plan grammar the printer can emit. *)
let plan_topo_gen =
  QCheck.make
    QCheck.Gen.(
      let* pick = 0 -- 2 in
      return
        (match pick with
        | 0 -> ("mesh-3x3-vc2", (Builders.mesh ~vcs:2 [ 3; 3 ]).Builders.topo)
        | 1 -> ("figure1", (Paper_nets.figure1 ()).Paper_nets.topo)
        | _ -> ("ring-5", (Builders.ring ~unidirectional:true 5).Builders.topo)))
    ~print:fst

let prop_fault_plan_roundtrip =
  QCheck.Test.make ~name:"fault plan parse of print is the identity" ~count:(count 200)
    QCheck.(pair plan_topo_gen (make Gen.(0 -- 100_000) ~print:string_of_int))
    (fun ((_, topo), seed) ->
      let rng = Rng.create seed in
      let pick lo hi = lo + Rng.int rng (hi - lo + 1) in
      let link_failures = pick 0 2 in
      let stalls = pick 0 3 in
      let drops =
        match pick 0 2 with
        | 0 -> []
        | 1 -> [ "m1" ]
        | _ -> [ "m1"; "worm-2" ]
      in
      let plan = Fault.random ~link_failures ~stalls ~max_stall:9 ~drops ~horizon:50 rng topo in
      (* an empty plan prints as the unparseable "(no faults)" placeholder *)
      QCheck.assume (not (Fault.is_empty plan));
      let printed = Format.asprintf "%a" (Fault.pp topo) plan in
      match Fault.parse topo printed with
      | Ok plan' -> Fault.events plan' = Fault.events plan
      | Error e -> QCheck.Test.fail_reportf "parse of %S failed: %s" printed e)

let suite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "qcheck"
    [
      suite "data-structures"
        [ prop_bitset_model; prop_vec_roundtrip;
          prop_permutations_are_permutations; prop_stats_mean ];
      suite "routing-cdg"
        [ prop_mesh_xy_delivers_minimally; prop_mesh_cdg_acyclic; prop_cdg_soundness;
          prop_paper_net_intents_valid ];
      suite "simulator"
        [ prop_acyclic_never_deadlocks; prop_sim_deterministic; prop_ring_outcomes_wellformed;
          prop_buffer_capacity_preserves_delivery ];
      suite "disciplines"
        [ prop_disciplines_deliver_superset; prop_wormhole_discipline_identity ];
      suite "fault-recovery"
        [ prop_recovery_terminates_mesh; prop_recovery_terminates_ring;
          prop_faulted_runs_deterministic; prop_fault_plan_roundtrip ];
      suite "differential" [ prop_differential_mesh; prop_differential_ring ];
      suite "random-nets"
        [ prop_random_net_routing_valid; prop_random_net_cdg_sound;
          prop_random_net_acyclic_implies_safe ];
      suite "theorem5" [ prop_theorem5_matches_search ];
      suite "synthesis" [ prop_synth_differential ];
    ]
