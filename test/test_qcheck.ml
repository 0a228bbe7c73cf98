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
            Bitset.unsafe_add b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.unsafe_remove b i;
            Hashtbl.remove model i
          end)
        ops;
      List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem model i) (List.init 64 Fun.id))

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:(count 200)
    QCheck.(list int)
    (fun l ->
      let v = Vec.create () in
      List.iter (Vec.push v) l;
      Vec.to_list v = l)

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
      Routing.validate rt = Ok ()
      && Properties.is_holds (List.assoc "minimal" (Properties.summary rt)))

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

(* A random deterministic routing function on the random digraphs: at each
   (input, destination) a seeded hash either takes the BFS next hop or picks
   any out channel, so many walks come back to a channel they already used.
   Determinism makes such a walk repeat itself until the step cutoff, which
   is why the CDG builder never sees one message twice on an edge. *)
let hash_routing topo seed =
  let dist = Topology.distance_matrix topo in
  Routing.create ~name:"random-walk" topo (fun input dest ->
      let here = Routing.current_node topo input in
      if here = dest then None
      else
        let outs = Topology.out_channels topo here in
        let h = Hashtbl.hash (seed, input, dest) in
        if h mod 3 = 0 then Some (List.nth outs (h / 3 mod List.length outs))
        else
          List.find_opt
            (fun c -> dist.(Topology.dst topo c).(dest) = dist.(here).(dest) - 1)
            outs)

(* The total variant: the same hash picks among the out channels that bring
   the message one hop closer, so every pair is delivered minimally, but the
   choice still depends on the input channel. *)
let closer_routing topo seed =
  let dist = Topology.distance_matrix topo in
  Routing.create ~name:"random-closer" topo (fun input dest ->
      let here = Routing.current_node topo input in
      if here = dest then None
      else
        let outs =
          List.filter
            (fun c -> dist.(Topology.dst topo c).(dest) = dist.(here).(dest) - 1)
            (Topology.out_channels topo here)
        in
        Some (List.nth outs (Hashtbl.hash (seed, input, dest) mod List.length outs)))

let prop_delivered_paths_repeat_no_channel =
  QCheck.Test.make ~name:"no delivered path repeats a channel (random routing functions)"
    ~count:(count 40) random_net_gen
    (fun ((n, _, seed) as params) ->
      let topo, _ = build_random_net params in
      let rt = hash_routing topo seed in
      let ok = ref true in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d then
            match Routing.path rt s d with
            | Ok p -> if List.length (List.sort_uniq compare p) <> List.length p then ok := false
            | Error _ -> ()
        done
      done;
      !ok)

(* ---- reference walkers for the static chain ---- *)

(* The property checkers and the CDG builder as they walked the routing
   function pair by pair, kept verbatim as the oracle that [Properties] and
   [Cdg] must agree with, failure text included. *)
module Oracle = struct
  let iter_realized rt k =
    let seen = Hashtbl.create 256 in
    let emit input dest c =
      let key = (input, dest) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key c;
        k input dest c
      end
    in
    let n = Topology.num_nodes (Routing.topology rt) in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        if s <> d then
          match Routing.path rt s d with
          | Error _ -> () (* validate reports these; nothing to enumerate *)
          | Ok chans ->
            let rec steps input = function
              | [] -> ()
              | c :: rest ->
                emit input d c;
                steps (Routing.From c) rest
            in
            steps (Routing.Inject s) chans
      done
    done

  open Properties

  (* Run [check s d path] over all pairs; first failure wins. *)
  let over_pairs rt check =
    let topo = Routing.topology rt in
    let n = Topology.num_nodes topo in
    let rec loop s d =
      if s >= n then Holds
      else if d >= n then loop (s + 1) 0
      else if s = d then loop s (d + 1)
      else
        match Routing.path rt s d with
        | Error e -> Fails (Routing.error_message e)
        | Ok p -> (
          match check s d p with
          | None -> loop s (d + 1)
          | Some why -> Fails why)
    in
    loop 0 0

  let node_name rt = Topology.node_name (Routing.topology rt)

  let minimal rt =
    let topo = Routing.topology rt in
    let dist = Topology.distance_matrix topo in
    over_pairs rt (fun s d p ->
        let len = List.length p in
        if len = dist.(s).(d) then None
        else
          Some
            (Printf.sprintf "path %s->%s has %d hops, shortest is %d" (node_name rt s)
               (node_name rt d) len dist.(s).(d)))

  (* The sequence of nodes visited by a path starting at [s]. *)
  let visited topo s p = s :: List.map (Topology.dst topo) p

  let no_repeated_nodes rt =
    let topo = Routing.topology rt in
    over_pairs rt (fun s d p ->
        let nodes = visited topo s p in
        let sorted = List.sort compare nodes in
        let rec dup = function
          | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
          | _ -> None
        in
        match dup sorted with
        | None -> None
        | Some v ->
          Some
            (Printf.sprintf "path %s->%s visits %s twice" (node_name rt s) (node_name rt d)
               (node_name rt v)))

  (* [p] split just after its first arrival at node [x]. *)
  let split_at topo x p =
    let rec go before = function
      | c :: after when Topology.dst topo c = x -> (List.rev (c :: before), after)
      | c :: after -> go (c :: before) after
      | [] -> (List.rev before, [])
    in
    go [] p

  (* Definitions 7 and 8 share one walk: wherever the [s]->[d] path passes an
     inner node [x], its part before [x] must be the [s]->[x] path (prefix)
     and its part after [x] the [x]->[d] path (suffix). *)
  let closed rt part =
    let topo = Routing.topology rt in
    let what = match part with `Prefix -> "prefix" | `Suffix -> "suffix" in
    over_pairs rt (fun s d p ->
        let rec each = function
          | [] -> None
          | x :: rest -> (
            let before, after = split_at topo x p in
            let (a, b), expected =
              match part with `Prefix -> ((s, x), before) | `Suffix -> ((x, d), after)
            in
            match Routing.path rt a b with
            | Error e -> Some (Routing.error_message e)
            | Ok q when q = expected -> each rest
            | Ok _ ->
              Some
                (Printf.sprintf "path %s->%s passes %s but the %s->%s path is not its %s"
                   (node_name rt s) (node_name rt d) (node_name rt x) (node_name rt a)
                   (node_name rt b) what))
        in
        each (List.filter (fun x -> x <> s && x <> d) (visited topo s p)))

  let prefix_closed rt = closed rt `Prefix

  let suffix_closed rt = closed rt `Suffix

  (* Definition 9 from the verdicts it conjoins: the first failure among no
     repeated nodes, prefix-closed and suffix-closed, in that order *)
  let coherent_of ~no_repeated ~prefix ~suffix =
    match (no_repeated, prefix) with
    | Fails _, _ -> no_repeated
    | Holds, Fails _ -> prefix
    | Holds, Holds -> suffix

  let coherent rt =
    coherent_of ~no_repeated:(no_repeated_nodes rt) ~prefix:(prefix_closed rt)
      ~suffix:(suffix_closed rt)

  let input_independent rt =
    let topo = Routing.topology rt in
    (* collect every realized decision, grouped by (current node, dest) *)
    let decisions = Hashtbl.create 256 in
    let conflict = ref None in
    iter_realized rt (fun input dest out ->
        let here = Routing.current_node topo input in
        match Hashtbl.find_opt decisions (here, dest) with
        | None -> Hashtbl.add decisions (here, dest) out
        | Some out' ->
          if out <> out' && !conflict = None then
            conflict :=
              Some
                (Printf.sprintf
                   "at %s toward %s the output depends on the input channel (%s vs %s)"
                   (Topology.node_name topo here) (Topology.node_name topo dest)
                   (Topology.channel_name topo out') (Topology.channel_name topo out)));
    match !conflict with None -> Holds | Some w -> Fails w

  let summary rt =
    let no_repeated = no_repeated_nodes rt in
    let prefix = prefix_closed rt in
    let suffix = suffix_closed rt in
    [
      ("minimal", minimal rt);
      ("no-repeated-nodes", no_repeated);
      ("prefix-closed", prefix);
      ("suffix-closed", suffix);
      ("coherent", coherent_of ~no_repeated ~prefix ~suffix);
      ("input-independent", input_independent rt);
    ]

  type message = Topology.node * Topology.node

  type cdg = {
    rt : Routing.t;
    nchan : int;
    succs : Topology.channel list array;
    support : (Topology.channel * Topology.channel, message list) Hashtbl.t;
    users : message list array;
    paths : (message, Topology.channel list) Hashtbl.t;
  }

  let build rt =
    let topo = Routing.topology rt in
    let n = Topology.num_nodes topo in
    let nchan = Topology.num_channels topo in
    let succ_sets = Array.make nchan [] in
    let support = Hashtbl.create 256 in
    let users = Array.make nchan [] in
    let paths = Hashtbl.create 256 in
    (* Each pair is walked once, and a delivered path never repeats a channel
       (a deterministic walk that did would loop until [Routing.path] calls it
       a livelock), so a pair joins each edge's support at most once. *)
    let add_edge c1 c2 msg =
      let key = (c1, c2) in
      match Hashtbl.find_opt support key with
      | None ->
        Hashtbl.add support key [ msg ];
        succ_sets.(c1) <- c2 :: succ_sets.(c1)
      | Some msgs -> Hashtbl.replace support key (msg :: msgs)
    in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        if s <> d then
          match Routing.path rt s d with
          | Error _ -> ()
          | Ok chans ->
            let msg = (s, d) in
            Hashtbl.add paths msg chans;
            List.iter (fun c -> users.(c) <- msg :: users.(c)) chans;
            let rec edges = function
              | c1 :: (c2 :: _ as rest) ->
                add_edge c1 c2 msg;
                edges rest
              | _ -> ()
            in
            edges chans
      done
    done;
    (* Keep successor lists in a stable order for reproducible enumeration. *)
    Array.iteri (fun i l -> succ_sets.(i) <- List.sort_uniq compare l) succ_sets;
    Array.iteri (fun i l -> users.(i) <- List.rev l) users;
    { rt; nchan; succs = succ_sets; support; users; paths }

  let num_edges t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

  let succ t c = t.succs.(c)

  let edge_support t c1 c2 =
    match Hashtbl.find_opt t.support (c1, c2) with Some l -> List.rev l | None -> []

  let channel_users t c = t.users.(c)

  let path_of t msg = match Hashtbl.find_opt t.paths msg with Some p -> p | None -> []
end

(* The first disagreement between the library's static chain and the
   oracle's on [rt], or [None]: each of the summary's six verdicts against
   the oracle's own checker and the whole summary (failure text included),
   then the CDG's successors, edge count, channel users, cached paths and
   the support of every edge. *)
let static_chain_mismatch rt =
  let topo = Routing.topology rt in
  let n = Topology.num_nodes topo in
  let nchan = Topology.num_channels topo in
  let verdict = Format.asprintf "%a" Properties.pp_verdict in
  let summary = Properties.summary rt in
  let checkers =
    [
      ("minimal", Oracle.minimal);
      ("no-repeated-nodes", Oracle.no_repeated_nodes);
      ("prefix-closed", Oracle.prefix_closed);
      ("suffix-closed", Oracle.suffix_closed);
      ("coherent", Oracle.coherent);
      ("input-independent", Oracle.input_independent);
    ]
  in
  let differ what got want =
    Some (Printf.sprintf "%s: %s: got %s, oracle %s" (Routing.name rt) what got want)
  in
  let rec first = function
    | [] -> None
    | check :: rest -> ( match check () with Some _ as m -> m | None -> first rest)
  in
  let cdg = Cdg.build rt and ocdg = Oracle.build rt in
  let chans l = String.concat "," (List.map string_of_int l) in
  let msgs l = String.concat "," (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) l) in
  let each_index k f =
    let rec go i = if i >= k then None else match f i with Some _ as m -> m | None -> go (i + 1) in
    go 0
  in
  first
    (List.map
       (fun (name, oracle) () ->
         let got = Option.fold ~none:"missing" ~some:verdict (List.assoc_opt name summary)
         and want = verdict (oracle rt) in
         if got = want then None else differ name got want)
       checkers
    @ [
        (fun () ->
          let row (k, v) = k ^ "=" ^ verdict v in
          let got = String.concat "; " (List.map row summary)
          and want = String.concat "; " (List.map row (Oracle.summary rt)) in
          if got = want then None else differ "summary" got want);
        (fun () ->
          let got = Cdg.num_edges cdg and want = Oracle.num_edges ocdg in
          if got = want then None else differ "num_edges" (string_of_int got) (string_of_int want));
        (fun () ->
          each_index nchan (fun c ->
              let got = Cdg.succ cdg c and want = Oracle.succ ocdg c in
              if got = want then None
              else differ (Printf.sprintf "succ %d" c) (chans got) (chans want)));
        (fun () ->
          each_index nchan (fun c ->
              let got = Cdg.channel_users cdg c and want = Oracle.channel_users ocdg c in
              if got = want then None
              else differ (Printf.sprintf "channel_users %d" c) (msgs got) (msgs want)));
        (fun () ->
          each_index (n * n) (fun i ->
              let msg = (i / n, i mod n) in
              let got = Cdg.path_of cdg msg and want = Oracle.path_of ocdg msg in
              if got = want then None
              else differ (Printf.sprintf "path_of %d>%d" (i / n) (i mod n)) (chans got) (chans want)));
        (fun () ->
          each_index nchan (fun c1 ->
              first
                (List.map
                   (fun c2 () ->
                     let got = Cdg.edge_support cdg c1 c2
                     and want = Oracle.edge_support ocdg c1 c2 in
                     if got = want then None
                     else differ (Printf.sprintf "edge_support %d %d" c1 c2) (msgs got) (msgs want))
                   (Oracle.succ ocdg c1))));
      ])

let prop_static_chain_matches_oracle =
  QCheck.Test.make
    ~name:"static chain agrees with the reference walkers (random routing functions)"
    ~count:(count 1000)
    QCheck.(pair random_net_gen bool)
    (fun (((_, _, seed) as params), total) ->
      let topo, _ = build_random_net params in
      let rt = (if total then closer_routing else hash_routing) topo seed in
      match static_chain_mismatch rt with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* The same comparison over every oblivious routing the registry ships,
   escape subfunctions included. *)
let test_registry_matches_oracle () =
  List.iter
    (fun (e : Registry.entry) ->
      let routings =
        match e.Registry.r_algo with
        | Registry.Oblivious rt -> [ rt ]
        | Registry.Adaptive (_, escape) -> Option.to_list escape
      in
      List.iter
        (fun rt ->
          match static_chain_mismatch rt with
          | None -> ()
          | Some why -> Alcotest.fail why)
        routings)
    (Registry.entries ())

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
          prop_random_net_acyclic_implies_safe; prop_delivered_paths_repeat_no_channel;
          prop_static_chain_matches_oracle ];
      ( "static-oracle",
        [ Alcotest.test_case "registry routings agree with the reference walkers" `Quick
            test_registry_matches_oracle ] );
      suite "theorem5" [ prop_theorem5_matches_search ];
      suite "synthesis" [ prop_synth_differential ];
    ]
