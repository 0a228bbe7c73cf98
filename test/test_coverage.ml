(* Coverage addendum: corner cases not exercised by the per-module suites. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---- Cdg enumeration bounds ---- *)

let test_cycle_enumeration_bounds () =
  let rt = Dimension_order.torus (Builders.torus [ 5; 5 ]) in
  let cdg = Cdg.build rt in
  check ci "cap respected" 3 (List.length (Cdg.elementary_cycles ~max_cycles:3 cdg));
  check ci "default cap admits all 20 ring cycles" 20
    (List.length (Cdg.elementary_cycles cdg))

let test_pp_cycle () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let cdg = Cdg.build rt in
  let cycle = List.hd (Cdg.elementary_cycles cdg) in
  let s = Format.asprintf "%a" (Cdg.pp_cycle cdg) cycle in
  check cb "arrow-separated" true (String.length s > 20)

(* ---- Theorem-5 condition 5: parkable Mmin with a non-sharing predecessor ---- *)

let test_theorem5_cond5_parking () =
  let sharer label access entry span =
    { Theorem5.sh_label = label; sh_access = access; sh_entry = entry; sh_span = span }
  in
  let input =
    {
      Theorem5.cycle_len = 12;
      (* Mmin (access 2, entry 6) has span 2 <= access and its immediate
         cyclic predecessor (the non-sharer at entry 4) does not use cs:
         condition 5 must fire *)
      sharers = [ sharer "max" 4 0 5; sharer "mid" 3 8 5; sharer "min" 2 6 2 ];
      others = [ { Theorem5.ot_entry = 4; ot_span = 2; ot_uses_shared = false } ];
    }
  in
  let conds, _ = Theorem5.check input in
  let c5 = List.find (fun (c : Theorem5.condition) -> c.c_index = 5) conds in
  check cb "cond5 violated" false c5.Theorem5.c_holds

(* ---- Verify: numbering exposure and quick mode ---- *)

let test_verify_numbering_exposed () =
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 3 ]) in
  let report = Verify.analyze rt in
  match report.Verify.numbering with
  | Some f -> check ci "one number per channel" 24 (Array.length f)
  | None -> Alcotest.fail "expected numbering"

(* ---- adaptive engine cutoff ---- *)

let test_adaptive_cutoff () =
  let coords = Builders.mesh [ 3; 3 ] in
  let ad = Adaptive.fully_adaptive_minimal coords in
  let config = { Engine.default_config with max_cycles = 2 } in
  match Engine.run_adaptive ~config ad [ Schedule.message ~length:30 "m" 0 8 ] with
  | Engine.Cutoff { at; _ } -> check ci "cutoff" 2 at
  | o -> Alcotest.failf "expected cutoff: %s"
           (Format.asprintf "%a" (Engine.pp_outcome coords.Builders.topo) o)

(* ---- min-delay witness replays ---- *)

let test_min_delay_witness_replays () =
  let net = Paper_nets.family 1 in
  let r = Min_delay.search ~max_h:2 net in
  match r.Min_delay.md_witness with
  | Some w ->
    let rt = Cd_algorithm.of_net net in
    (match Engine.run ~config:w.Explorer.w_config rt w.Explorer.w_schedule with
    | Engine.Deadlock _ -> ()
    | _ -> Alcotest.fail "witness does not replay");
    (* the witness uses at least one adversarial hold *)
    check cb "uses holds" true
      (List.exists
         (fun (m : Schedule.message_spec) -> m.ms_holds <> [])
         w.Explorer.w_schedule)
  | None -> Alcotest.fail "expected a witness"

(* ---- paper-net helper values on figure 2 ---- *)

let test_figure2_helper_values () =
  let net = Paper_nets.figure2 () in
  let accesses = List.map (Paper_nets.access_channel_count net) net.Paper_nets.intents in
  check (Alcotest.list ci) "accesses 2/3" [ 2; 3 ] accesses;
  let spans =
    List.map
      (fun i -> List.length (Paper_nets.in_cycle_channels net i))
      net.Paper_nets.intents
  in
  check (Alcotest.list ci) "spans 4/4" [ 4; 4 ] spans

(* ---- model checker on the dateline ring (acyclic: must be safe) ---- *)

let test_mc_dateline_safe () =
  let coords = Builders.ring ~unidirectional:true ~vcs:2 5 in
  let rt = Ring_routing.dateline coords in
  let msgs =
    List.init 5 (fun i ->
        { Model_checker.mc_label = Printf.sprintf "m%d" i; mc_src = i; mc_dst = (i + 2) mod 5;
          mc_length = 2 })
  in
  match Model_checker.check rt msgs with
  | Model_checker.Safe _ -> ()
  | v -> Alcotest.failf "expected safe: %s" (Format.asprintf "%a" Model_checker.pp v)

(* ---- engine: message longer than its path, deep buffers ---- *)

let test_long_message_short_path () =
  let coords = Builders.ring ~unidirectional:true 4 in
  let rt = Ring_routing.clockwise coords in
  let config = { Engine.default_config with buffer_capacity = 3 } in
  match Engine.run ~config rt [ Schedule.message ~length:12 "m" 0 1 ] with
  | Engine.All_delivered { finished_at; _ } ->
    (* single channel, 12 flits, one consumed per cycle after arrival *)
    check cb "takes at least 12 cycles" true (finished_at >= 12)
  | o ->
    Alcotest.failf "expected delivery: %s"
      (Format.asprintf "%a" (Engine.pp_outcome coords.Builders.topo) o)

(* ---- multi-vc paths through the engine ---- *)

let test_dateline_traffic_heavy () =
  let coords = Builders.ring ~unidirectional:true ~vcs:2 6 in
  let rt = Ring_routing.dateline coords in
  let sched =
    List.concat_map
      (fun round ->
        List.init 6 (fun i ->
            Schedule.message ~length:3 ~at:(round * 2)
              (Printf.sprintf "m%d-%d" round i) i ((i + 3) mod 6)))
      [ 0; 1; 2 ]
  in
  match Engine.run rt sched with
  | Engine.All_delivered { messages; _ } -> check ci "all 18" 18 (List.length messages)
  | o ->
    Alcotest.failf "expected delivery: %s"
      (Format.asprintf "%a" (Engine.pp_outcome coords.Builders.topo) o)

(* ---- duato adaptive routing respects vc classes ---- *)

let test_duato_options_include_escape () =
  let coords = Builders.mesh ~vcs:2 [ 3; 3 ] in
  let ad = Adaptive.duato_mesh coords in
  let escape = Adaptive.escape_of_duato_mesh coords in
  let src = coords.node_at [| 0; 0 |] and dst = coords.node_at [| 2; 2 |] in
  let opts = Adaptive.options ad (Routing.Inject src) dst in
  (* two adaptive vc-1 channels plus the vc-0 escape *)
  check ci "three options" 3 (List.length opts);
  let esc = Option.get (Routing.next escape (Routing.Inject src) dst) in
  check cb "escape offered" true (List.mem esc opts);
  check ci "escape is vc0" 0 (Topology.vc coords.Builders.topo esc)

let () =
  Alcotest.run "coverage"
    [
      ( "cdg",
        [
          Alcotest.test_case "enumeration bounds" `Quick test_cycle_enumeration_bounds;
          Alcotest.test_case "pp_cycle" `Quick test_pp_cycle;
          Alcotest.test_case "theorem5 cond5 parking" `Quick test_theorem5_cond5_parking;
        ] );
      ( "verify",
        [ Alcotest.test_case "numbering exposed" `Quick test_verify_numbering_exposed ] );
      ( "engines",
        [
          Alcotest.test_case "adaptive cutoff" `Quick test_adaptive_cutoff;
          Alcotest.test_case "long message short path" `Quick test_long_message_short_path;
          Alcotest.test_case "heavy dateline traffic" `Quick test_dateline_traffic_heavy;
        ] );
      ( "search",
        [
          Alcotest.test_case "min-delay witness replays" `Slow test_min_delay_witness_replays;
          Alcotest.test_case "mc dateline safe" `Quick test_mc_dateline_safe;
        ] );
      ( "paper_nets",
        [ Alcotest.test_case "figure2 helpers" `Quick test_figure2_helper_values ] );
      ( "adaptive",
        [ Alcotest.test_case "duato escape option" `Quick test_duato_options_include_escape ] );
    ]
