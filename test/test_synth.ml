(* Unit tests for the synthesis pass (Wr_analysis.Synth + Synth_cert): the
   existence checker on substrates it must settle both ways, certification
   of every synthesized routing through Verify, machine-checking (and
   tamper-rejection) of impossibility witnesses, the Explorer cross-check
   that an "impossible" network's bounded routing family really has no
   deadlock-free member, determinism, the committed --synth golden file,
   and the registry completeness of the diagnostic-code table. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let witness_string topo w = Format.asprintf "%a" (Synth.pp_witness topo) w

(* ---- existence side: synthesize, audit, certify ---- *)

let expect_certified name topo =
  match Synth.synthesize ~name topo with
  | Error w -> Alcotest.failf "%s: expected exists, got: %s" name (witness_string topo w)
  | Ok (rt, plan) ->
    (match Routing.validate rt with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: synthesized routing invalid: %s" name e);
    let m = Topology.num_channels topo in
    let seen = Array.make (max 1 m) false in
    Array.iter (fun r -> seen.(r) <- true) plan.Synth.p_order;
    check cb (name ^ ": rank order is a permutation") true
      (Array.length plan.Synth.p_order = m && Array.for_all Fun.id seen);
    let dist = Topology.distance_matrix topo in
    let multi_hop =
      List.exists
        (fun u -> List.exists (fun v -> dist.(u).(v) > 1 && dist.(u).(v) < max_int) (Topology.nodes topo))
        (Topology.nodes topo)
    in
    check cb (name ^ ": dependencies audited") true
      ((not multi_hop) || plan.Synth.p_dependencies > 0);
    let report = Verify.analyze ~quick:true rt in
    (match report.Verify.conclusion with
    | Verify.Deadlock_free _ -> ()
    | c ->
      Alcotest.failf "%s: Verify did not certify: %s" name
        (Format.asprintf "%a" Verify.pp_conclusion c));
    check ci (name ^ ": zero E-severity Verify diagnostics") 0
      (List.length (Diagnostic.errors (Verify.diagnostics report)));
    plan

let test_exists_substrates () =
  List.iter
    (fun (name, coords) -> ignore (expect_certified name coords.Builders.topo))
    [
      ("mesh-4x4", Builders.mesh [ 4; 4 ]);
      ("mesh-3x3x3", Builders.mesh [ 3; 3; 3 ]);
      ("torus-4x4", Builders.torus [ 4; 4 ]);
      ("torus-3x3", Builders.torus [ 3; 3 ]);
      ("hypercube-3", Builders.hypercube 3);
      ("line-5", Builders.line 5);
      ("ring-8-bidi", Builders.ring 8);
      ("complete-4", Builders.complete 4);
      ("star-5", Builders.star 5);
      ("ring-6-uni-vc2", Builders.ring ~unidirectional:true ~vcs:2 6);
    ]

let test_exists_paper_nets () =
  List.iter
    (fun (name, net) ->
      let plan = expect_certified name net.Paper_nets.topo in
      check cb (name ^ ": all channels used") true (plan.Synth.p_unused = []))
    [
      ("figure1", Paper_nets.figure1 ());
      ("figure2", Paper_nets.figure2 ());
      ("figure3a", Paper_nets.figure3 `A);
      ("figure3c", Paper_nets.figure3 `C);
      ("figure3f", Paper_nets.figure3 `F);
      ("family-2", Paper_nets.family 2);
      ("family-3", Paper_nets.family 3);
    ]

(* The checker answers an existence question about the *network*; the
   figure networks that deadlock under the CD algorithm still admit a
   deadlock-free routing (route through the hub), so the verdict must be
   Exists even where the registry's algorithm deadlocks. *)
let test_exists_even_where_cd_deadlocks () =
  let net = Paper_nets.figure2 () in
  match Synth.check net.Paper_nets.topo with
  | Synth.Exists _ -> ()
  | Synth.Impossible w ->
    Alcotest.failf "figure2 network wrongly impossible: %s"
      (witness_string net.Paper_nets.topo w)

(* ---- impossibility side ---- *)

let expect_impossible name topo =
  match Synth.synthesize ~name topo with
  | Ok (_, plan) ->
    Alcotest.failf "%s: expected impossible, synthesized via %s" name plan.Synth.p_strategy
  | Error w ->
    check cb (name ^ ": witness machine-checks") true (Synth.check_witness topo w);
    (match Synth.diagnostics ~name topo (Error w) with
    | [ d ] ->
      check cs (name ^ ": E060 emitted") "E060" d.Diagnostic.code;
      check cb (name ^ ": witness context attached") true
        (List.mem_assoc "witness" d.Diagnostic.context)
    | ds -> Alcotest.failf "%s: expected exactly one diagnostic, got %d" name (List.length ds));
    w

let test_impossible_rings () =
  List.iter
    (fun n ->
      let topo = (Builders.ring ~unidirectional:true n).Builders.topo in
      match expect_impossible (Printf.sprintf "ring-uni-%d" n) topo with
      | Synth.Forced_corner_cycle { w_cycle; w_pairs } ->
        check ci (Printf.sprintf "ring-uni-%d: cycle spans the ring" n) n
          (List.length w_cycle);
        check ci (Printf.sprintf "ring-uni-%d: one forcing pair per corner" n) n
          (List.length w_pairs)
      | w ->
        Alcotest.failf "ring-uni-%d: expected a forced corner cycle, got: %s" n
          (witness_string topo w))
    [ 3; 4; 5; 6 ]

let test_impossible_disconnected () =
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let _ab = Topology.add_channel t a b in
  match expect_impossible "one-way-pair" t with
  | Synth.Not_strongly_connected { w_src; w_dst } ->
    check ci "unreachable pair src" b w_src;
    check ci "unreachable pair dst" a w_dst
  | w -> Alcotest.failf "expected not-strongly-connected, got: %s" (witness_string t w)

let test_witness_rejects_tampering () =
  let topo = (Builders.ring ~unidirectional:true 4).Builders.topo in
  match Synth.check topo with
  | Synth.Exists _ -> Alcotest.fail "ring-uni-4 wrongly exists"
  | Synth.Impossible (Synth.Forced_corner_cycle { w_cycle; w_pairs }) ->
    (* break the cycle: drop one channel so a corner no longer closes *)
    let broken = Synth.Forced_corner_cycle { w_cycle = List.tl w_cycle; w_pairs = List.tl w_pairs } in
    check cb "broken cycle rejected" false (Synth.check_witness topo broken);
    (* claim a forcing pair that the corner does not actually disconnect:
       rotating the pair list misaligns corners and evidence *)
    let rotated = match w_pairs with p :: rest -> rest @ [ p ] | [] -> [] in
    let misaligned = Synth.Forced_corner_cycle { w_cycle; w_pairs = rotated } in
    check cb "misaligned forcing pairs rejected" false (Synth.check_witness topo misaligned)
  | Synth.Impossible w ->
    Alcotest.failf "expected a forced corner cycle, got: %s" (witness_string topo w)

(* Satellite cross-check: on an impossible network, an exhaustive Explorer
   sweep over the bounded routing family (every valid greedy minimal
   next-hop routing) finds no deadlock-free member.  On the unidirectional
   ring the family has exactly one member -- clockwise -- and the sweep
   must confirm its deadlock. *)
let test_impossible_family_sweep () =
  let topo = (Builders.ring ~unidirectional:true 4).Builders.topo in
  (match Synth.check topo with
  | Synth.Impossible _ -> ()
  | Synth.Exists _ -> Alcotest.fail "ring-uni-4 wrongly exists");
  let family = Synth.greedy_family topo in
  check ci "the 4-ring family has exactly one valid member" 1 (List.length family);
  List.iter
    (fun rt ->
      let templates =
        List.init 4 (fun s ->
            Explorer.minimal_length_template rt (Printf.sprintf "m%d" s) s ((s + 3) mod 4))
      in
      match Explorer.explore rt (Explorer.default_space templates) with
      | Explorer.Deadlock_found _ -> ()
      | Explorer.No_deadlock { runs } ->
        Alcotest.failf "%s: no deadlock in %d runs on an impossible network"
          (Routing.name rt) runs)
    family

(* ---- restriction (W062) ---- *)

let test_restricted_doubled_vcs () =
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let _ = Topology.add_channel t a b in
  let _ = Topology.add_channel ~vc:1 t a b in
  let _ = Topology.add_channel t b a in
  let _ = Topology.add_channel ~vc:1 t b a in
  match Synth.synthesize t with
  | Error w -> Alcotest.failf "2-node doubled VCs: %s" (witness_string t w)
  | Ok (_, plan) ->
    check ci "two channels left unused" 2 (List.length plan.Synth.p_unused);
    let codes = List.map (fun d -> d.Diagnostic.code) (Synth.diagnostics t (Synth.synthesize t)) in
    check cb "I061 present" true (List.mem "I061" codes);
    check cb "W062 present" true (List.mem "W062" codes)

let test_square_uses_every_channel () =
  let topo = (Builders.ring 4).Builders.topo in
  match Synth.synthesize topo with
  | Error w -> Alcotest.failf "square: %s" (witness_string topo w)
  | Ok (_, plan) ->
    check cb "no unused channels on the bidirectional square" true
      (plan.Synth.p_unused = [])

(* ---- determinism and the golden file ---- *)

let test_deterministic () =
  let run () =
    match Synth.check (Builders.torus [ 4; 4 ]).Builders.topo with
    | Synth.Exists plan -> (plan.Synth.p_strategy, Array.to_list plan.Synth.p_order)
    | Synth.Impossible _ -> Alcotest.fail "torus-4x4 wrongly impossible"
  in
  let s1, o1 = run () and s2, o2 = run () in
  check cs "strategy stable" s1 s2;
  check cb "order stable" true (o1 = o2)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_registry_json () =
  let got = Synth_cert.list_to_json (Synth_cert.run_all ()) ^ "\n" in
  let want = read_file "golden/wormlint-synth.json" in
  if got <> want then
    Alcotest.failf
      "wormlint --synth JSON drifted from test/golden/wormlint-synth.json; regenerate with: \
       dune exec bin/wormlint.exe -- --synth --json > test/golden/wormlint-synth.json"

let test_synth_cert_verdicts () =
  List.iter
    (fun (t : Synth_cert.t) ->
      match t.Synth_cert.sc_network with
      | "ring-uni-4" ->
        check cb "ring-uni-4 impossible" true (Result.is_error t.Synth_cert.sc_result)
      | name -> check cb (name ^ " certified") true (Synth_cert.certified t))
    (Synth_cert.run_all ())

(* ---- registry completeness of the diagnostic-code table ---- *)

(* Scan the library sources for quoted code literals ("E011", "W062", ...)
   and require exact agreement with Registry.diagnostic_codes in both
   directions.  registry.ml itself is excluded: it quotes every code by
   definition and would make the reverse check vacuous. *)
let scan_codes_in_file path =
  let s = read_file path in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let codes = ref [] in
  for i = 0 to n - 6 do
    if
      s.[i] = '"'
      && (s.[i + 1] = 'E' || s.[i + 1] = 'W' || s.[i + 1] = 'I')
      && is_digit s.[i + 2]
      && is_digit s.[i + 3]
      && is_digit s.[i + 4]
      && s.[i + 5] = '"'
    then codes := String.sub s (i + 1) 4 :: !codes
  done;
  !codes

let source_dirs =
  [
    "../lib/analysis";
    "../lib/core";
    "../lib/sim";
    "../lib/search";
    (* the observability and fault layers emit through Diagnostic too (the
       detector's lint pass, fault-plan parse errors): any code literal
       they grow must be registered, and a registered code must not
       survive its last emitter anywhere in these trees either *)
    "../lib/obs";
    "../lib/fault";
  ]

let scan_emitted_codes () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml" && f <> "registry.ml")
      |> List.concat_map (fun f -> scan_codes_in_file (Filename.concat dir f)))
    source_dirs
  |> List.sort_uniq compare

let test_registry_code_completeness () =
  let emitted = scan_emitted_codes () in
  check cb "the scan found a plausible code population" true (List.length emitted >= 30);
  List.iter
    (fun code ->
      match Registry.find_code code with
      | None ->
        Alcotest.failf "code %s is emitted in the sources but missing from \
                        Registry.diagnostic_codes" code
      | Some (_, sev, _) ->
        let letter =
          match sev with Diagnostic.Error -> 'E' | Diagnostic.Warning -> 'W' | Diagnostic.Info -> 'I'
        in
        if code.[0] <> letter then
          Alcotest.failf "code %s is registered with severity %s" code
            (Diagnostic.severity_string sev))
    emitted;
  List.iter
    (fun (code, _, _) ->
      if not (List.mem code emitted) then
        Alcotest.failf "code %s is in Registry.diagnostic_codes but emitted nowhere" code)
    Registry.diagnostic_codes

let () =
  Alcotest.run "synth"
    [
      ( "exists",
        [
          Alcotest.test_case "substrates" `Quick test_exists_substrates;
          Alcotest.test_case "paper networks" `Quick test_exists_paper_nets;
          Alcotest.test_case "exists despite CD deadlock" `Quick
            test_exists_even_where_cd_deadlocks;
          Alcotest.test_case "square uses every channel" `Quick test_square_uses_every_channel;
        ] );
      ( "impossible",
        [
          Alcotest.test_case "unidirectional rings" `Quick test_impossible_rings;
          Alcotest.test_case "disconnected pair" `Quick test_impossible_disconnected;
          Alcotest.test_case "witness tamper-rejection" `Quick test_witness_rejects_tampering;
          Alcotest.test_case "family sweep finds no DF member" `Quick
            test_impossible_family_sweep;
        ] );
      ( "restriction",
        [ Alcotest.test_case "doubled VCs" `Quick test_restricted_doubled_vcs ] );
      ( "plumbing",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "golden registry json" `Quick test_golden_registry_json;
          Alcotest.test_case "synth_cert verdicts" `Quick test_synth_cert_verdicts;
          Alcotest.test_case "registry code completeness" `Quick
            test_registry_code_completeness;
        ] );
    ]
