(* Unit tests for the wr_analysis layer: diagnostic plumbing (constructors,
   ordering, JSON), the lint battery via the seeded-defect corpus and the
   shipped-algorithm registry, fault-plan lints, the Verify diagnostics
   bridge, and the engine sanitizer (collector semantics plus clean
   sanitized runs). *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

(* ---- Diagnostic ---- *)

let test_diag_constructors () =
  let d = Diagnostic.error "E011" (Diagnostic.Pair (0, 1)) "boom" in
  check cs "code kept" "E011" d.Diagnostic.code;
  check cb "is_error" true (Diagnostic.is_error d);
  Alcotest.check_raises "severity must match code letter"
    (Invalid_argument "Diagnostic: code \"W010\" does not match severity error") (fun () ->
      ignore (Diagnostic.error "W010" (Diagnostic.Algorithm "x") "mismatch"));
  let w = Diagnostic.warning "W010" (Diagnostic.Channel 3) "dead" in
  let i = Diagnostic.info "I020" (Diagnostic.Cycle [ 0; 1 ]) "fine" in
  let sorted = Diagnostic.by_severity [ i; w; d ] in
  check ci "errors first"
    (match sorted with e :: _ -> if Diagnostic.is_error e then 1 else 0 | [] -> 0)
    1;
  check ci "count warnings" 1 (Diagnostic.count Diagnostic.Warning sorted);
  check ci "errors extracts" 1 (List.length (Diagnostic.errors sorted))

let test_diag_json () =
  check cs "escaping" "a\\\"b\\\\c\\n" (Diagnostic.json_escape "a\"b\\c\n");
  let d =
    Diagnostic.error "E001" (Diagnostic.Message "m\"1")
      ~context:[ ("algorithm", "x") ]
      "live\"lock"
  in
  let json = Diagnostic.to_json d in
  check cb "code field" true
    (String.length json > 0
    &&
    let re_has needle =
      let n = String.length needle and l = String.length json in
      let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
      go 0
    in
    re_has "\"code\":\"E001\"" && re_has "m\\\"1" && re_has "live\\\"lock"
    && re_has "\"algorithm\":\"x\"");
  let arr = Diagnostic.list_to_json [ d; d ] in
  check cb "array brackets" true (arr.[0] = '[' && arr.[String.length arr - 1] = ']')

(* ---- corpus and registry ---- *)

let test_corpus_all () =
  List.iter
    (fun (name, r) ->
      match r with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "corpus %s: %s" name msg)
    (Corpus.check_all ())

let test_corpus_covers_codes () =
  let codes =
    List.sort_uniq compare
      (List.map (fun (c : Corpus.entry) -> c.Corpus.c_expected) (Corpus.entries ()))
  in
  check cb "at least 8 distinct codes" true (List.length codes >= 8)

let test_registry_zero_errors () =
  List.iter
    (fun (e : Registry.entry) ->
      let errs = Diagnostic.errors (Registry.lint e) in
      if errs <> [] then
        Alcotest.failf "%s: %s" e.Registry.r_name
          (Format.asprintf "%a"
             (Diagnostic.pp ~topo:(Registry.topology e) ())
             (List.hd errs)))
    (Registry.entries ())

let test_registry_find () =
  check cb "xy-mesh-4x4 registered" true (Registry.find "xy-mesh-4x4" <> None);
  check cb "unknown not registered" true (Registry.find "no-such-algo" = None);
  check cb "names non-empty" true (List.length (Registry.names ()) >= 15)

(* ---- fault-plan lints ---- *)

let line_topo () = (Builders.line 3).Builders.topo

let test_fault_plan_clean () =
  let topo = line_topo () in
  let plan =
    Fault.make
      [
        Fault.Transient_stall { channel = 0; at = 3; duration = 4 };
        Fault.Link_failure { channel = 1; at = 10 };
      ]
  in
  check ci "no diagnostics on a sane plan" 0
    (List.length (Lint.fault_plan ~labels:[ "m1" ] topo plan))

let test_fault_plan_codes () =
  let topo = line_topo () in
  let code_of d = d.Diagnostic.code in
  let diags plan = List.map code_of (Lint.fault_plan topo plan) in
  check cb "E040 out of range" true
    (List.mem "E040" (diags (Fault.make [ Fault.Link_failure { channel = 99; at = 0 } ])));
  check cb "E041 stall after permanent failure" true
    (List.mem "E041"
       (diags
          (Fault.make
             [
               Fault.Link_failure { channel = 0; at = 2 };
               Fault.Transient_stall { channel = 0; at = 5; duration = 3 };
             ])));
  check cb "W043 duplicate failure" true
    (List.mem "W043"
       (diags
          (Fault.make
             [
               Fault.Link_failure { channel = 1; at = 0 };
               Fault.Link_failure { channel = 1; at = 7 };
             ])));
  let with_labels =
    Lint.fault_plan ~labels:[ "m1" ] topo
      (Fault.make [ Fault.Message_drop { label = "ghost"; at = 1 } ])
  in
  check cb "W042 unknown drop label" true (List.exists (fun d -> code_of d = "W042") with_labels)

(* ---- Verify diagnostics bridge ---- *)

let test_verify_diagnostics_safe () =
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 3 ]) in
  let report = Verify.analyze ~quick:true rt in
  let codes = List.map (fun d -> d.Diagnostic.code) (Verify.diagnostics report) in
  check cb "deadlock-free mesh reports I053" true (List.mem "I053" codes);
  check cb "no E-severity" true
    (Diagnostic.errors (Verify.diagnostics report) = [])

let test_verify_diagnostics_deadlock () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let report = Verify.analyze ~quick:true rt in
  let diags = Verify.diagnostics report in
  let codes = List.map (fun d -> d.Diagnostic.code) diags in
  check cb "clockwise ring reports E050" true (List.mem "E050" codes);
  match diags with
  | first :: _ -> check cb "errors sorted first" true (Diagnostic.is_error first)
  | [] -> Alcotest.fail "no diagnostics"

let test_verify_diagnostics_witness () =
  (* the ring deadlock is theorem-certified, so analyze never searches it;
     fetch a witness directly and exercise the E051 mapping on a report
     assembled from it *)
  let ring = Builders.ring ~unidirectional:true 3 in
  let rt = Ring_routing.clockwise ring in
  let templates =
    List.map
      (fun s -> Explorer.minimal_length_template rt (Printf.sprintf "m%d" s) s ((s + 2) mod 3))
      [ 0; 1; 2 ]
  in
  match Explorer.explore rt (Explorer.default_space templates) with
  | Explorer.No_deadlock _ -> Alcotest.fail "expected a ring deadlock witness"
  | Explorer.Deadlock_found { runs; witness } -> (
    let report =
      {
        (Verify.analyze ~use_search:false rt) with
        Verify.cycles =
          [
            {
              Verify.cr_cycle = [ 0; 1; 2 ];
              cr_verdict = Cycle_analysis.Needs_search "synthetic";
              cr_searched = true;
              cr_witness = Some witness;
              cr_search_runs = runs;
            };
          ];
      }
    in
    let diags = Verify.diagnostics report in
    match List.find_opt (fun d -> d.Diagnostic.code = "E051") diags with
    | None -> Alcotest.fail "witnessed cycle must map to E051"
    | Some d ->
      check cb "witness schedule labels recorded" true
        (List.mem_assoc "schedule" d.Diagnostic.context))

let test_verify_diagnostics_searched_clean () =
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let report = Verify.analyze ~quick:true rt in
  let codes = List.map (fun d -> d.Diagnostic.code) (Verify.diagnostics report) in
  check cb "figure-1 is deadlock-free (I053)" true (List.mem "I053" codes);
  check cb "its searched-clean cycle maps to I054" true (List.mem "I054" codes)

(* ---- sanitizer ---- *)

let dummy code = Diagnostic.error code (Diagnostic.Message "m") "synthetic"

let test_sanitizer_collector () =
  let s = Sanitizer.create ~limit:2 () in
  check cb "fresh is ok" true (Sanitizer.ok s);
  Sanitizer.record s (dummy "E101");
  Sanitizer.record s (dummy "E102");
  Sanitizer.record s (dummy "E103");
  check ci "all violations counted" 3 (Sanitizer.violation_count s);
  check ci "stored up to the limit" 2 (List.length (Sanitizer.diagnostics s));
  check cb "not ok" false (Sanitizer.ok s);
  Sanitizer.reset s;
  check cb "reset is ok again" true (Sanitizer.ok s);
  check ci "reset clears count" 0 (Sanitizer.violation_count s)

let test_sanitizer_fail_fast () =
  let s = Sanitizer.create ~fail_fast:true () in
  Alcotest.check_raises "fail-fast raises" (Sanitizer.Violation (dummy "E105")) (fun () ->
      Sanitizer.record s (dummy "E105"))

let test_sanitizer_install () =
  (* WORMHOLE_SANITIZE may have installed one at startup; run the check
     from a clean slate and put the previous sanitizer back afterwards *)
  let prev = Sanitizer.current () in
  Fun.protect
    ~finally:(fun () -> match prev with Some p -> Sanitizer.install p | None -> Sanitizer.uninstall ())
    (fun () ->
      Sanitizer.uninstall ();
      check cb "nothing installed" true (Sanitizer.current () = None);
      let s = Sanitizer.create () in
      Sanitizer.install s;
      check cb "installed visible" true (Sanitizer.current () = Some s);
      Sanitizer.uninstall ();
      check cb "uninstalled" true (Sanitizer.current () = None))

let test_sanitized_runs_clean () =
  let s = Sanitizer.create () in
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 3 ]) in
  let topo = Routing.topology rt in
  let sched =
    [
      Schedule.message ~length:4 ~at:0 "m1" 0 (Topology.num_nodes topo - 1);
      Schedule.message ~length:3 ~at:1 "m2" (Topology.num_nodes topo - 1) 0;
      Schedule.message ~length:2 ~at:0 "m3" 1 4;
    ]
  in
  (match Engine.run ~sanitizer:s rt sched with
  | Engine.All_delivered _ -> ()
  | o -> Alcotest.failf "unexpected outcome %s" (Format.asprintf "%a" (Engine.pp_outcome topo) o));
  check cb "oblivious run is clean" true (Sanitizer.ok s);
  check cb "cycles were checked" true (Sanitizer.cycles_checked s > 0);
  let first_cycles = Sanitizer.cycles_checked s in
  let ad = Adaptive.fully_adaptive_minimal (Builders.mesh [ 3; 3 ]) in
  (match Engine.run_adaptive ~sanitizer:s ad sched with
  | Engine.All_delivered _ -> ()
  | o ->
    Alcotest.failf "unexpected adaptive outcome %s"
      (Format.asprintf "%a" (Engine.pp_outcome topo) o));
  check cb "adaptive run is clean" true (Sanitizer.ok s);
  check cb "second run checked" true (Sanitizer.cycles_checked s > first_cycles)

let test_sanitized_faulted_run_clean () =
  let s = Sanitizer.create () in
  let ring = Builders.ring ~unidirectional:true 5 in
  let rt = Ring_routing.clockwise ring in
  let topo = ring.Builders.topo in
  let plan =
    match Fault.parse topo "fail:n(1)>n(2)@24, stall:n(0)>n(1)@17+12" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let config =
    {
      Engine.default_config with
      faults = plan;
      recovery = Some { Engine.default_recovery with trigger = Engine.Watchdog 16; retry_limit = 3; backoff = 4 };
    }
  in
  let sched =
    [ Schedule.message ~length:3 ~at:0 "m1" 0 3; Schedule.message ~length:4 ~at:2 "m2" 2 1 ]
  in
  ignore (Engine.run ~config ~sanitizer:s rt sched);
  if not (Sanitizer.ok s) then
    Alcotest.failf "faulted run violated invariants: %s"
      (Format.asprintf "%a" (Diagnostic.pp ~topo ()) (List.hd (Sanitizer.diagnostics s)))

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "constructors and ordering" `Quick test_diag_constructors;
          Alcotest.test_case "json rendering" `Quick test_diag_json;
        ] );
      ( "lint",
        [
          Alcotest.test_case "corpus: every defect flagged once" `Quick test_corpus_all;
          Alcotest.test_case "corpus covers 8+ codes" `Quick test_corpus_covers_codes;
          Alcotest.test_case "registry: zero E-severity" `Quick test_registry_zero_errors;
          Alcotest.test_case "registry lookup" `Quick test_registry_find;
        ] );
      ( "fault-plan",
        [
          Alcotest.test_case "clean plan" `Quick test_fault_plan_clean;
          Alcotest.test_case "defect codes" `Quick test_fault_plan_codes;
        ] );
      ( "verify-bridge",
        [
          Alcotest.test_case "deadlock-free report" `Quick test_verify_diagnostics_safe;
          Alcotest.test_case "deadlocking report" `Quick test_verify_diagnostics_deadlock;
          Alcotest.test_case "witnessed cycle" `Quick test_verify_diagnostics_witness;
          Alcotest.test_case "searched-clean cycle" `Quick test_verify_diagnostics_searched_clean;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "collector semantics" `Quick test_sanitizer_collector;
          Alcotest.test_case "fail-fast raises" `Quick test_sanitizer_fail_fast;
          Alcotest.test_case "install/uninstall" `Quick test_sanitizer_install;
          Alcotest.test_case "clean sanitized runs" `Quick test_sanitized_runs_clean;
          Alcotest.test_case "clean faulted run" `Quick test_sanitized_faulted_run_clean;
        ] );
    ]
