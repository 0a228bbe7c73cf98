(* Integration tests: the Verify pipeline end to end, and the experiment
   suite's paper-vs-measured rows. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let conclusion_of rt = (Verify.analyze ~quick:true rt).Verify.conclusion

let test_verify_acyclic_algorithms () =
  List.iter
    (fun (name, rt) ->
      match conclusion_of rt with
      | Verify.Deadlock_free why ->
        check cb (name ^ " via acyclicity") true
          (String.length why > 0 && String.sub why 0 7 = "acyclic")
      | c -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Verify.pp_conclusion c))
    [
      ("xy", Dimension_order.mesh (Builders.mesh [ 4; 4 ]));
      ("west-first", Turn_model.west_first (Builders.mesh [ 4; 4 ]));
      ("hypercube", Dimension_order.hypercube (Builders.hypercube 3));
      ("dateline ring", Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6));
    ]

let test_verify_deadlocking_algorithms () =
  List.iter
    (fun (name, rt) ->
      match conclusion_of rt with
      | Verify.Deadlocks _ -> ()
      | c -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Verify.pp_conclusion c))
    [
      ("ring clockwise", Ring_routing.clockwise (Builders.ring ~unidirectional:true 4));
      ("torus novc", Dimension_order.torus (Builders.torus [ 4; 4 ]));
    ]

let test_verify_cd_algorithm () =
  (* THE headline: cyclic CDG, deadlock-free anyway *)
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  let report = Verify.analyze ~quick:true rt in
  check cb "cyclic" false report.Verify.acyclic;
  check ci "one cycle" 1 (List.length report.Verify.cycles);
  (match report.Verify.cycles with
  | [ cr ] ->
    check cb "searched" true cr.Verify.cr_searched;
    check cb "no witness" true (cr.Verify.cr_witness = None);
    check cb "many runs" true (cr.Verify.cr_search_runs > 1000)
  | _ -> Alcotest.fail "expected one cycle report");
  match report.Verify.conclusion with
  | Verify.Deadlock_free _ -> ()
  | c -> Alcotest.failf "expected deadlock-free: %s" (Format.asprintf "%a" Verify.pp_conclusion c)

let test_verify_figure3_split () =
  let verdict case =
    let rt = Cd_algorithm.of_net (Paper_nets.figure3 case) in
    conclusion_of rt
  in
  (match verdict `A with
  | Verify.Deadlock_free _ -> ()
  | c -> Alcotest.failf "a: %s" (Format.asprintf "%a" Verify.pp_conclusion c));
  match verdict `D with
  | Verify.Deadlocks _ -> ()
  | c -> Alcotest.failf "d: %s" (Format.asprintf "%a" Verify.pp_conclusion c)

let test_verify_no_search_mode () =
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  let report = Verify.analyze ~use_search:false rt in
  match report.Verify.conclusion with
  | Verify.Unknown _ -> ()
  | c -> Alcotest.failf "expected unknown: %s" (Format.asprintf "%a" Verify.pp_conclusion c)

let test_verify_report_renders () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let report = Verify.analyze ~quick:true rt in
  let s = Format.asprintf "%a" Verify.pp_report report in
  check cb "mentions conclusion" true (String.length s > 50)

(* ---- experiment rows ---- *)

let all_ok name rows =
  List.iter
    (fun (r : Experiments.row) ->
      if not r.Experiments.x_ok then
        Alcotest.failf "%s: claim %s failed: %s" name r.x_id r.x_measured)
    rows;
  check cb (name ^ " nonempty") true (rows <> [])

let test_exp_t2 () = all_ok "exp-t2" (Experiments.exp_t2 ~quick:true null_ppf)
let test_exp_t3 () = all_ok "exp-t3" (Experiments.exp_t3 ~quick:true null_ppf)
let test_exp_t4 () = all_ok "exp-t4" (Experiments.exp_t4 ~quick:true null_ppf)
let test_exp_s1 () = all_ok "exp-s1" (Experiments.exp_s1 ~quick:true null_ppf)
let test_exp_s2 () = all_ok "exp-s2" (Experiments.exp_s2 ~quick:true null_ppf)
let test_exp_f1 () = all_ok "exp-f1" (Experiments.exp_f1 ~quick:true null_ppf)
let test_exp_t5 () = all_ok "exp-t5" (Experiments.exp_t5 ~quick:true null_ppf)
let test_exp_g () = all_ok "exp-g" (Experiments.exp_g ~quick:true ~max_p:2 null_ppf)

(* one family member makes G/growth hold vacuously, so it is refused *)
let test_exp_g_needs_two_members () =
  Alcotest.check_raises "max_p = 1 rejected" (Invalid_argument "Experiments.exp_g: max_p < 2")
    (fun () -> ignore (Experiments.exp_g ~quick:true ~max_p:1 null_ppf))
let test_exp_corollaries () = all_ok "exp-c" (Experiments.exp_corollaries ~quick:true null_ppf)
let test_exp_fault () = all_ok "exp-fr" (Experiments.exp_fault ~quick:true null_ppf)

let test_summary_table () =
  let rows = Experiments.exp_t2 ~quick:true null_ppf in
  let s = Experiments.summary_table rows in
  check cb "table renders" true (String.length s > 40)

let () =
  Alcotest.run "integration"
    [
      ( "verify",
        [
          Alcotest.test_case "acyclic suite" `Quick test_verify_acyclic_algorithms;
          Alcotest.test_case "deadlocking suite" `Quick test_verify_deadlocking_algorithms;
          Alcotest.test_case "cd algorithm headline" `Slow test_verify_cd_algorithm;
          Alcotest.test_case "figure3 split" `Slow test_verify_figure3_split;
          Alcotest.test_case "no-search mode" `Quick test_verify_no_search_mode;
          Alcotest.test_case "report renders" `Quick test_verify_report_renders;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "exp-t2" `Quick test_exp_t2;
          Alcotest.test_case "exp-t3" `Quick test_exp_t3;
          Alcotest.test_case "exp-t4" `Quick test_exp_t4;
          Alcotest.test_case "exp-s1" `Quick test_exp_s1;
          Alcotest.test_case "exp-s2" `Quick test_exp_s2;
          Alcotest.test_case "exp-f1" `Slow test_exp_f1;
          Alcotest.test_case "exp-t5" `Slow test_exp_t5;
          Alcotest.test_case "exp-g" `Slow test_exp_g;
          Alcotest.test_case "exp-g needs two members" `Quick test_exp_g_needs_two_members;
          Alcotest.test_case "exp-corollaries" `Slow test_exp_corollaries;
          Alcotest.test_case "exp-fault" `Quick test_exp_fault;
          Alcotest.test_case "summary table" `Quick test_summary_table;
        ] );
    ]
