(* Tests for the schedule-space explorer and the Section-6 min-delay probe. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let fig2_templates net =
  List.map (fun i -> Explorer.intent_template net i) net.Paper_nets.intents

let test_space_size () =
  let net = Paper_nets.figure2 () in
  let templates = fig2_templates net in
  let sp = Explorer.default_space templates in
  (* 2 msgs: 2! orders x 2! priorities x 2 gaps x 4 lengths each x 2 buffers *)
  check ci "size" (2 * 2 * 2 * (4 * 4) * 2) (Explorer.space_size sp);
  let sp2 = { sp with try_all_orders = false; priorities = Explorer.Fifo_only } in
  check ci "trimmed" (2 * 16 * 2) (Explorer.space_size sp2)

let test_templates () =
  let net = Paper_nets.figure2 () in
  match fig2_templates net with
  | [ t1; t2 ] ->
    (* spans are 4; candidates span-2..span+1 *)
    check (Alcotest.list ci) "lengths" [ 2; 3; 4; 5 ] t1.Explorer.t_lengths;
    check (Alcotest.list ci) "lengths" [ 2; 3; 4; 5 ] t2.Explorer.t_lengths;
    check (Alcotest.list ci) "shared-source offsets" [ 0 ] t1.Explorer.t_offsets
  | _ -> Alcotest.fail "expected two templates"

let test_own_source_offsets () =
  let net = Paper_nets.figure3 `F in
  let own =
    List.find (fun (i : Paper_nets.intent) -> i.i_src <> net.source) net.intents
  in
  let t = Explorer.intent_template net own in
  check cb "offset window" true (List.length t.Explorer.t_offsets > 1)

let test_minimal_length_template () =
  let coords = Builders.ring ~unidirectional:true 5 in
  let rt = Ring_routing.clockwise coords in
  let t = Explorer.minimal_length_template rt "m" 0 3 in
  check (Alcotest.list ci) "hops+extra" [ 3; 4 ] t.Explorer.t_lengths

let test_figure2_witness_found () =
  let net = Paper_nets.figure2 () in
  let rt = Cd_algorithm.of_net net in
  match Explorer.explore rt (Explorer.default_space (fig2_templates net)) with
  | Explorer.Deadlock_found { witness; runs } ->
    check cb "ran some" true (runs > 0);
    (* the witness must replay to the same deadlock *)
    let replay =
      Engine.run ~config:witness.Explorer.w_config rt witness.Explorer.w_schedule
    in
    (match replay with
    | Engine.Deadlock d ->
      check ci "same cycle" witness.Explorer.w_info.Engine.d_cycle d.Engine.d_cycle;
      check cb "wait cycle closes" true (List.length d.Engine.d_wait_cycle >= 2)
    | _ -> Alcotest.fail "witness does not replay");
    (* lengths in the witness are within the candidate sets *)
    List.iter
      (fun (m : Schedule.message_spec) ->
        check cb "length in range" true (m.ms_length >= 2 && m.ms_length <= 5))
      witness.Explorer.w_schedule
  | Explorer.No_deadlock { runs } -> Alcotest.failf "no deadlock in %d runs" runs

(* [f ()] and the engine runs it made, less the speculative ones a parallel
   sweep discarded *)
let with_engine_runs f =
  let r0 = Engine.run_count () and c0 = Engine.cancelled_count () in
  let v = f () in
  (v, Engine.run_count () - r0 - (Engine.cancelled_count () - c0))

let test_figure1_trimmed_safe () =
  (* the full sweep lives in the experiments; here a representative slice *)
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  let templates =
    List.map (fun i -> Explorer.intent_template ~extra:[ -2; -1; 0 ] net i) net.intents
  in
  let sp =
    { (Explorer.default_space templates) with
      buffers = [ 1 ];
      priorities = Explorer.Follow_order;
      gaps = [ 0; 1 ] }
  in
  match with_engine_runs (fun () -> Explorer.explore rt sp) with
  | Explorer.No_deadlock { runs }, engine ->
    check ci "exhausted" (Explorer.space_size sp) runs;
    (* the priority follows the order, so two orders never share a run *)
    check ci "every point runs the engine" runs engine
  | Explorer.Deadlock_found _, _ -> Alcotest.fail "figure 1 must be deadlock-free"

let test_stop_at_first_false_counts_all () =
  let net = Paper_nets.figure2 () in
  let rt = Cd_algorithm.of_net net in
  let sp = Explorer.default_space (fig2_templates net) in
  match with_engine_runs (fun () -> Explorer.explore ~stop_at_first:false rt sp) with
  | Explorer.Deadlock_found { runs; _ }, engine ->
    check ci "full space" (Explorer.space_size sp) runs;
    (* the last witness may be a repeat, so every point runs, and each
       witness is replayed once more *)
    check cb "every point runs the engine" true (engine > runs)
  | Explorer.No_deadlock _, _ -> Alcotest.fail "expected witnesses"

let test_empty_space_rejected () =
  let net = Paper_nets.figure2 () in
  let rt = Cd_algorithm.of_net net in
  Alcotest.check_raises "no messages"
    (Invalid_argument "Explorer.explore: empty message set") (fun () ->
      ignore (Explorer.explore rt (Explorer.default_space [])));
  let bad =
    { (List.hd (fig2_templates net)) with Explorer.t_lengths = [] }
  in
  Alcotest.check_raises "empty candidates"
    (Invalid_argument "Explorer.explore: template with empty candidate list") (fun () ->
      ignore (Explorer.explore rt (Explorer.default_space [ bad ])));
  let sp = Explorer.default_space (fig2_templates net) in
  Alcotest.check_raises "no gaps" (Invalid_argument "Explorer.explore: empty gap list")
    (fun () -> ignore (Explorer.explore rt { sp with gaps = [] }));
  Alcotest.check_raises "no buffers" (Invalid_argument "Explorer.explore: empty buffer list")
    (fun () -> ignore (Explorer.explore rt { sp with buffers = [] }));
  (* a single message has no gap to choose *)
  let single = { (Explorer.default_space [ List.hd (fig2_templates net) ]) with gaps = [] } in
  match Explorer.explore rt single with
  | Explorer.No_deadlock { runs } -> check ci "single message, no gaps" (Explorer.space_size single) runs
  | Explorer.Deadlock_found _ -> Alcotest.fail "one message cannot deadlock"

let test_min_delay_family1 () =
  let net = Paper_nets.family 1 in
  let r = Min_delay.search ~max_h:3 net in
  check cb "safe without delay" true r.Min_delay.md_no_delay_safe;
  check (Alcotest.option ci) "threshold 2" (Some 2) r.Min_delay.md_min_delay;
  check cb "witness present" true (r.Min_delay.md_witness <> None)

let test_min_delay_none_within_budget () =
  let net = Paper_nets.family 2 in
  let r = Min_delay.search ~max_h:1 net in
  check cb "safe" true r.Min_delay.md_no_delay_safe;
  check (Alcotest.option ci) "none within 1" None r.Min_delay.md_min_delay

(* ---- model checker ---- *)

let test_mc_ring_deadlock () =
  let r = Builders.ring ~unidirectional:true 4 in
  let rt = Ring_routing.clockwise r in
  let msgs =
    List.init 4 (fun i ->
        { Model_checker.mc_label = Printf.sprintf "m%d" i; mc_src = i; mc_dst = (i + 2) mod 4;
          mc_length = 2 })
  in
  match Model_checker.check rt msgs with
  | Model_checker.Deadlock { cycle; _ } -> check ci "cycle of four" 4 (List.length cycle)
  | v -> Alcotest.failf "expected deadlock: %s" (Format.asprintf "%a" Model_checker.pp v)

let test_mc_agrees_with_explorer_on_fig2 () =
  let net = Paper_nets.figure2 () in
  match Model_checker.check_net net with
  | Model_checker.Deadlock { cycle; _ } -> check ci "two-cycle" 2 (List.length cycle)
  | v -> Alcotest.failf "expected deadlock: %s" (Format.asprintf "%a" Model_checker.pp v)

let test_mc_fig3a_safe_but_stalls_deadlock () =
  let net = Paper_nets.figure3 `A in
  (match Model_checker.check_net net with
  | Model_checker.Safe { states } -> check cb "explored some" true (states > 1000)
  | v -> Alcotest.failf "expected safe: %s" (Format.asprintf "%a" Model_checker.pp v));
  match Model_checker.check_net ~allow_stalls:true net with
  | Model_checker.Deadlock _ -> ()
  | v -> Alcotest.failf "expected stall deadlock: %s" (Format.asprintf "%a" Model_checker.pp v)

let test_mc_figure1_safe () =
  match Model_checker.check_net (Paper_nets.figure1 ()) with
  | Model_checker.Safe { states } -> check cb "large exploration" true (states > 100_000)
  | v -> Alcotest.failf "expected safe: %s" (Format.asprintf "%a" Model_checker.pp v)

let test_mc_budget () =
  let net = Paper_nets.figure1 () in
  match Model_checker.check_net ~max_states:100 net with
  | Model_checker.Out_of_budget { states } -> check cb "stopped at budget" true (states >= 100)
  | v -> Alcotest.failf "expected out-of-budget: %s" (Format.asprintf "%a" Model_checker.pp v)

let test_mc_validation () =
  let r = Builders.ring ~unidirectional:true 4 in
  let rt = Ring_routing.clockwise r in
  Alcotest.check_raises "empty" (Invalid_argument "Model_checker.check: empty message set")
    (fun () -> ignore (Model_checker.check rt []));
  Alcotest.check_raises "dup labels" (Invalid_argument "Model_checker.check: duplicate labels")
    (fun () ->
      ignore
        (Model_checker.check rt
           [ { Model_checker.mc_label = "m"; mc_src = 0; mc_dst = 1; mc_length = 1 };
             { Model_checker.mc_label = "m"; mc_src = 1; mc_dst = 2; mc_length = 1 } ]))

let () =
  Alcotest.run "search"
    [
      ( "spaces",
        [
          Alcotest.test_case "space size" `Quick test_space_size;
          Alcotest.test_case "intent templates" `Quick test_templates;
          Alcotest.test_case "own-source offsets" `Quick test_own_source_offsets;
          Alcotest.test_case "minimal-length template" `Quick test_minimal_length_template;
          Alcotest.test_case "empty spaces rejected" `Quick test_empty_space_rejected;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "figure2 witness + replay" `Quick test_figure2_witness_found;
          Alcotest.test_case "figure1 slice safe" `Slow test_figure1_trimmed_safe;
          Alcotest.test_case "full enumeration" `Quick test_stop_at_first_false_counts_all;
        ] );
      ( "min_delay",
        [
          Alcotest.test_case "family 1 threshold" `Slow test_min_delay_family1;
          Alcotest.test_case "budget respected" `Slow test_min_delay_none_within_budget;
        ] );
      ( "model_checker",
        [
          Alcotest.test_case "ring deadlock" `Quick test_mc_ring_deadlock;
          Alcotest.test_case "figure2 deadlock" `Quick test_mc_agrees_with_explorer_on_fig2;
          Alcotest.test_case "fig3a safe / stalls deadlock" `Quick
            test_mc_fig3a_safe_but_stalls_deadlock;
          Alcotest.test_case "figure1 safe" `Slow test_mc_figure1_safe;
          Alcotest.test_case "budget" `Quick test_mc_budget;
          Alcotest.test_case "validation" `Quick test_mc_validation;
        ] );
    ]
