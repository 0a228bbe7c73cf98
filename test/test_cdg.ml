(* Unit tests for channel dependency graphs, cycle enumeration, the
   Dally-Seitz certificate, and the theorem classifiers. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---- construction and acyclicity ---- *)

let test_xy_mesh_acyclic () =
  let rt = Dimension_order.mesh (Builders.mesh [ 4; 4 ]) in
  let cdg = Cdg.build rt in
  check cb "acyclic" true (Cdg.is_acyclic cdg);
  check ci "no cycles" 0 (List.length (Cdg.elementary_cycles cdg));
  (* Dally-Seitz numbering: strictly increasing along every dependency *)
  match Cdg.numbering cdg with
  | None -> Alcotest.fail "expected a numbering"
  | Some f ->
    Topology.iter_channels
      (fun c ->
        List.iter
          (fun c' ->
            if f.(c) >= f.(c') then
              Alcotest.failf "numbering not increasing: %d -> %d" f.(c) f.(c'))
          (Cdg.succ cdg c))
      (Routing.topology rt)

let test_numbering_absent_when_cyclic () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let cdg = Cdg.build rt in
  check cb "cyclic" false (Cdg.is_acyclic cdg);
  check cb "no numbering" true (Cdg.numbering cdg = None)

let test_ring_cycle_enumeration () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 5) in
  let cdg = Cdg.build rt in
  let cycles = Cdg.elementary_cycles cdg in
  check ci "one cycle" 1 (List.length cycles);
  check ci "full ring" 5 (List.length (List.hd cycles))

let test_dateline_ring_acyclic () =
  let rt = Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 6) in
  check cb "acyclic" true (Cdg.is_acyclic (Cdg.build rt))

let test_torus_cycles () =
  (* each of the 5 rows and 5 columns contributes a +ring and a -ring *)
  let rt = Dimension_order.torus (Builders.torus [ 5; 5 ]) in
  let cdg = Cdg.build rt in
  check cb "cyclic" false (Cdg.is_acyclic cdg);
  let cycles = Cdg.elementary_cycles cdg in
  check ci "20 ring cycles" 20 (List.length cycles);
  List.iter (fun c -> check ci "each of length 5" 5 (List.length c)) cycles

let test_torus_dateline_acyclic () =
  let rt = Dimension_order.torus ~datelines:true (Builders.torus ~vcs:2 [ 5; 5 ]) in
  check cb "acyclic" true (Cdg.is_acyclic (Cdg.build rt))

let test_edge_support_and_users () =
  let rt = Dimension_order.mesh (Builders.mesh [ 3; 1 + 2 ]) in
  let cdg = Cdg.build rt in
  let topo = Routing.topology rt in
  (* every consecutive channel pair of every path is an edge with that
     message in its support (CDG soundness) *)
  let n = Topology.num_nodes topo in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then begin
        let p = Routing.path_exn rt s d in
        let rec chk = function
          | c1 :: (c2 :: _ as rest) ->
            if not (List.mem c2 (Cdg.succ cdg c1)) then Alcotest.fail "missing edge";
            if not (List.mem (s, d) (Cdg.edge_support cdg c1 c2)) then
              Alcotest.fail "missing support";
            chk rest
          | _ -> ()
        in
        chk p;
        List.iter
          (fun c ->
            if not (List.mem (s, d) (Cdg.channel_users cdg c)) then
              Alcotest.fail "missing user")
          p;
        check (Alcotest.list ci) "path cached" p (Cdg.path_of cdg (s, d))
      end
    done
  done

let test_cdg_completeness () =
  (* every CDG edge is realized by at least one supporting path *)
  let rt = Dimension_order.hypercube (Builders.hypercube 3) in
  let cdg = Cdg.build rt in
  Topology.iter_channels
    (fun c1 ->
      List.iter
        (fun c2 ->
          match Cdg.edge_support cdg c1 c2 with
          | [] -> Alcotest.fail "edge without support"
          | (s, d) :: _ ->
            let p = Routing.path_exn rt s d in
            let rec consecutive = function
              | a :: (b :: _ as rest) -> (a = c1 && b = c2) || consecutive rest
              | _ -> false
            in
            check cb "support realizes edge" true (consecutive p))
        (Cdg.succ cdg c1))
    (Routing.topology rt)

(* ---- figure-1 analysis ---- *)

let fig1_cdg () =
  let net = Paper_nets.figure1 () in
  let rt = Cd_algorithm.of_net net in
  (net, Cdg.build rt)

let test_figure1_single_cycle () =
  let net, cdg = fig1_cdg () in
  let cycles = Cdg.elementary_cycles cdg in
  check ci "one cycle" 1 (List.length cycles);
  let cycle = List.hd cycles in
  check ci "length 8" 8 (List.length cycle);
  (* the cycle is exactly the highlighted ring *)
  let ring = Array.to_list net.ring_channels in
  check cb "same channels" true (List.sort compare cycle = List.sort compare ring)

let test_figure1_analysis () =
  let net, cdg = fig1_cdg () in
  let cycle = List.hd (Cdg.elementary_cycles cdg) in
  let analysis = fst (Cycle_analysis.classify cdg cycle) in
  check ci "four supporting messages" 4 (List.length analysis.Cycle_analysis.a_messages);
  List.iter
    (fun (cm : Cycle_analysis.cycle_message) ->
      check cb "contiguous" true cm.cm_contiguous)
    analysis.Cycle_analysis.a_messages;
  (* cs is the unique outside shared channel, used by all four *)
  (match analysis.Cycle_analysis.a_outside_shared with
  | [ sc ] ->
    check ci "cs" net.cs sc.Cycle_analysis.sc_channel;
    check ci "four sharers" 4 (List.length sc.Cycle_analysis.sc_users)
  | l -> Alcotest.failf "expected one outside shared channel, got %d" (List.length l));
  (* four sharers is beyond Theorem 5: the classifier defers to search *)
  match snd (Cycle_analysis.classify cdg cycle) with
  | Cycle_analysis.Needs_search _ -> ()
  | v -> Alcotest.failf "expected Needs_search, got %s" (Format.asprintf "%a" Cycle_analysis.pp_verdict v)

let test_figure2_classify_theorem4 () =
  let net = Paper_nets.figure2 () in
  let cdg = Cdg.build (Cd_algorithm.of_net net) in
  match Cdg.elementary_cycles cdg with
  | [ cycle ] -> (
    match snd (Cycle_analysis.classify cdg cycle) with
    | Cycle_analysis.Deadlock_reachable why ->
      check cb "mentions theorem 4" true (String.sub why 0 9 = "Theorem 4")
    | v -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Cycle_analysis.pp_verdict v))
  | l -> Alcotest.failf "expected one cycle, got %d" (List.length l)

let test_ring_classify_theorem2 () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let cdg = Cdg.build rt in
  match Cdg.elementary_cycles cdg with
  | [ cycle ] -> (
    match snd (Cycle_analysis.classify cdg cycle) with
    | Cycle_analysis.Deadlock_reachable why ->
      check cb "mentions theorem 2" true (String.sub why 0 9 = "Theorem 2")
    | v -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Cycle_analysis.pp_verdict v))
  | l -> Alcotest.failf "expected one cycle, got %d" (List.length l)

let test_suffix_closed_shortcut () =
  let rt = Ring_routing.clockwise (Builders.ring ~unidirectional:true 4) in
  let cdg = Cdg.build rt in
  let cycle = List.hd (Cdg.elementary_cycles cdg) in
  match snd (Cycle_analysis.classify ~suffix_closed:true cdg cycle) with
  | Cycle_analysis.Deadlock_reachable why ->
    check cb "mentions corollary 2" true (String.length why > 0 && String.sub why 0 11 = "Corollary 2")
  | v -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Cycle_analysis.pp_verdict v)

let figure3_verdict case =
  let net = Paper_nets.figure3 case in
  let cdg = Cdg.build (Cd_algorithm.of_net net) in
  match Cdg.elementary_cycles cdg with
  | [ cycle ] -> snd (Cycle_analysis.classify cdg cycle)
  | l -> Alcotest.failf "expected one cycle, got %d" (List.length l)

let test_figure3_classifications () =
  (match figure3_verdict `A with
  | Cycle_analysis.Unreachable _ -> ()
  | v -> Alcotest.failf "a: %s" (Format.asprintf "%a" Cycle_analysis.pp_verdict v));
  (match figure3_verdict `B with
  | Cycle_analysis.Unreachable _ -> ()
  | v -> Alcotest.failf "b: %s" (Format.asprintf "%a" Cycle_analysis.pp_verdict v));
  List.iter
    (fun (case, name) ->
      match figure3_verdict case with
      | Cycle_analysis.Deadlock_reachable _ -> ()
      | v -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Cycle_analysis.pp_verdict v))
    [ (`C, "c"); (`D, "d"); (`E, "e"); (`F, "f") ]

(* ---- theorem 5 unit tests on synthetic inputs ---- *)

let sharer label access entry span =
  { Theorem5.sh_label = label; sh_access = access; sh_entry = entry; sh_span = span }

let test_theorem5_pure_three () =
  (* max followed by min, distinct accesses, generous spans: unreachable *)
  let input =
    { Theorem5.cycle_len = 9;
      sharers = [ sharer "a" 2 0 5; sharer "b" 3 3 5; sharer "c" 4 6 5 ];
      others = [] }
  in
  let conds, unreachable = Theorem5.check input in
  check cb "unreachable" true unreachable;
  check ci "eight conditions" 8 (List.length conds)

let test_theorem5_decreasing_rotation () =
  (* accesses decreasing along the cyclic order: the serial construction
     works, so the cycle is reachable *)
  let input =
    { Theorem5.cycle_len = 9;
      sharers = [ sharer "a" 4 0 5; sharer "b" 3 3 5; sharer "c" 2 6 5 ];
      others = [] }
  in
  let _, unreachable = Theorem5.check input in
  check cb "reachable" false unreachable

let test_theorem5_equal_accesses () =
  (* ties forbid a strictly decreasing rotation: unreachable *)
  let input =
    { Theorem5.cycle_len = 9;
      sharers = [ sharer "a" 3 0 5; sharer "b" 3 3 5; sharer "c" 3 6 5 ];
      others = [] }
  in
  let conds, unreachable = Theorem5.check input in
  check cb "unreachable" true unreachable;
  (* but condition 3 (distinctness) itself is reported violated *)
  let c3 = List.find (fun (c : Theorem5.condition) -> c.c_index = 3) conds in
  check cb "cond3 violated" false c3.Theorem5.c_holds

let test_theorem5_parking () =
  (* a non-sharer immediately before Mmax with k(max) <= a(max):
     condition 4 is violated and the cycle is reachable *)
  let input =
    { Theorem5.cycle_len = 12;
      sharers = [ sharer "max" 4 2 3; sharer "min" 2 5 4; sharer "mid" 3 8 5 ];
      others = [ { Theorem5.ot_entry = 0; ot_span = 6; ot_uses_shared = false } ] }
  in
  let conds, unreachable = Theorem5.check input in
  let c4 = List.find (fun (c : Theorem5.condition) -> c.c_index = 4) conds in
  check cb "cond4 violated" false c4.Theorem5.c_holds;
  check cb "reachable" false unreachable

let test_theorem5_interposed_bridge () =
  (* a long non-sharer between min and mid violates condition 8 *)
  let input =
    { Theorem5.cycle_len = 12;
      sharers = [ sharer "max" 4 0 4; sharer "min" 2 3 3; sharer "mid" 3 8 5 ];
      others = [ { Theorem5.ot_entry = 5; ot_span = 4; ot_uses_shared = false } ] }
  in
  let conds, unreachable = Theorem5.check input in
  let c8 = List.find (fun (c : Theorem5.condition) -> c.c_index = 8) conds in
  check cb "cond8 violated" false c8.Theorem5.c_holds;
  check cb "reachable" false unreachable

let test_theorem5_wrong_arity () =
  Alcotest.check_raises "two sharers"
    (Invalid_argument "Theorem5.check: exactly three sharers required") (fun () ->
      ignore
        (Theorem5.check
           { Theorem5.cycle_len = 6; sharers = [ sharer "a" 2 0 3; sharer "b" 3 3 3 ];
             others = [] }))

let () =
  Alcotest.run "cdg"
    [
      ( "construction",
        [
          Alcotest.test_case "xy mesh acyclic + numbering" `Quick test_xy_mesh_acyclic;
          Alcotest.test_case "cyclic has no numbering" `Quick test_numbering_absent_when_cyclic;
          Alcotest.test_case "ring cycle enumeration" `Quick test_ring_cycle_enumeration;
          Alcotest.test_case "dateline ring acyclic" `Quick test_dateline_ring_acyclic;
          Alcotest.test_case "torus 20 ring cycles" `Quick test_torus_cycles;
          Alcotest.test_case "torus dateline acyclic" `Quick test_torus_dateline_acyclic;
          Alcotest.test_case "soundness (support/users)" `Quick test_edge_support_and_users;
          Alcotest.test_case "completeness" `Quick test_cdg_completeness;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "single 8-cycle" `Quick test_figure1_single_cycle;
          Alcotest.test_case "analysis" `Quick test_figure1_analysis;
        ] );
      ( "classification",
        [
          Alcotest.test_case "figure2 theorem 4" `Quick test_figure2_classify_theorem4;
          Alcotest.test_case "ring theorem 2" `Quick test_ring_classify_theorem2;
          Alcotest.test_case "suffix-closed corollary 2" `Quick test_suffix_closed_shortcut;
          Alcotest.test_case "figure3 verdicts" `Quick test_figure3_classifications;
        ] );
      ( "theorem5",
        [
          Alcotest.test_case "pure three sharers unreachable" `Quick test_theorem5_pure_three;
          Alcotest.test_case "decreasing rotation reachable" `Quick
            test_theorem5_decreasing_rotation;
          Alcotest.test_case "equal accesses unreachable" `Quick test_theorem5_equal_accesses;
          Alcotest.test_case "parking violates cond 4" `Quick test_theorem5_parking;
          Alcotest.test_case "interposed bridge violates cond 8" `Quick
            test_theorem5_interposed_bridge;
          Alcotest.test_case "wrong arity" `Quick test_theorem5_wrong_arity;
        ] );
    ]
