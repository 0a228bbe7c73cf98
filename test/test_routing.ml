(* Unit tests for the routing layer: algorithms, path computation, property
   checkers and the table-backed compiler. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let holds = Properties.is_holds

(* ---- path walking and validation ---- *)

let test_validate_suite () =
  let validate name rt =
    match Routing.validate rt with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  validate "xy mesh" (Dimension_order.mesh (Builders.mesh [ 4; 4 ]));
  validate "xy mesh 3d" (Dimension_order.mesh (Builders.mesh [ 3; 3; 3 ]));
  validate "west-first" (Turn_model.west_first (Builders.mesh [ 5; 3 ]));
  validate "hypercube" (Dimension_order.hypercube (Builders.hypercube 4));
  validate "torus" (Dimension_order.torus (Builders.torus [ 4; 5 ]));
  validate "torus dateline" (Dimension_order.torus ~datelines:true (Builders.torus ~vcs:2 [ 4; 4 ]));
  validate "ring clockwise" (Ring_routing.clockwise (Builders.ring ~unidirectional:true 5));
  validate "ring dateline" (Ring_routing.dateline (Builders.ring ~unidirectional:true ~vcs:2 5));
  validate "cd figure1" (Cd_algorithm.of_net (Paper_nets.figure1 ()))

let test_xy_path_shape () =
  let m = Builders.mesh [ 4; 4 ] in
  let rt = Dimension_order.mesh m in
  let p = Routing.path_exn rt (m.node_at [| 0; 3 |]) (m.node_at [| 2; 0 |]) in
  check ci "manhattan hops" 5 (List.length p);
  (* dimension 0 is fully corrected before dimension 1 moves *)
  let dims_of_hop c =
    let a = m.coord (Topology.src m.topo c) and b = m.coord (Topology.dst m.topo c) in
    if a.(0) <> b.(0) then 0 else 1
  in
  let dims = List.map dims_of_hop p in
  check (Alcotest.list ci) "x then y" [ 0; 0; 1; 1; 1 ] dims

let test_west_first_shape () =
  let m = Builders.mesh [ 4; 4 ] in
  let rt = Turn_model.west_first m in
  (* destination is west: all west hops happen first *)
  let p = Routing.path_exn rt (m.node_at [| 3; 0 |]) (m.node_at [| 0; 3 |]) in
  let moves =
    List.map
      (fun c ->
        let a = m.coord (Topology.src m.topo c) and b = m.coord (Topology.dst m.topo c) in
        if b.(0) < a.(0) then `West else if b.(0) > a.(0) then `East else `Vert)
      p
  in
  let rec no_west_after_other seen_other = function
    | [] -> true
    | `West :: rest -> (not seen_other) && no_west_after_other false rest
    | _ :: rest -> no_west_after_other true rest
  in
  check cb "west hops first" true (no_west_after_other false moves);
  (* east destinations route vertical before east *)
  let p2 = Routing.path_exn rt (m.node_at [| 0; 0 |]) (m.node_at [| 2; 2 |]) in
  let moves2 =
    List.map
      (fun c ->
        let a = m.coord (Topology.src m.topo c) and b = m.coord (Topology.dst m.topo c) in
        if b.(0) > a.(0) then `East else `Vert)
      p2
  in
  check (Alcotest.list cb) "vertical then east"
    [ true; true; false; false ]
    (List.map (fun m -> m = `Vert) moves2)

let test_torus_shortest_direction () =
  let t = Builders.torus [ 5 ] in
  let rt = Dimension_order.torus t in
  (* 0 -> 4 is one hop backward through the wrap, not four forward *)
  check ci "wrap shortcut" 1 (List.length (Routing.path_exn rt 0 4));
  check ci "forward" 2 (List.length (Routing.path_exn rt 0 2));
  (* ties (distance k/2) go the positive way *)
  let t4 = Builders.torus [ 4 ] in
  let rt4 = Dimension_order.torus t4 in
  let p = Routing.path_exn rt4 0 2 in
  check ci "tie length" 2 (List.length p);
  check ci "tie first hop positive" 1 (Topology.dst t4.topo (List.hd p))

let test_torus_dateline_vcs () =
  let t = Builders.torus ~vcs:2 [ 5 ] in
  let rt = Dimension_order.torus ~datelines:true t in
  (* a path crossing the wrap switches to vc 1 at the wrap hop and stays *)
  let p = Routing.path_exn rt 3 0 in
  let vcs = List.map (Topology.vc t.topo) p in
  check (Alcotest.list ci) "vc pattern" [ 0; 1 ] vcs;
  (* a path not crossing the wrap stays on vc 0 *)
  let p2 = Routing.path_exn rt 1 3 in
  check (Alcotest.list ci) "vc0 only" [ 0; 0 ] (List.map (Topology.vc t.topo) p2)

let test_ring_routing () =
  let r = Builders.ring ~unidirectional:true 6 in
  let rt = Ring_routing.clockwise r in
  check ci "around" 5 (List.length (Routing.path_exn rt 0 5));
  let r2 = Builders.ring ~unidirectional:true ~vcs:2 6 in
  let rt2 = Ring_routing.dateline r2 in
  let p = Routing.path_exn rt2 4 1 in
  let vcs = List.map (Topology.vc r2.topo) p in
  check (Alcotest.list ci) "dateline vcs" [ 0; 1; 1 ] vcs

let test_north_last_shape () =
  let m = Builders.mesh [ 4; 4 ] in
  let rt = Turn_model.north_last m in
  (match Routing.validate rt with Ok () -> () | Error e -> Alcotest.fail e);
  (* a path needing north hops finishes with them *)
  let p = Routing.path_exn rt (m.node_at [| 0; 0 |]) (m.node_at [| 2; 3 |]) in
  let moves =
    List.map
      (fun c ->
        let a = m.coord (Topology.src m.topo c) and b = m.coord (Topology.dst m.topo c) in
        if b.(1) > a.(1) then `North else `Other)
      p
  in
  let rec only_north_after_first = function
    | [] -> true
    | `North :: rest -> List.for_all (fun x -> x = `North) rest && only_north_after_first []
    | `Other :: rest -> only_north_after_first rest
  in
  check cb "north hops last" true (only_north_after_first moves);
  check cb "acyclic CDG" true (Cdg.is_acyclic (Cdg.build rt));
  check cb "minimal" true (holds (Properties.minimal rt))

let test_negative_first_shape () =
  let m = Builders.mesh [ 4; 4 ] in
  let rt = Turn_model.negative_first m in
  (match Routing.validate rt with Ok () -> () | Error e -> Alcotest.fail e);
  (* every negative hop precedes every positive hop *)
  let p = Routing.path_exn rt (m.node_at [| 3; 0 |]) (m.node_at [| 1; 3 |]) in
  let signs =
    List.map
      (fun c ->
        let a = m.coord (Topology.src m.topo c) and b = m.coord (Topology.dst m.topo c) in
        if b.(0) < a.(0) || b.(1) < a.(1) then `Neg else `Pos)
      p
  in
  let rec no_neg_after_pos seen_pos = function
    | [] -> true
    | `Neg :: rest -> (not seen_pos) && no_neg_after_pos false rest
    | `Pos :: rest -> no_neg_after_pos true rest
  in
  check cb "negative first" true (no_neg_after_pos false signs);
  check cb "acyclic CDG" true (Cdg.is_acyclic (Cdg.build rt));
  check cb "coherent" true (holds (Properties.coherent rt))

(* ---- property checkers ---- *)

let test_xy_properties () =
  let rt = Dimension_order.mesh (Builders.mesh [ 4; 4 ]) in
  check cb "minimal" true (holds (Properties.minimal rt));
  check cb "coherent" true (holds (Properties.coherent rt));
  check cb "prefix" true (holds (Properties.prefix_closed rt));
  check cb "suffix" true (holds (Properties.suffix_closed rt));
  check cb "no repeats" true (holds (Properties.no_repeated_nodes rt))

let test_west_first_properties () =
  let rt = Turn_model.west_first (Builders.mesh [ 4; 4 ]) in
  check cb "minimal" true (holds (Properties.minimal rt));
  check cb "coherent" true (holds (Properties.coherent rt))

let test_torus_properties () =
  let rt = Dimension_order.torus (Builders.torus [ 5; 5 ]) in
  check cb "minimal" true (holds (Properties.minimal rt));
  check cb "suffix-closed" true (holds (Properties.suffix_closed rt))

let test_cd_properties () =
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  (* the paper's example is necessarily nonminimal, non-prefix-closed,
     non-suffix-closed and incoherent -- otherwise Corollaries 2-3 or
     Theorem 3 would forbid its false resource cycle *)
  check cb "not minimal" false (holds (Properties.minimal rt));
  check cb "not prefix" false (holds (Properties.prefix_closed rt));
  check cb "not suffix" false (holds (Properties.suffix_closed rt));
  check cb "not coherent" false (holds (Properties.coherent rt));
  check cb "no repeated nodes" true (holds (Properties.no_repeated_nodes rt))

let test_property_witness_strings () =
  let rt = Cd_algorithm.of_net (Paper_nets.figure1 ()) in
  match Properties.minimal rt with
  | Properties.Holds -> Alcotest.fail "expected failure with witness"
  | Properties.Fails w -> check cb "witness mentions hops" true (String.length w > 10)

(* ---- table-backed routing ---- *)

let tiny_topo () =
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let c = Topology.add_node t "c" in
  let ab = Topology.add_channel t a b in
  let bc = Topology.add_channel t b c in
  let ba = Topology.add_channel t b a in
  let cb_ = Topology.add_channel t c b in
  (t, a, b, c, ab, bc, ba, cb_)

let test_table_routing_of_paths () =
  let t, a, _, c, ab, bc, ba, cb_ = tiny_topo () in
  let default input dest =
    let here = Routing.current_node t input in
    if here = dest then None
    else
      (* direct channel if present, otherwise via the middle node b *)
      match
        Topology.out_channels t here
        |> List.find_opt (fun ch -> Topology.dst t ch = dest)
      with
      | Some ch -> Some ch
      | None ->
        Topology.out_channels t here
        |> List.find_opt (fun ch -> Topology.dst t ch <> dest)
  in
  let rt = Table_routing.of_paths ~name:"tiny" ~default t [ (a, c, [ ab; bc ]) ] in
  check (Alcotest.list ci) "explicit path" [ ab; bc ] (Routing.path_exn rt a c);
  check (Alcotest.list ci) "default path" [ cb_; ba ] (Routing.path_exn rt c a)

let test_table_routing_conflict () =
  let t, a, _, c, ab, bc, _, _ = tiny_topo () in
  Alcotest.check_raises "disconnected chain"
    (Invalid_argument "Table_routing: path is not a connected channel chain") (fun () ->
      ignore (Table_routing.of_paths ~name:"bad" ~default:(fun _ _ -> None) t [ (a, c, [ bc ]) ]));
  Alcotest.check_raises "wrong end"
    (Invalid_argument "Table_routing: path does not end at its destination") (fun () ->
      ignore (Table_routing.of_paths ~name:"bad" ~default:(fun _ _ -> None) t [ (a, c, [ ab ]) ]))

let test_routing_error_reporting () =
  (* a routing function that ping-pongs forever must be diagnosed *)
  let t, a, _, c, ab, _, ba, _ = tiny_topo () in
  let rt =
    Routing.create ~name:"pingpong" t (fun input _ ->
        match input with
        | Routing.Inject _ -> Some ab
        | Routing.From ch -> if ch = ab then Some ba else Some ab)
  in
  (match Routing.path rt a c with
  | Error { Routing.e_kind = Routing.Livelock _; _ } as r -> (
    match r with
    | Error e -> check cb "mentions livelock" true (String.length (Routing.error_message e) > 0)
    | Ok _ -> ())
  | Error e -> Alcotest.fail ("wrong error kind: " ^ Routing.error_message e)
  | Ok _ -> Alcotest.fail "expected livelock detection");
  (* consuming at the wrong node must be diagnosed, with the typed kind *)
  let rt2 = Routing.create ~name:"early" t (fun _ _ -> None) in
  (match Routing.path rt2 a c with
  | Error { Routing.e_kind = Routing.Consumed_early { at }; _ } ->
    check ci "consumed at source" a at
  | Error e -> Alcotest.fail ("wrong error kind: " ^ Routing.error_message e)
  | Ok _ -> Alcotest.fail "expected consumption error");
  (* path_exn raises the typed exception *)
  match Routing.path_exn rt2 a c with
  | exception Routing.Route_error e ->
    check cb "exception carries source" true (e.Routing.e_src = a && e.Routing.e_dst = c)
  | _ -> Alcotest.fail "expected Route_error"

(* The table holds exactly what [path] returns for every pair, errors
   included, on a routing that delivers everywhere and on one whose walks
   consume early or misroute. *)
let test_paths_table () =
  let m = Builders.mesh [ 3; 3 ] in
  let xy = Dimension_order.mesh m in
  let topo = m.Builders.topo in
  let broken =
    Routing.create ~name:"broken" topo (fun input dest ->
        let here = Routing.current_node topo input in
        match (input, dest mod 3) with
        | _ when here = dest -> None
        | Routing.Inject _, 0 -> None (* consumed at the source *)
        | Routing.From c, 1 -> Some c (* a channel that does not leave [here] *)
        | _ -> Routing.next xy input dest)
  in
  let n = Topology.num_nodes topo in
  let kinds = ref [] in
  List.iter
    (fun rt ->
      let paths = Routing.paths rt in
      check cb "table routing" true (Routing.paths_routing paths == rt);
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          let row = Result.map Array.to_list (Routing.path_row paths s d) in
          if row <> Routing.path rt s d then
            Alcotest.failf "%s: row %d->%d differs from path" (Routing.name rt) s d;
          match row with
          | Error e -> kinds := e.Routing.e_kind :: !kinds
          | Ok _ -> ()
        done
      done)
    [ xy; broken ];
  let has f = List.exists f !kinds in
  check cb "consumed early" true (has (function Routing.Consumed_early _ -> true | _ -> false));
  check cb "not leaving" true (has (function Routing.Not_leaving _ -> true | _ -> false))

let test_pp_path () =
  let m = Builders.mesh [ 2; 2 ] in
  let rt = Dimension_order.mesh m in
  let p = Routing.path_exn rt (m.node_at [| 0; 0 |]) (m.node_at [| 1; 1 |]) in
  let s = Format.asprintf "%a" (Routing.pp_path rt) p in
  check cb "renders" true (String.length s > 10)

let () =
  Alcotest.run "routing"
    [
      ( "algorithms",
        [
          Alcotest.test_case "validate suite" `Quick test_validate_suite;
          Alcotest.test_case "xy path shape" `Quick test_xy_path_shape;
          Alcotest.test_case "west-first shape" `Quick test_west_first_shape;
          Alcotest.test_case "north-last shape" `Quick test_north_last_shape;
          Alcotest.test_case "negative-first shape" `Quick test_negative_first_shape;
          Alcotest.test_case "torus shortest direction" `Quick test_torus_shortest_direction;
          Alcotest.test_case "torus dateline vcs" `Quick test_torus_dateline_vcs;
          Alcotest.test_case "ring routing" `Quick test_ring_routing;
        ] );
      ( "properties",
        [
          Alcotest.test_case "xy coherent+minimal" `Quick test_xy_properties;
          Alcotest.test_case "west-first coherent" `Quick test_west_first_properties;
          Alcotest.test_case "torus suffix-closed" `Quick test_torus_properties;
          Alcotest.test_case "cd algorithm incoherent" `Quick test_cd_properties;
          Alcotest.test_case "failure witnesses" `Quick test_property_witness_strings;
        ] );
      ( "table_routing",
        [
          Alcotest.test_case "of_paths + default" `Quick test_table_routing_of_paths;
          Alcotest.test_case "malformed paths rejected" `Quick test_table_routing_conflict;
        ] );
      ( "walking",
        [
          Alcotest.test_case "error reporting" `Quick test_routing_error_reporting;
          Alcotest.test_case "paths table rows" `Quick test_paths_table;
          Alcotest.test_case "pp_path" `Quick test_pp_path;
        ] );
    ]
