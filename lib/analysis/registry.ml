type algo =
  | Oblivious of Routing.t
  | Adaptive of Adaptive.t * Routing.t option

type entry = {
  r_name : string;
  r_algo : algo;
  r_declared_minimal : bool;
  r_expect_deadlock_free : bool;
  r_note : string;
}

let oblivious ?(minimal = false) ?(ddf = true) name rt note =
  { r_name = name; r_algo = Oblivious rt; r_declared_minimal = minimal;
    r_expect_deadlock_free = ddf; r_note = note }

let adaptive ?(ddf = true) name ad escape note =
  { r_name = name; r_algo = Adaptive (ad, escape); r_declared_minimal = false;
    r_expect_deadlock_free = ddf; r_note = note }

let entries () =
  let mesh = Builders.mesh [ 4; 4 ] in
  let mesh2 = Builders.mesh ~vcs:2 [ 4; 4 ] in
  let hc = Builders.hypercube 3 in
  let torus1 = Builders.torus [ 4; 4 ] in
  let torus2 = Builders.torus ~vcs:2 [ 4; 4 ] in
  let ring1 = Builders.ring ~unidirectional:true 4 in
  let ring2 = Builders.ring ~unidirectional:true ~vcs:2 6 in
  let paper_net ~ddf (net : Paper_nets.net) note =
    oblivious ~ddf ("cd-" ^ net.n_spec.s_name) (Cd_algorithm.of_net net) note
  in
  (* -- the paper's access-ring networks -- *)
  List.map
    (fun (f : Paper_nets.figure) -> paper_net ~ddf:(not f.f_deadlocks) f.f_net f.f_caption)
    (Paper_nets.figures ())
  @ [
    paper_net ~ddf:true (Paper_nets.family 2)
      "Section 6 family, k=2: deadlock-free with cyclic CDG";
    (* -- classic oblivious algorithms -- *)
    oblivious ~minimal:true "xy-mesh-4x4" (Dimension_order.mesh mesh)
      "dimension-order XY on the 4x4 mesh (minimal, acyclic CDG)";
    oblivious "west-first-4x4" (Turn_model.west_first mesh)
      "west-first turn model on the 4x4 mesh";
    oblivious "north-last-4x4" (Turn_model.north_last mesh)
      "north-last turn model on the 4x4 mesh";
    oblivious "negative-first-4x4" (Turn_model.negative_first mesh)
      "negative-first turn model on the 4x4 mesh";
    oblivious ~minimal:true "ecube-hypercube-3" (Dimension_order.hypercube hc)
      "e-cube on the 3-cube (minimal, acyclic CDG)";
    oblivious ~ddf:false "ecube-torus-4x4-novc" (Dimension_order.torus torus1)
      "e-cube on the 4x4 torus without virtual channels: wrap cycles deadlock";
    oblivious "ecube-torus-4x4-dateline" (Dimension_order.torus ~datelines:true torus2)
      "e-cube on the 4x4 torus with dateline VCs (Dally-Seitz)";
    oblivious ~ddf:false "ring-clockwise-4" (Ring_routing.clockwise ring1)
      "clockwise unidirectional ring: the canonical deadlocking cycle";
    oblivious "ring-dateline-6" (Ring_routing.dateline ring2)
      "unidirectional ring with dateline VCs";
    (* -- adaptive algorithms -- *)
    adaptive "duato-mesh-4x4" (Adaptive.duato_mesh mesh2)
      (Some (Adaptive.escape_of_duato_mesh mesh2))
      "Duato's protocol on the 4x4 mesh, VC1 escape layer";
    adaptive ~ddf:false "fully-adaptive-4x4"
      (Adaptive.fully_adaptive_minimal mesh)
      (Some (Dimension_order.mesh mesh))
      "fully adaptive minimal on the 4x4 mesh: no escape layer survives";
  ]

let names () = List.map (fun e -> e.r_name) (entries ())

let find name = List.find_opt (fun e -> e.r_name = name) (entries ())

let topology e =
  match e.r_algo with
  | Oblivious rt -> Routing.topology rt
  | Adaptive (ad, _) -> Adaptive.topology ad

(* Every stable diagnostic code the library can emit, in code order.  The
   registry-completeness test greps the sources for code literals and fails
   on drift in either direction, so additions land here in the same PR that
   introduces the code. *)
let diagnostic_codes : (string * Diagnostic.severity * string) list =
  [
    ("E001", Diagnostic.Error, "routing walk exceeds the livelock step cutoff");
    ("E002", Diagnostic.Error, "routing returns a channel that does not leave the current node");
    ("E003", Diagnostic.Error, "routing consumes at a node that is not the destination");
    ("E004", Diagnostic.Error, "routing keeps going after reaching the destination");
    ("E005", Diagnostic.Error, "adaptive function offers no output channel in a reachable state");
    ("W010", Diagnostic.Warning, "channel is never used by any routed pair");
    ("E011", Diagnostic.Error, "algorithm declared minimal but a pair takes a non-shortest path");
    ("W012", Diagnostic.Warning, "path set is not suffix-closed (Definition 8)");
    ("W013", Diagnostic.Warning, "path set is not prefix-closed (Definition 7)");
    ("W014", Diagnostic.Warning, "a routed path repeats a node");
    ("I020", Diagnostic.Info, "CDG cycle is a false resource cycle (Theorem 5)");
    ("W021", Diagnostic.Warning, "CDG cycle outside the Theorem 2-5 cases, needs dynamic search");
    ("E022", Diagnostic.Error, "reachable CDG cycle in an algorithm declared deadlock-free");
    ("I023", Diagnostic.Info, "reachable CDG cycle in a declared-deadlocking counterexample");
    ("E030", Diagnostic.Error, "Duato escape subfunction is not connected");
    ("E031", Diagnostic.Error, "extended CDG cycle breaks Duato coverage (declared deadlock-free)");
    ("I032", Diagnostic.Info, "extended CDG cycle in a declared-deadlocking adaptive algorithm");
    ("E040", Diagnostic.Error, "fault plan references a channel outside the topology");
    ("E041", Diagnostic.Error, "stall window opens after the channel permanently failed");
    ("W042", Diagnostic.Warning, "drop event references a message label no message carries");
    ("W043", Diagnostic.Warning, "the same channel fails permanently more than once");
    ("E044", Diagnostic.Error, "recovery reroute is built on a different topology");
    ("W044", Diagnostic.Warning, "adaptive algorithm with a reroute pins retried messages' routes");
    ("E045", Diagnostic.Error, "detection bound and backstop must be >= 1");
    ("W046", Diagnostic.Warning, "backstop at or under the detection bound makes detection dead code");
    ("E047", Diagnostic.Error, "store-and-forward buffer capacity below the longest message");
    ("W048", Diagnostic.Warning, "undersized virtual cut-through buffers are raised to whole-packet");
    ("E050", Diagnostic.Error, "Verify concludes the routing deadlocks");
    ("E051", Diagnostic.Error, "Verify: schedule search produced a replayable deadlock witness for a cycle");
    ("W052", Diagnostic.Warning, "Verify cannot conclude either way within its budget");
    ("I053", Diagnostic.Info, "Verify concludes the routing is deadlock-free");
    ("I054", Diagnostic.Info, "Verify: bounded-exhaustive search found no reachable deadlock on a cycle");
    ("E060", Diagnostic.Error, "network admits no deadlock-free oblivious routing");
    ("I061", Diagnostic.Info, "routing synthesized and certified (rank-increasing dependencies)");
    ("W062", Diagnostic.Warning, "synthesized routing restricts itself to a sub-network");
    ("E090", Diagnostic.Error, "search layer: deadlock witness failed to replay (engine nondeterminism)");
    ("E091", Diagnostic.Error, "search layer: reported deadlock has no wait-for cycle");
    ("E101", Diagnostic.Error, "sanitizer: flit conservation violated");
    ("E102", Diagnostic.Error, "sanitizer: buffer occupancy out of bounds");
    ("E103", Diagnostic.Error, "sanitizer: buffered flit outside the release-watermark-to-header window");
    ("E104", Diagnostic.Error, "sanitizer: wait-for bookkeeping inconsistent");
    ("E105", Diagnostic.Error, "sanitizer: recovery invariant broken (retries or watchdog bound)");
    ("E106", Diagnostic.Error, "sanitizer: wait-for edge inconsistent with message state");
  ]

let find_code c =
  List.find_opt (fun (code, _, _) -> code = c) diagnostic_codes

let lint e =
  match e.r_algo with
  | Oblivious rt ->
    Lint.algorithm ~declared_minimal:e.r_declared_minimal
      ~expect_deadlock_free:e.r_expect_deadlock_free rt
  | Adaptive (ad, escape) ->
    Lint.adaptive ~expect_deadlock_free:e.r_expect_deadlock_free ?escape ad
