(* Existence checker and synthesis for deadlock-free oblivious routing.

   Everything here works on *corners*: channel transitions (e, f) with
   dst e = src f, the edges of the channel line graph.  A set of corners
   "connects" the network when every ordered node pair (u, v) has a walk
   u -> ... -> v whose consecutive channel transitions all lie in the set
   (injection at u and consumption at v are free, so a single-channel path
   needs no corner at all).  An *acyclic connector* -- a connecting corner
   set whose channel digraph is acyclic -- is exactly what a deadlock-free
   synthesis needs: rank the channels in topological order and route along
   strictly rank-increasing paths; the walk terminates (ranks increase) and
   every realized dependency increases the rank, so the CDG is acyclic and
   the rank array is its Dally-Seitz numbering.  See synth.mli for the
   soundness discussion of the converse direction. *)

type plan = {
  p_order : int array;
  p_strategy : string;
  p_dependencies : int;
  p_unused : Topology.channel list;
}

type witness =
  | Not_strongly_connected of { w_src : Topology.node; w_dst : Topology.node }
  | Forced_corner_cycle of {
      w_cycle : Topology.channel list;
      w_pairs : (Topology.node * Topology.node) list;
    }
  | No_acyclic_connector of { w_corners : int; w_explored : int; w_complete : bool }

type verdict = Exists of plan | Impossible of witness

(* ---- corner context -------------------------------------------------- *)

type ctx = {
  topo : Topology.t;
  n : int;
  m : int;
  out : Topology.channel array array;  (* per node, insertion order *)
  ch_src : int array;
  ch_dst : int array;
  ch_vc : int array;
  succs : int array array;  (* channel -> outgoing corner ids, adjacency order *)
  corner_from : int array;  (* corner id -> predecessor channel *)
  corner_to : int array;  (* corner id -> successor channel *)
  ncorners : int;
}

let build_ctx topo =
  let n = Topology.num_nodes topo and m = Topology.num_channels topo in
  let out = Array.init n (fun v -> Array.of_list (Topology.out_channels topo v)) in
  let ch_src = Array.init m (Topology.src topo) in
  let ch_dst = Array.init m (Topology.dst topo) in
  let ch_vc = Array.init m (Topology.vc topo) in
  let total = ref 0 in
  for e = 0 to m - 1 do
    total := !total + Array.length out.(ch_dst.(e))
  done;
  let corner_from = Array.make (max 1 !total) 0 in
  let corner_to = Array.make (max 1 !total) 0 in
  let succs = Array.make (max 1 m) [||] in
  let next_id = ref 0 in
  for e = 0 to m - 1 do
    let nbrs = out.(ch_dst.(e)) in
    let ids = Array.make (Array.length nbrs) 0 in
    for i = 0 to Array.length nbrs - 1 do
      let id = !next_id in
      incr next_id;
      corner_from.(id) <- e;
      corner_to.(id) <- nbrs.(i);
      ids.(i) <- id
    done;
    succs.(e) <- ids
  done;
  { topo; n; m; out; ch_src; ch_dst; ch_vc; succs; corner_from; corner_to;
    ncorners = !total }

(* ---- corner-walk reachability ---------------------------------------- *)

exception Pair of int * int

(* First ordered pair (u, v) with no corner walk u -> v using only corners
   satisfying [allowed], or [None] when everything connects.  One channel-
   state BFS per source; stamps avoid reallocation across sources. *)
let first_disconnected ctx allowed =
  if ctx.n <= 1 then None
  else begin
    let seen_ch = Array.make (max 1 ctx.m) (-1) in
    let seen_node = Array.make ctx.n (-1) in
    let queue = Array.make (max 1 ctx.m) 0 in
    try
      for u = 0 to ctx.n - 1 do
        let head = ref 0 and tail = ref 0 in
        let count = ref 1 in
        seen_node.(u) <- u;
        let visit e =
          if seen_ch.(e) <> u then begin
            seen_ch.(e) <- u;
            queue.(!tail) <- e;
            incr tail;
            let d = ctx.ch_dst.(e) in
            if seen_node.(d) <> u then begin
              seen_node.(d) <- u;
              incr count
            end
          end
        in
        Array.iter visit ctx.out.(u);
        while !head < !tail do
          let e = queue.(!head) in
          incr head;
          Array.iter
            (fun cid -> if allowed cid then visit ctx.corner_to.(cid))
            ctx.succs.(e)
        done;
        if !count < ctx.n then begin
          let v = ref (-1) in
          for x = ctx.n - 1 downto 0 do
            if seen_node.(x) <> u then v := x
          done;
          raise (Pair (u, !v))
        end
      done;
      None
    with Pair (u, v) -> Some (u, v)
  end

(* Single-source variant for witness checking. *)
let reaches ctx allowed u v =
  let seen_ch = Array.make (max 1 ctx.m) false in
  let seen_node = Array.make ctx.n false in
  let queue = Array.make (max 1 ctx.m) 0 in
  let head = ref 0 and tail = ref 0 in
  seen_node.(u) <- true;
  let visit e =
    if not seen_ch.(e) then begin
      seen_ch.(e) <- true;
      queue.(!tail) <- e;
      incr tail;
      seen_node.(ctx.ch_dst.(e)) <- true
    end
  in
  Array.iter visit ctx.out.(u);
  while !head < !tail do
    let e = queue.(!head) in
    incr head;
    Array.iter (fun cid -> if allowed cid then visit ctx.corner_to.(cid)) ctx.succs.(e)
  done;
  seen_node.(v)

(* ---- rank-increasing connectivity ------------------------------------ *)

let by_rank_desc rank m =
  let chs = Array.init m (fun i -> i) in
  Array.sort (fun a b -> compare rank.(b) rank.(a)) chs;
  chs

(* cost.(e) <- from the state "just traversed e", the fewest further
   channels needed to reach v along strictly rank-increasing channels
   ([max_int] when unreachable).  One pass in descending rank order:
   every higher-ranked successor is already settled. *)
let fill_cost ctx rank desc v cost =
  Array.fill cost 0 ctx.m max_int;
  Array.iter
    (fun e ->
      if ctx.ch_dst.(e) = v then cost.(e) <- 0
      else
        Array.iter
          (fun cid ->
            let f = ctx.corner_to.(cid) in
            if rank.(f) > rank.(e) && cost.(f) <> max_int && cost.(f) + 1 < cost.(e)
            then cost.(e) <- cost.(f) + 1)
          ctx.succs.(e))
    desc

(* Does routing along strictly increasing ranks deliver every pair? *)
let order_connects ctx rank =
  let desc = by_rank_desc rank ctx.m in
  let cost = Array.make (max 1 ctx.m) max_int in
  try
    for v = 0 to ctx.n - 1 do
      fill_cost ctx rank desc v cost;
      for u = 0 to ctx.n - 1 do
        if u <> v && not (Array.exists (fun e -> cost.(e) <> max_int) ctx.out.(u)) then
          raise Exit
      done
    done;
    true
  with Exit -> false

(* ---- heuristic channel orders ---------------------------------------- *)

(* BFS hop distances from [root], following channels forward or (with
   [rev]) backward.  Strong connectivity is established before these run,
   but unreachable nodes are capped defensively. *)
let bfs_dist ctx ~rev root =
  let dist = Array.make ctx.n max_int in
  let queue = Array.make ctx.n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(root) <- 0;
  queue.(!tail) <- root;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let step e =
      let v = if rev then ctx.ch_src.(e) else ctx.ch_dst.(e) in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    in
    if rev then List.iter step (Topology.in_channels ctx.topo u)
    else Array.iter step ctx.out.(u)
  done;
  dist

(* Distinct per-node keys from hop distances: distance-major, id-minor. *)
let composite_key ctx dist =
  Array.init ctx.n (fun v ->
      let d = if dist.(v) = max_int then ctx.n else dist.(v) in
      (d * ctx.n) + v)

(* Valley order from a node key: "up" channels (toward smaller keys) first,
   ranked by destination key descending, then "down" channels ranked by
   destination key ascending.  Ascent keys strictly decrease and descent
   keys strictly increase along any valley path, so every path of ups
   followed by downs is rank-increasing: the familiar up/down routing
   discipline expressed as a channel order. *)
let valley_rank ctx key =
  let ups = ref [] and downs = ref [] in
  for e = ctx.m - 1 downto 0 do
    if key.(ctx.ch_dst.(e)) < key.(ctx.ch_src.(e)) then ups := e :: !ups
    else downs := e :: !downs
  done;
  let cmp_up a b =
    let c = compare key.(ctx.ch_dst.(b)) key.(ctx.ch_dst.(a)) in
    if c <> 0 then c else compare a b
  in
  let cmp_down a b =
    let c = compare key.(ctx.ch_dst.(a)) key.(ctx.ch_dst.(b)) in
    if c <> 0 then c else compare a b
  in
  let ups = List.sort cmp_up !ups and downs = List.sort cmp_down !downs in
  let rank = Array.make (max 1 ctx.m) 0 in
  List.iteri (fun i e -> rank.(e) <- i) ups;
  let offset = List.length ups in
  List.iteri (fun i e -> rank.(e) <- offset + i) downs;
  rank

(* VC-layered dateline order: VC-major; within VC 0 channels follow the
   source's distance from the root, within higher VCs the destination's.
   On a unidirectional multi-VC ring this is exactly the Dally-Seitz
   dateline discipline (cross the wrap by climbing one VC layer). *)
let dateline_rank ctx dist =
  let cap d = if d = max_int then ctx.n else d in
  let keyof e =
    let d =
      if ctx.ch_vc.(e) = 0 then cap dist.(ctx.ch_src.(e)) else cap dist.(ctx.ch_dst.(e))
    in
    (ctx.ch_vc.(e), d, e)
  in
  let chs = Array.init ctx.m (fun i -> i) in
  Array.sort (fun a b -> compare (keyof a) (keyof b)) chs;
  let rank = Array.make (max 1 ctx.m) 0 in
  Array.iteri (fun i e -> rank.(e) <- i) chs;
  rank

let candidates ctx =
  let deg = Array.make ctx.n 0 in
  for e = 0 to ctx.m - 1 do
    deg.(ctx.ch_src.(e)) <- deg.(ctx.ch_src.(e)) + 1;
    deg.(ctx.ch_dst.(e)) <- deg.(ctx.ch_dst.(e)) + 1
  done;
  let hub = ref 0 in
  for v = 1 to ctx.n - 1 do
    if deg.(v) > deg.(!hub) then hub := v
  done;
  let roots =
    List.sort_uniq compare [ !hub; 0; ctx.n - 1; ctx.n / 2 ]
  in
  let multi_vc = Array.exists (fun v -> v > 0) ctx.ch_vc in
  let name v = Topology.node_name ctx.topo v in
  let per_root r =
    let fwd = bfs_dist ctx ~rev:false r in
    let bwd = bfs_dist ctx ~rev:true r in
    [
      (Printf.sprintf "valley(from %s)" (name r),
       valley_rank ctx (composite_key ctx fwd));
      (Printf.sprintf "valley(to %s)" (name r),
       valley_rank ctx (composite_key ctx bwd));
    ]
    @
    if multi_vc then
      [ (Printf.sprintf "vc-dateline(from %s)" (name r), dateline_rank ctx fwd) ]
    else []
  in
  List.concat_map per_root roots
  @ [
      ("valley(node-id)", valley_rank ctx (Array.init ctx.n (fun v -> v)));
      ("valley(rev-node-id)", valley_rank ctx (Array.init ctx.n (fun v -> ctx.n - 1 - v)));
    ]

(* ---- forced corners and the impossibility cycle ---------------------- *)

(* A corner is *forced* when forbidding it alone disconnects some pair:
   every connecting corner set must then contain it.  A channel cycle whose
   transitions are all forced is therefore contained in every connector,
   so no connector is acyclic -- a complete impossibility proof. *)
let forced_corners ctx =
  let forced = Hashtbl.create 16 in
  for cid = 0 to ctx.ncorners - 1 do
    match first_disconnected ctx (fun c -> c <> cid) with
    | Some pair -> Hashtbl.replace forced cid pair
    | None -> ()
  done;
  forced

(* Any cycle in the channel digraph whose edge set is [corner id list array]
   (indexed by source channel): returns the channel cycle plus the corner
   ids between consecutive channels (last corner closes the cycle). *)
let find_channel_cycle ctx adj =
  let color = Array.make (max 1 ctx.m) 0 in
  let parent = Array.make (max 1 ctx.m) (-1) in
  let result = ref None in
  let rec dfs e =
    color.(e) <- 1;
    List.iter
      (fun cid ->
        if !result = None then begin
          let f = ctx.corner_to.(cid) in
          if color.(f) = 1 then begin
            (* back edge: walk the DFS stack from e up to f *)
            let chans = ref [ e ] and corners = ref [ cid ] in
            let cur = ref e in
            while !cur <> f do
              let pc = parent.(!cur) in
              corners := pc :: !corners;
              cur := ctx.corner_from.(pc);
              chans := !cur :: !chans
            done;
            result := Some (!chans, !corners)
          end
          else if color.(f) = 0 then begin
            parent.(f) <- cid;
            dfs f
          end
        end)
      adj.(e);
    if !result = None then color.(e) <- 2
  in
  (try
     for e = 0 to ctx.m - 1 do
       if color.(e) = 0 && !result = None then dfs e
     done
   with Stack_overflow -> ());
  !result

let forced_cycle ctx forced =
  let adj = Array.make (max 1 ctx.m) [] in
  for cid = ctx.ncorners - 1 downto 0 do
    if Hashtbl.mem forced cid then
      adj.(ctx.corner_from.(cid)) <- cid :: adj.(ctx.corner_from.(cid))
  done;
  match find_channel_cycle ctx adj with
  | None -> None
  | Some (chans, corners) ->
    Some (chans, List.map (fun cid -> Hashtbl.find forced cid) corners)

(* ---- exact corner-removal search ------------------------------------- *)

exception Budget_exhausted

(* Complete search for an acyclic connector: keep the full corner set, and
   while its channel digraph has a cycle, branch on which corner of that
   cycle to exclude (every acyclic connector excludes at least one).
   Branches whose remaining corners no longer connect are pruned -- no
   subset of a non-connecting set connects.  Success returns a topological
   rank of the remaining (acyclic, connecting) corner set. *)
let exact_search ctx budget =
  let alive = Array.make (max 1 ctx.ncorners) true in
  let explored = ref 0 in
  let toposort () =
    let indeg = Array.make (max 1 ctx.m) 0 in
    for cid = 0 to ctx.ncorners - 1 do
      if alive.(cid) then indeg.(ctx.corner_to.(cid)) <- indeg.(ctx.corner_to.(cid)) + 1
    done;
    let rank = Array.make (max 1 ctx.m) 0 in
    let ready = ref [] in
    for e = ctx.m - 1 downto 0 do
      if indeg.(e) = 0 then ready := e :: !ready
    done;
    let next = ref 0 in
    while !ready <> [] do
      match !ready with
      | [] -> ()
      | e :: rest ->
        ready := rest;
        rank.(e) <- !next;
        incr next;
        (* release successors; keep the ready list sorted for determinism *)
        let freed = ref [] in
        Array.iter
          (fun cid ->
            if alive.(cid) then begin
              let f = ctx.corner_to.(cid) in
              indeg.(f) <- indeg.(f) - 1;
              if indeg.(f) = 0 then freed := f :: !freed
            end)
          ctx.succs.(e);
        ready := List.merge compare !ready (List.sort compare !freed)
    done;
    rank
  in
  let adj = Array.make (max 1 ctx.m) [] in
  let rebuild_adj () =
    for e = 0 to ctx.m - 1 do
      adj.(e) <- []
    done;
    for cid = ctx.ncorners - 1 downto 0 do
      if alive.(cid) then adj.(ctx.corner_from.(cid)) <- cid :: adj.(ctx.corner_from.(cid))
    done
  in
  let rec go () =
    incr explored;
    if !explored > budget then raise Budget_exhausted;
    match first_disconnected ctx (fun c -> alive.(c)) with
    | Some _ -> None
    | None -> (
      rebuild_adj ();
      match find_channel_cycle ctx adj with
      | None -> Some (toposort ())
      | Some (_, corners) ->
        let rec branch = function
          | [] -> None
          | cid :: rest -> (
            alive.(cid) <- false;
            match go () with
            | Some r -> Some r
            | None ->
              alive.(cid) <- true;
              branch rest)
        in
        branch corners)
  in
  match go () with
  | Some rank -> `Found rank
  | None -> `None_complete !explored
  | exception Budget_exhausted -> `Exhausted !explored

(* ---- the checker ----------------------------------------------------- *)

let default_budget = 200_000

let check ?(budget = default_budget) topo =
  let ctx = build_ctx topo in
  if ctx.n <= 1 then
    Exists
      {
        p_order = Array.init ctx.m (fun i -> i);
        p_strategy = "trivial";
        p_dependencies = 0;
        p_unused = [];
      }
  else
    match first_disconnected ctx (fun _ -> true) with
    | Some (u, v) -> Impossible (Not_strongly_connected { w_src = u; w_dst = v })
    | None -> (
      let rec try_candidates = function
        | [] -> None
        | (tag, rank) :: rest ->
          if order_connects ctx rank then Some (tag, rank) else try_candidates rest
      in
      match try_candidates (candidates ctx) with
      | Some (tag, rank) ->
        Exists { p_order = rank; p_strategy = tag; p_dependencies = 0; p_unused = [] }
      | None -> (
        let forced = forced_corners ctx in
        match forced_cycle ctx forced with
        | Some (chans, pairs) ->
          Impossible (Forced_corner_cycle { w_cycle = chans; w_pairs = pairs })
        | None -> (
          match exact_search ctx budget with
          | `Found rank ->
            Exists
              {
                p_order = rank;
                p_strategy = "corner-search";
                p_dependencies = 0;
                p_unused = [];
              }
          | `None_complete k ->
            Impossible
              (No_acyclic_connector
                 { w_corners = ctx.ncorners; w_explored = k; w_complete = true })
          | `Exhausted k ->
            Impossible
              (No_acyclic_connector
                 { w_corners = ctx.ncorners; w_explored = k; w_complete = false }))))

(* ---- synthesis ------------------------------------------------------- *)

let routing ?(name = "synth") topo plan =
  let ctx = build_ctx topo in
  let rank = plan.p_order in
  if Array.length rank <> ctx.m then
    invalid_arg "Synth.routing: plan order length does not match the topology";
  let desc = by_rank_desc rank ctx.m in
  let cost = Array.make (max 1 ctx.m) max_int in
  let next_from = Array.make (max 1 (ctx.n * ctx.m)) (-1) in
  let next_inject = Array.make (max 1 (ctx.n * ctx.n)) (-1) in
  (* pick the usable channel with the fewest remaining hops, breaking ties
     toward the lowest rank -- minimal within the rank discipline *)
  let better e best =
    best = -1
    || cost.(e) < cost.(best)
    || (cost.(e) = cost.(best) && rank.(e) < rank.(best))
  in
  for v = 0 to ctx.n - 1 do
    fill_cost ctx rank desc v cost;
    for u = 0 to ctx.n - 1 do
      if u <> v then begin
        let best = ref (-1) in
        Array.iter
          (fun e -> if cost.(e) <> max_int && better e !best then best := e)
          ctx.out.(u);
        next_inject.((v * ctx.n) + u) <- !best
      end
    done;
    for e = 0 to ctx.m - 1 do
      if ctx.ch_dst.(e) <> v then begin
        let best = ref (-1) in
        Array.iter
          (fun cid ->
            let f = ctx.corner_to.(cid) in
            if rank.(f) > rank.(e) && cost.(f) <> max_int && better f !best then
              best := f)
          ctx.succs.(e);
        next_from.((v * ctx.m) + e) <- !best
      end
    done
  done;
  Routing.create ~name topo (fun input dest ->
      let here = Routing.current_node topo input in
      if here = dest then None
      else
        let nx =
          match input with
          | Routing.Inject u -> next_inject.((dest * ctx.n) + u)
          | Routing.From e -> next_from.((dest * ctx.m) + e)
        in
        if nx < 0 then None else Some nx)

let synthesize ?budget ?(name = "synth") topo =
  match check ?budget topo with
  | Impossible w -> Error w
  | Exists plan ->
    let rt = routing ~name topo plan in
    let paths = Routing.paths rt in
    let n = Topology.num_nodes topo in
    let rows f =
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          f d (Routing.path_row paths s d)
        done
      done
    in
    rows (fun _ -> function
      | Ok _ -> ()
      | Error e ->
        failwith
          ("Synth.synthesize: constructed routing failed validation: " ^ Routing.error_message e));
    let m = Topology.num_channels topo in
    let used = Array.make (max 1 m) false in
    (* each distinct (input channel, destination) decision counts once *)
    let decided = Bitset.create (max 1 (m * n)) in
    let deps = ref 0 in
    rows (fun d -> function
      | Error _ -> ()
      | Ok p ->
        Array.iteri
          (fun i ch ->
            used.(ch) <- true;
            if i > 0 && not (Bitset.mem decided ((p.(i - 1) * n) + d)) then begin
              Bitset.unsafe_add decided ((p.(i - 1) * n) + d);
              incr deps;
              if plan.p_order.(ch) <= plan.p_order.(p.(i - 1)) then
                failwith "Synth.synthesize: a realized dependency does not increase the rank"
            end)
          p);
    let unused = List.filter (fun e -> not used.(e)) (Topology.channels topo) in
    Ok (rt, { plan with p_dependencies = !deps; p_unused = unused })

(* ---- witnesses ------------------------------------------------------- *)

let check_witness topo w =
  let ctx = build_ctx topo in
  match w with
  | Not_strongly_connected { w_src; w_dst } ->
    w_src >= 0 && w_src < ctx.n && w_dst >= 0 && w_dst < ctx.n
    && not (reaches ctx (fun _ -> true) w_src w_dst)
  | Forced_corner_cycle { w_cycle; w_pairs } ->
    let k = List.length w_cycle in
    k >= 1
    && List.length w_pairs = k
    && List.for_all (fun c -> c >= 0 && c < ctx.m) w_cycle
    &&
    let cyc = Array.of_list w_cycle in
    let pairs = Array.of_list w_pairs in
    let ok = ref true in
    for i = 0 to k - 1 do
      let e = cyc.(i) and f = cyc.((i + 1) mod k) in
      (* the corner closes the chain... *)
      if ctx.ch_dst.(e) <> ctx.ch_src.(f) then ok := false
      else begin
        (* ...and forbidding it alone really disconnects the recorded pair *)
        let u, v = pairs.(i) in
        let allowed cid =
          not (ctx.corner_from.(cid) = e && ctx.corner_to.(cid) = f)
        in
        if reaches ctx allowed u v then ok := false
      end
    done;
    !ok
  | No_acyclic_connector { w_complete; _ } -> w_complete

let pp_witness topo ppf = function
  | Not_strongly_connected { w_src; w_dst } ->
    Format.fprintf ppf "not strongly connected: no walk %s -> %s"
      (Topology.node_name topo w_src) (Topology.node_name topo w_dst)
  | Forced_corner_cycle { w_cycle; w_pairs } ->
    Format.fprintf ppf "forced corner cycle (%d channels): %s; forcing pairs: %s"
      (List.length w_cycle)
      (String.concat " -> " (List.map (Topology.channel_name topo) w_cycle))
      (String.concat ", "
         (List.map
            (fun (u, v) ->
              Printf.sprintf "%s->%s" (Topology.node_name topo u)
                (Topology.node_name topo v))
            w_pairs))
  | No_acyclic_connector { w_corners; w_explored; w_complete } ->
    Format.fprintf ppf
      "no acyclic connector among %d corners (%s search, %d nodes explored)" w_corners
      (if w_complete then "complete" else "budget-bounded")
      w_explored

let witness_context topo = function
  | Not_strongly_connected { w_src; w_dst } ->
    [
      ("witness", "not-strongly-connected");
      ( "pair",
        Printf.sprintf "%s->%s" (Topology.node_name topo w_src)
          (Topology.node_name topo w_dst) );
    ]
  | Forced_corner_cycle { w_cycle; w_pairs } ->
    [
      ("witness", "forced-corner-cycle");
      ("cycle", String.concat " -> " (List.map (Topology.channel_name topo) w_cycle));
      ( "forcing_pairs",
        String.concat ", "
          (List.map
             (fun (u, v) ->
               Printf.sprintf "%s->%s" (Topology.node_name topo u)
                 (Topology.node_name topo v))
             w_pairs) );
    ]
  | No_acyclic_connector { w_corners; w_explored; w_complete } ->
    [
      ("witness", "no-acyclic-connector");
      ("corners", string_of_int w_corners);
      ("search_nodes", string_of_int w_explored);
      ("complete", string_of_bool w_complete);
    ]

(* ---- diagnostics ------------------------------------------------------ *)

let diagnostics ?(name = "synth") topo result =
  match result with
  | Error w ->
    let summary = Format.asprintf "%a" (pp_witness topo) w in
    [
      Diagnostic.error "E060"
        (Diagnostic.Algorithm name)
        ("network admits no deadlock-free oblivious routing: " ^ summary)
        ~context:(witness_context topo w);
    ]
  | Ok (rt, plan) ->
    let m = Topology.num_channels topo in
    let cert =
      Diagnostic.info "I061"
        (Diagnostic.Algorithm (Routing.name rt))
        (Printf.sprintf
           "routing synthesized and certified: %d realized dependencies are strictly \
            rank-increasing (the synthesis order is the Dally-Seitz numbering)"
           plan.p_dependencies)
        ~context:
          [
            ("strategy", plan.p_strategy);
            ("channels", string_of_int m);
            ("unused_channels", string_of_int (List.length plan.p_unused));
          ]
    in
    if plan.p_unused = [] then [ cert ]
    else
      [
        cert;
        Diagnostic.warning "W062"
          (Diagnostic.Algorithm (Routing.name rt))
          (Printf.sprintf
             "synth fell back to restricted connectivity: %d of %d channels carry no \
              synthesized route"
             (List.length plan.p_unused) m)
          ~context:
            [
              ( "unused",
                String.concat ", "
                  (List.map (Topology.channel_name topo) plan.p_unused) );
            ];
      ]

(* The bounded routing family impossibility verdicts are dynamically
   cross-checked against: greedy minimal next-hop with three tie-break
   policies, keeping only members that validate (every pair delivered,
   no routing loop).  Policies coincide wherever the next hop is forced,
   so distinct members are counted by their full realized path set. *)
let greedy_family topo =
  let dist = Topology.distance_matrix topo in
  let pickers =
    [
      ("greedy-first", fun opts -> List.nth_opt opts 0);
      ("greedy-second", fun opts -> List.nth_opt opts (min 1 (List.length opts - 1)));
      ("greedy-last", fun opts -> List.nth_opt opts (List.length opts - 1));
    ]
  in
  let members =
    List.filter_map
      (fun (name, pick) ->
        let rt =
          Routing.create ~name topo (fun input dest ->
              let here = Routing.current_node topo input in
              if here = dest then None
              else
                pick
                  (List.filter
                     (fun c -> dist.(Topology.dst topo c).(dest) < dist.(here).(dest))
                     (Topology.out_channels topo here)))
        in
        if Routing.validate rt = Ok () then Some rt else None)
      pickers
  in
  let fingerprint rt =
    let n = Topology.num_nodes topo in
    List.concat_map
      (fun s ->
        List.filter_map
          (fun d -> if s = d then None else Some (Routing.path_exn rt s d))
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let seen = ref [] in
  List.filter
    (fun rt ->
      let fp = fingerprint rt in
      if List.mem fp !seen then false
      else begin
        seen := fp :: !seen;
        true
      end)
    members
