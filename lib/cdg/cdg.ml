type message = Topology.node * Topology.node

type t = {
  paths : Routing.paths;
  nchan : int;
  succs : Topology.channel list array;
  users : message list array;
}

let of_paths paths =
  let topo = Routing.topology (Routing.paths_routing paths) in
  let n = Topology.num_nodes topo in
  let nchan = Topology.num_channels topo in
  let succ_sets = Array.make nchan [] in
  let users = Array.make nchan [] in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then
        match Routing.path_row paths s d with
        | Error _ -> ()
        | Ok chans ->
          let msg = (s, d) in
          Array.iter (fun c -> users.(c) <- msg :: users.(c)) chans;
          for i = 0 to Array.length chans - 2 do
            let c1 = chans.(i) and c2 = chans.(i + 1) in
            if not (List.mem c2 succ_sets.(c1)) then succ_sets.(c1) <- c2 :: succ_sets.(c1)
          done
    done
  done;
  (* Keep successor lists in a stable order for reproducible enumeration. *)
  Array.iteri (fun i l -> succ_sets.(i) <- List.sort compare l) succ_sets;
  Array.iteri (fun i l -> users.(i) <- List.rev l) users;
  { paths; nchan; succs = succ_sets; users }

let build rt = of_paths (Routing.paths rt)

let topology t = Routing.topology (Routing.paths_routing t.paths)

let num_edges t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

let succ t c = t.succs.(c)

let channel_users t c = t.users.(c)

let edge_support t c1 c2 =
  List.filter
    (fun (s, d) ->
      match Routing.path_row t.paths s d with
      | Error _ -> false
      | Ok p ->
        let rec at i = i + 1 < Array.length p && ((p.(i) = c1 && p.(i + 1) = c2) || at (i + 1)) in
        at 0)
    (channel_users t c1)

let path_of t (s, d) =
  match Routing.path_row t.paths s d with Ok p -> Array.to_list p | Error _ -> []

let is_acyclic t = not (Scc.has_cycle ~n:t.nchan ~succ:(fun c -> t.succs.(c)))

let numbering t =
  if not (is_acyclic t) then None
  else begin
    let comp, count = Scc.tarjan ~n:t.nchan ~succ:(fun c -> t.succs.(c)) in
    (* Tarjan numbers components in reverse topological order: every edge
       goes into a component with a smaller id, so [count - 1 - comp] grows
       strictly along each dependency. *)
    Some (Array.map (fun c -> count - 1 - c) comp)
  end

(* Johnson's elementary-circuit algorithm, bounded. *)
exception Done

let elementary_cycles ?(max_cycles = 10_000) t =
  let n = t.nchan in
  let results = ref [] in
  let count = ref 0 in
  let comp, _ = Scc.tarjan ~n ~succ:(fun c -> t.succs.(c)) in
  let blocked = Array.make n false in
  let b_sets = Array.make n [] in
  let stack = ref [] in
  let emit () =
    results := List.rev !stack :: !results;
    incr count;
    if !count >= max_cycles then raise Done
  in
  let rec unblock v =
    blocked.(v) <- false;
    let bs = b_sets.(v) in
    b_sets.(v) <- [];
    List.iter (fun w -> if blocked.(w) then unblock w) bs
  in
  let rec circuit start v =
    (* explore only vertices >= start inside start's SCC *)
    let found = ref false in
    stack := v :: !stack;
    blocked.(v) <- true;
    List.iter
      (fun w ->
        if w >= start && comp.(w) = comp.(start) then begin
          if w = start then begin
            emit ();
            found := true
          end
          else if not blocked.(w) then if circuit start w then found := true
        end)
      t.succs.(v);
    if !found then unblock v
    else
      List.iter
        (fun w ->
          if w >= start && comp.(w) = comp.(start) then
            if not (List.mem v b_sets.(w)) then b_sets.(w) <- v :: b_sets.(w))
        t.succs.(v);
    stack := List.tl !stack;
    !found
  in
  (try
     for s = 0 to n - 1 do
       Array.fill blocked 0 n false;
       Array.fill b_sets 0 n [];
       ignore (circuit s s)
     done
   with Done -> ());
  List.rev !results

let pp_cycle t ppf cycle =
  let topo = topology t in
  Format.pp_print_string ppf
    (String.concat " => " (List.map (Topology.channel_name topo) cycle))
