type message = Topology.node * Topology.node

type t = {
  rt : Routing.t;
  nchan : int;
  succs : Topology.channel list array;
  support : (Topology.channel * Topology.channel, message list) Hashtbl.t;
  users : message list array;
  paths : (message, Topology.channel list) Hashtbl.t;
}

let build rt =
  let topo = Routing.topology rt in
  let n = Topology.num_nodes topo in
  let nchan = Topology.num_channels topo in
  let succ_sets = Array.make nchan [] in
  let support = Hashtbl.create 256 in
  let users = Array.make nchan [] in
  let paths = Hashtbl.create 256 in
  let add_edge c1 c2 msg =
    let key = (c1, c2) in
    match Hashtbl.find_opt support key with
    | None ->
      Hashtbl.add support key [ msg ];
      succ_sets.(c1) <- c2 :: succ_sets.(c1)
    | Some msgs -> if not (List.mem msg msgs) then Hashtbl.replace support key (msg :: msgs)
  in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then
        match Routing.path rt s d with
        | Error _ -> ()
        | Ok chans ->
          let msg = (s, d) in
          Hashtbl.add paths msg chans;
          List.iter (fun c -> users.(c) <- msg :: users.(c)) chans;
          let rec edges = function
            | c1 :: (c2 :: _ as rest) ->
              add_edge c1 c2 msg;
              edges rest
            | _ -> ()
          in
          edges chans
    done
  done;
  (* Keep successor lists in a stable order for reproducible enumeration. *)
  Array.iteri (fun i l -> succ_sets.(i) <- List.sort_uniq compare l) succ_sets;
  Array.iteri (fun i l -> users.(i) <- List.rev l) users;
  { rt; nchan; succs = succ_sets; support; users; paths }

let topology t = Routing.topology t.rt

let num_edges t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

let succ t c = t.succs.(c)

let edge_support t c1 c2 =
  match Hashtbl.find_opt t.support (c1, c2) with Some l -> List.rev l | None -> []

let channel_users t c = t.users.(c)

let path_of t msg = match Hashtbl.find_opt t.paths msg with Some p -> p | None -> []

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

let elementary_cycles ?(max_cycles = 10_000) ?(max_len = max_int) t =
  let n = t.nchan in
  let results = ref [] in
  let count = ref 0 in
  let comp, _ = Scc.tarjan ~n ~succ:(fun c -> t.succs.(c)) in
  let blocked = Array.make n false in
  let b_sets = Array.make n [] in
  let stack = ref [] in
  let stack_len = ref 0 in
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
    incr stack_len;
    blocked.(v) <- true;
    List.iter
      (fun w ->
        if w >= start && comp.(w) = comp.(start) then begin
          if w = start then begin
            if !stack_len <= max_len then emit ();
            found := true
          end
          else if (not blocked.(w)) && !stack_len < max_len then
            if circuit start w then found := true
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
    decr stack_len;
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
