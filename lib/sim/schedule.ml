type message_spec = {
  ms_label : string;
  ms_src : Topology.node;
  ms_dst : Topology.node;
  ms_length : int;
  ms_inject_at : int;
  ms_holds : (Topology.channel * int) list;
}

type t = message_spec list

let message ?(length = 1) ?(at = 0) ?(holds = []) label src dst =
  { ms_label = label; ms_src = src; ms_dst = dst; ms_length = length; ms_inject_at = at;
    ms_holds = holds }

let of_intents ~length (net : Paper_nets.net) =
  List.map
    (fun (it : Paper_nets.intent) -> message ~length it.i_label it.i_src it.i_dst)
    net.intents

let max_length sched =
  List.fold_left (fun acc m -> if m.ms_length > acc then m.ms_length else acc) 1 sched

(* label uniqueness: short schedules (every Explorer run) compare labels
   pairwise without allocating; longer ones take a hash pass (not a sort:
   comparing every label against every other through polymorphic compare
   shows up in the per-run validation cost of the bench hot paths) *)
let rec label_in l = function
  | [] -> false
  | m :: rest -> String.equal l m.ms_label || label_in l rest

let rec pairwise_duplicate = function
  | [] -> false
  | m :: rest -> label_in m.ms_label rest || pairwise_duplicate rest

let has_duplicate_label sched =
  if List.compare_length_with sched 16 <= 0 then pairwise_duplicate sched
  else begin
    let seen = Hashtbl.create 64 in
    List.exists
      (fun m ->
        Hashtbl.mem seen m.ms_label
        ||
        (Hashtbl.add seen m.ms_label ();
         false))
      sched
  end

(* each channel may appear at most once on a path; paths are node-degree
   short, so the quadratic scan beats building a sorted copy *)
let has_duplicate_channel (a : int array) =
  let k = Array.length a in
  let dup = ref false in
  for x = 0 to k - 1 do
    for y = x + 1 to k - 1 do
      if a.(x) = a.(y) then dup := true
    done
  done;
  !dup

let rec bad_hold_time = function
  | [] -> false
  | (_, t) :: rest -> t < 0 || bad_hold_time rest

let rec bad_hold_channel nchan = function
  | [] -> false
  | (c, _) :: rest -> c < 0 || c >= nchan || bad_hold_channel nchan rest

let message_error ~nchan m =
  if m.ms_length < 1 then Some (m.ms_label ^ ": length < 1")
  else if m.ms_inject_at < 0 then Some (m.ms_label ^ ": negative injection time")
  else if m.ms_src = m.ms_dst then Some (m.ms_label ^ ": source equals destination")
  else if bad_hold_time m.ms_holds then Some (m.ms_label ^ ": negative hold")
  else if bad_hold_channel nchan m.ms_holds then Some (m.ms_label ^ ": hold on unknown channel")
  else None

let route_row rt m =
  match Routing.path rt m.ms_src m.ms_dst with
  | Error e -> Error (m.ms_label ^ ": " ^ Routing.error_message e)
  | Ok p ->
    (* the engine's occupancy model needs each channel to appear at most
       once on a message's path *)
    let row = Array.of_list p in
    if has_duplicate_channel row then Error (m.ms_label ^ ": path visits a channel twice")
    else Ok row

let validate_paths rt sched =
  if has_duplicate_label sched then Error "duplicate message labels"
  else begin
    let nchan = Topology.num_channels (Routing.topology rt) in
    let paths = Array.make (List.length sched) [||] in
    let rec check i = function
      | [] -> Ok paths
      | m :: rest -> (
        match message_error ~nchan m with
        | Some e -> Error e
        | None -> (
          match route_row rt m with
          | Error e -> Error e
          | Ok row ->
            paths.(i) <- row;
            check (i + 1) rest))
    in
    check 0 sched
  end

let validate rt sched =
  match validate_paths rt sched with Ok _ -> Ok () | Error e -> Error e

let pp topo ppf sched =
  List.iter
    (fun m ->
      Format.fprintf ppf "%s: %s->%s len=%d t=%d" m.ms_label
        (Topology.node_name topo m.ms_src) (Topology.node_name topo m.ms_dst) m.ms_length
        m.ms_inject_at;
      List.iter
        (fun (c, t) -> Format.fprintf ppf " hold(%s,%d)" (Topology.channel_name topo c) t)
        m.ms_holds;
      Format.pp_print_newline ppf ())
    sched
