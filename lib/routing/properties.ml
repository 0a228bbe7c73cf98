type verdict = Holds | Fails of string

let is_holds = function Holds -> true | Fails _ -> false

let pp_verdict ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Fails w -> Format.fprintf ppf "fails (%s)" w

(* Run [check s d path] over all pairs; first failure wins. *)
let over_pairs rt check =
  let topo = Routing.topology rt in
  let n = Topology.num_nodes topo in
  let rec loop s d =
    if s >= n then Holds
    else if d >= n then loop (s + 1) 0
    else if s = d then loop s (d + 1)
    else
      match Routing.path rt s d with
      | Error e -> Fails (Routing.error_message e)
      | Ok p -> (
        match check s d p with
        | None -> loop s (d + 1)
        | Some why -> Fails why)
  in
  loop 0 0

let node_name rt = Topology.node_name (Routing.topology rt)

let minimal rt =
  let topo = Routing.topology rt in
  let dist = Topology.distance_matrix topo in
  over_pairs rt (fun s d p ->
      let len = List.length p in
      if len = dist.(s).(d) then None
      else
        Some
          (Printf.sprintf "path %s->%s has %d hops, shortest is %d" (node_name rt s)
             (node_name rt d) len dist.(s).(d)))

(* The sequence of nodes visited by a path starting at [s]. *)
let visited topo s p = s :: List.map (Topology.dst topo) p

let no_repeated_nodes rt =
  let topo = Routing.topology rt in
  over_pairs rt (fun s d p ->
      let nodes = visited topo s p in
      let sorted = List.sort compare nodes in
      let rec dup = function
        | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
        | _ -> None
      in
      match dup sorted with
      | None -> None
      | Some v ->
        Some
          (Printf.sprintf "path %s->%s visits %s twice" (node_name rt s) (node_name rt d)
             (node_name rt v)))

(* Prefix of [p] (channel list) up to the first arrival at node [x]. *)
let prefix_to topo s x p =
  if s = x then Some []
  else begin
    let rec scan acc = function
      | [] -> None
      | c :: rest ->
        if Topology.dst topo c = x then Some (List.rev (c :: acc)) else scan (c :: acc) rest
    in
    scan [] p
  end

let suffix_from topo s x p =
  if s = x then Some p
  else begin
    let rec scan = function
      | [] -> None
      | c :: rest -> if Topology.dst topo c = x then Some rest else scan rest
    in
    scan p
  end

let prefix_closed rt =
  let topo = Routing.topology rt in
  over_pairs rt (fun s d p ->
      let inner = List.filter (fun x -> x <> s && x <> d) (visited topo s p) in
      let rec each = function
        | [] -> None
        | x :: rest -> (
          match prefix_to topo s x p with
          | None -> each rest
          | Some expected -> (
            match Routing.path rt s x with
            | Error e -> Some (Routing.error_message e)
            | Ok q ->
              if q = expected then each rest
              else
                Some
                  (Printf.sprintf
                     "path %s->%s passes %s but the %s->%s path is not its prefix"
                     (node_name rt s) (node_name rt d) (node_name rt x) (node_name rt s)
                     (node_name rt x))))
      in
      each inner)

let suffix_closed rt =
  let topo = Routing.topology rt in
  over_pairs rt (fun s d p ->
      let inner = List.filter (fun x -> x <> s && x <> d) (visited topo s p) in
      let rec each = function
        | [] -> None
        | x :: rest -> (
          match suffix_from topo s x p with
          | None -> each rest
          | Some expected -> (
            match Routing.path rt x d with
            | Error e -> Some (Routing.error_message e)
            | Ok q ->
              if q = expected then each rest
              else
                Some
                  (Printf.sprintf
                     "path %s->%s passes %s but the %s->%s path is not its suffix"
                     (node_name rt s) (node_name rt d) (node_name rt x) (node_name rt x)
                     (node_name rt d))))
      in
      each inner)

(* Definition 9 from the verdicts it conjoins: the first failure among no
   repeated nodes, prefix-closed and suffix-closed, in that order *)
let coherent_of ~no_repeated ~prefix ~suffix =
  match (no_repeated, prefix) with
  | Fails _, _ -> no_repeated
  | Holds, Fails _ -> prefix
  | Holds, Holds -> suffix

let coherent rt =
  coherent_of ~no_repeated:(no_repeated_nodes rt) ~prefix:(prefix_closed rt)
    ~suffix:(suffix_closed rt)

let input_independent rt =
  let topo = Routing.topology rt in
  (* collect every realized decision, grouped by (current node, dest) *)
  let decisions = Hashtbl.create 256 in
  let conflict = ref None in
  Routing.iter_realized rt (fun input dest out ->
      let here = Routing.current_node topo input in
      match Hashtbl.find_opt decisions (here, dest) with
      | None -> Hashtbl.add decisions (here, dest) out
      | Some out' ->
        if out <> out' && !conflict = None then
          conflict :=
            Some
              (Printf.sprintf
                 "at %s toward %s the output depends on the input channel (%s vs %s)"
                 (Topology.node_name topo here) (Topology.node_name topo dest)
                 (Topology.channel_name topo out') (Topology.channel_name topo out)));
  match !conflict with None -> Holds | Some w -> Fails w

let summary rt =
  let no_repeated = no_repeated_nodes rt in
  let prefix = prefix_closed rt in
  let suffix = suffix_closed rt in
  [
    ("minimal", minimal rt);
    ("no-repeated-nodes", no_repeated);
    ("prefix-closed", prefix);
    ("suffix-closed", suffix);
    ("coherent", coherent_of ~no_repeated ~prefix ~suffix);
    ("input-independent", input_independent rt);
  ]
