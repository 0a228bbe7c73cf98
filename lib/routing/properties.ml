type verdict = Holds | Fails of string

let is_holds = function Holds -> true | Fails _ -> false

let pp_verdict ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Fails w -> Format.fprintf ppf "fails (%s)" w

let topology paths = Routing.topology (Routing.paths_routing paths)

(* Run [check s d path] over all pairs' rows; first failure wins. *)
let over_pairs paths check =
  let n = Topology.num_nodes (topology paths) in
  let rec loop s d =
    if s >= n then Holds
    else if d >= n then loop (s + 1) 0
    else if s = d then loop s (d + 1)
    else
      match Routing.path_row paths s d with
      | Error e -> Fails (Routing.error_message e)
      | Ok p -> (
        match check s d p with
        | None -> loop s (d + 1)
        | Some why -> Fails why)
  in
  loop 0 0

let minimal_of paths =
  let topo = topology paths in
  let name = Topology.node_name topo in
  let dist = Topology.distance_matrix topo in
  over_pairs paths (fun s d p ->
      let len = Array.length p in
      if len = dist.(s).(d) then None
      else
        Some
          (Printf.sprintf "path %s->%s has %d hops, shortest is %d" (name s) (name d) len
             dist.(s).(d)))

(* Per-node stamps: [seen.(v) = stamp] marks [v] as visited by the pair
   being checked, so no array is cleared between pairs. *)
let stamps topo = Array.make (Topology.num_nodes topo) (-1)

let no_repeated_nodes_of paths =
  let topo = topology paths in
  let name = Topology.node_name topo in
  let n = Topology.num_nodes topo in
  let seen = stamps topo in
  over_pairs paths (fun s d p ->
      let stamp = (s * n) + d in
      seen.(s) <- stamp;
      (* the smallest node visited twice *)
      let dup = ref max_int in
      Array.iter
        (fun c ->
          let v = Topology.dst topo c in
          if seen.(v) = stamp then dup := min !dup v else seen.(v) <- stamp)
        p;
      if !dup = max_int then None
      else
        Some (Printf.sprintf "path %s->%s visits %s twice" (name s) (name d) (name !dup)))

(* [q] is exactly the [len] channels of [p] from position [off] on *)
let matches q p off len =
  Array.length q = len
  &&
  let rec go j = j >= len || (q.(j) = p.(off + j) && go (j + 1)) in
  go 0

(* Definitions 7 and 8 share one walk: wherever the [s]->[d] path first
   reaches an inner node [x], at position [i], its part up to [x] must be
   the [s]->[x] row (prefix) and its part after [x] the [x]->[d] row
   (suffix). *)
let closed paths part =
  let topo = topology paths in
  let name = Topology.node_name topo in
  let n = Topology.num_nodes topo in
  let what = match part with `Prefix -> "prefix" | `Suffix -> "suffix" in
  let seen = stamps topo in
  over_pairs paths (fun s d p ->
      let stamp = (s * n) + d in
      let len = Array.length p in
      let rec each i =
        if i >= len then None
        else begin
          let x = Topology.dst topo p.(i) in
          if x = s || x = d || seen.(x) = stamp then each (i + 1)
          else begin
            seen.(x) <- stamp;
            let (a, b), off, sub =
              match part with
              | `Prefix -> ((s, x), 0, i + 1)
              | `Suffix -> ((x, d), i + 1, len - i - 1)
            in
            match Routing.path_row paths a b with
            | Error e -> Some (Routing.error_message e)
            | Ok q when matches q p off sub -> each (i + 1)
            | Ok _ ->
              Some
                (Printf.sprintf "path %s->%s passes %s but the %s->%s path is not its %s"
                   (name s) (name d) (name x) (name a) (name b) what)
          end
        end
      in
      each 0)

(* Definition 9 from the verdicts it conjoins: the first failure among no
   repeated nodes, prefix-closed and suffix-closed, in that order *)
let coherent_of ~no_repeated ~prefix ~suffix =
  match (no_repeated, prefix) with
  | Fails _, _ -> no_repeated
  | Holds, Fails _ -> prefix
  | Holds, Holds -> suffix

(* Every realized decision of a delivered row, in pair order then path
   order: the first output seen at each (node, destination), and the first
   decision that disagrees with it.  Rows that are errors realize nothing. *)
let input_independent_of paths =
  let topo = topology paths in
  let n = Topology.num_nodes topo in
  let first = Array.make (n * n) (-1) in
  let rec pair s d =
    if s >= n then Holds
    else if d >= n then pair (s + 1) 0
    else
      match Routing.path_row paths s d with
      | Error _ -> pair s (d + 1)
      | Ok p ->
        let rec step i =
          if i >= Array.length p then pair s (d + 1)
          else begin
            let out = p.(i) in
            let here = Topology.src topo out in
            let out' = first.((here * n) + d) in
            if out' < 0 then begin
              first.((here * n) + d) <- out;
              step (i + 1)
            end
            else if out' = out then step (i + 1)
            else
              Fails
                (Printf.sprintf
                   "at %s toward %s the output depends on the input channel (%s vs %s)"
                   (Topology.node_name topo here) (Topology.node_name topo d)
                   (Topology.channel_name topo out') (Topology.channel_name topo out))
          end
        in
        step 0
  in
  pair 0 0

let of_paths paths =
  let no_repeated = no_repeated_nodes_of paths in
  let prefix = closed paths `Prefix in
  let suffix = closed paths `Suffix in
  [
    ("minimal", minimal_of paths);
    ("no-repeated-nodes", no_repeated);
    ("prefix-closed", prefix);
    ("suffix-closed", suffix);
    ("coherent", coherent_of ~no_repeated ~prefix ~suffix);
    ("input-independent", input_independent_of paths);
  ]

let minimal rt = minimal_of (Routing.paths rt)

let no_repeated_nodes rt = no_repeated_nodes_of (Routing.paths rt)

let prefix_closed rt = closed (Routing.paths rt) `Prefix

let suffix_closed rt = closed (Routing.paths rt) `Suffix

let coherent rt =
  let paths = Routing.paths rt in
  coherent_of ~no_repeated:(no_repeated_nodes_of paths) ~prefix:(closed paths `Prefix)
    ~suffix:(closed paths `Suffix)

let input_independent rt = input_independent_of (Routing.paths rt)

let summary rt = of_paths (Routing.paths rt)
