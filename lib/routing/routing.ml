type input = Inject of Topology.node | From of Topology.channel

type t = {
  name : string;
  topo : Topology.t;
  f : input -> Topology.node -> Topology.channel option;
}

let create ~name topo f = { name; topo; f }

let name t = t.name

let topology t = t.topo

let current_node topo = function
  | Inject v -> v
  | From c -> Topology.dst topo c

let next t input dest = t.f input dest

type error_kind =
  | Livelock of { limit : int }
  | Consumed_early of { at : Topology.node }
  | Not_leaving of { channel : Topology.channel; at : Topology.node }
  | Passed_destination

type error = {
  e_algorithm : string;
  e_src : Topology.node;
  e_dst : Topology.node;
  e_kind : error_kind;
  e_message : string;
}

exception Route_error of error

let error_message e = e.e_message

(* The walk behind [path] and [paths]: [emit] receives each channel in
   order, and the result says whether the walk delivered. *)
let walk t s d emit =
  let limit = (4 * Topology.num_channels t.topo) + 4 in
  let err kind msg = Error { e_algorithm = t.name; e_src = s; e_dst = d; e_kind = kind; e_message = msg } in
  let rec go input steps =
    if steps > limit then
      err (Livelock { limit })
        (Printf.sprintf "%s: no delivery from %s to %s within %d steps (livelock?)" t.name
           (Topology.node_name t.topo s) (Topology.node_name t.topo d) limit)
    else begin
      let here = current_node t.topo input in
      match t.f input d with
      | None ->
        if here = d then Ok ()
        else
          err (Consumed_early { at = here })
            (Printf.sprintf "%s: consumed at %s but destination is %s" t.name
               (Topology.node_name t.topo here) (Topology.node_name t.topo d))
      | Some c ->
        if Topology.src t.topo c <> here then
          err (Not_leaving { channel = c; at = here })
            (Printf.sprintf "%s: routed onto %s which does not leave %s" t.name
               (Topology.channel_name t.topo c) (Topology.node_name t.topo here))
        else if here = d then
          err Passed_destination
            (Printf.sprintf "%s: passed through destination %s without consuming" t.name
               (Topology.node_name t.topo d))
        else begin
          emit c;
          go (From c) (steps + 1)
        end
    end
  in
  go (Inject s) 0

let path t s d =
  if s = d then Ok []
  else begin
    let acc = ref [] in
    Result.map (fun () -> List.rev !acc) (walk t s d (fun c -> acc := c :: !acc))
  end

let path_exn t s d =
  match path t s d with Ok p -> p | Error e -> raise (Route_error e)

let validate t =
  let n = Topology.num_nodes t.topo in
  let rec pairs s d =
    if s >= n then Ok ()
    else if d >= n then pairs (s + 1) 0
    else if s = d then pairs s (d + 1)
    else
      match walk t s d ignore with
      | Ok () -> pairs s (d + 1)
      | Error e -> Error e.e_message
  in
  pairs 0 0

type paths = {
  routing : t;
  n : int;
  rows : (Topology.channel array, error) result array;  (* row [s * n + d] *)
}

let paths t =
  let n = Topology.num_nodes t.topo in
  (* a walk emits at most one channel per step up to the cutoff *)
  let buf = Array.make ((4 * Topology.num_channels t.topo) + 5) 0 in
  let len = ref 0 in
  let emit c =
    buf.(!len) <- c;
    incr len
  in
  let rows = Array.make (n * n) (Ok [||]) in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then begin
        len := 0;
        rows.((s * n) + d) <-
          Result.map (fun () -> Array.sub buf 0 !len) (walk t s d emit)
      end
    done
  done;
  { routing = t; n; rows }

let path_row p s d = p.rows.((s * p.n) + d)

let paths_routing p = p.routing

let avoiding ~failed base =
  let topo = base.topo in
  let name = base.name ^ "+avoid" in
  let nchan = Topology.num_channels topo in
  let n = Topology.num_nodes topo in
  let bad = Array.make nchan false in
  List.iter
    (fun c ->
      if c < 0 || c >= nchan then invalid_arg "Routing.avoiding: channel out of range";
      bad.(c) <- true)
    failed;
  (* all-pairs hop distances in the degraded network (failed channels cut) *)
  let dist = Array.make_matrix n n max_int in
  for s = 0 to n - 1 do
    dist.(s).(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun c ->
          if not bad.(c) then begin
            let v = Topology.dst topo c in
            if dist.(s).(v) = max_int then begin
              dist.(s).(v) <- dist.(s).(u) + 1;
              Queue.add v q
            end
          end)
        (Topology.out_channels topo u)
    done
  done;
  (* does the base algorithm's continuation from [input] reach [dest]
     without touching a failed channel?  Precomputed eagerly for every
     (input, dest) pair: the routing's query function must be read-only,
     because parallel sweep domains share it.  0 = unknown, 1 = clean,
     2 = dirty. *)
  let limit = (4 * nchan) + 4 in
  let memo_inject = Array.make_matrix n n 0 in
  let memo_from = Array.make_matrix (max nchan 1) n 0 in
  let memo input dest =
    match input with
    | Inject v -> memo_inject.(v).(dest)
    | From c -> memo_from.(c).(dest)
  in
  let set_memo input dest b =
    let v = if b then 1 else 2 in
    match input with
    | Inject x -> memo_inject.(x).(dest) <- v
    | From c -> memo_from.(c).(dest) <- v
  in
  let rec clean input dest steps =
    if steps > limit then false
    else
      match memo input dest with
      | 1 -> true
      | 2 -> false
      | _ ->
        let here = current_node topo input in
        let b =
          match base.f input dest with
          | None -> here = dest
          | Some c ->
            here <> dest && not bad.(c)
            && Topology.src topo c = here
            && clean (From c) dest (steps + 1)
        in
        set_memo input dest b;
        b
  in
  for dest = 0 to n - 1 do
    for v = 0 to n - 1 do
      ignore (clean (Inject v) dest 0)
    done;
    for c = 0 to nchan - 1 do
      ignore (clean (From c) dest 0)
    done
  done;
  let clean input dest = clean input dest 0 in
  let f input dest =
    let here = current_node topo input in
    if here = dest then None
    else if clean input dest then base.f input dest
    else if dist.(here).(dest) = max_int then None (* unreachable: let [path] report it *)
    else
      (* first outgoing channel (insertion order) on a shortest degraded
         path -- deterministic, and each hop strictly shrinks the distance,
         so mixing these detour steps with clean base suffixes terminates *)
      Topology.out_channels topo here
      |> List.find_opt (fun c ->
             (not bad.(c)) && dist.(Topology.dst topo c).(dest) = dist.(here).(dest) - 1)
  in
  create ~name topo f

let pp_path t ppf = function
  | [] -> Format.pp_print_string ppf "(empty)"
  | first :: _ as chans ->
    Format.pp_print_string ppf (Topology.node_name t.topo (Topology.src t.topo first));
    List.iter
      (fun c ->
        Format.fprintf ppf " -> %s" (Topology.node_name t.topo (Topology.dst t.topo c)))
      chans
