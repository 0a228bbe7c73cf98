

type node = int
type channel = int

type channel_info = {
  c_src : node;
  c_dst : node;
  c_vc : int;
  c_name : string option;
}

type t = {
  names : string Vec.t;
  by_name : (string, node) Hashtbl.t;
  chans : channel_info Vec.t;
  outs : channel Vec.t Vec.t; (* per node, outgoing channels *)
  ins : channel Vec.t Vec.t;
  intern : (int, channel) Hashtbl.t;
      (* (src, dst, vc) packed into one int -> channel id.  Maintained by
         [add_channel]; read-only afterwards, so concurrent queries from
         parallel sweep domains are safe.  Keys channel lookup at O(1)
         instead of scanning the out-channel list on every routing query. *)
}

(* Node ids are dense and small (<= num_nodes), vc counts tiny: pack the
   triple into a single immediate int so interning allocates nothing. *)
let intern_key a b vc = (((a * 0x40000) + b) * 0x40) + vc

let create () =
  {
    names = Vec.create ();
    by_name = Hashtbl.create 16;
    chans = Vec.create ();
    outs = Vec.create ();
    ins = Vec.create ();
    intern = Hashtbl.create 64;
  }

let num_nodes t = Vec.length t.names

let num_channels t = Vec.length t.chans

let add_node t name =
  if Hashtbl.mem t.by_name name then invalid_arg ("Topology.add_node: duplicate name " ^ name);
  let id = num_nodes t in
  if id >= 0x40000 then invalid_arg "Topology.add_node: too many nodes";
  Vec.push t.names name;
  Hashtbl.add t.by_name name id;
  Vec.push t.outs (Vec.create ());
  Vec.push t.ins (Vec.create ());
  id

let check_node t v =
  if v < 0 || v >= num_nodes t then invalid_arg "Topology: unknown node"

let find_channel ?(vc = 0) t a b =
  check_node t a;
  if b < 0 || b >= num_nodes t || vc < 0 || vc >= 0x40 then None
  else Hashtbl.find_opt t.intern (intern_key a b vc)

let add_channel ?(vc = 0) ?name t a b =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Topology.add_channel: self-loop";
  if vc < 0 || vc >= 0x40 then invalid_arg "Topology.add_channel: vc outside [0, 63]";
  (match find_channel ~vc t a b with
  | Some _ -> invalid_arg "Topology.add_channel: duplicate channel (same src/dst/vc)"
  | None -> ());
  let id = num_channels t in
  Vec.push t.chans { c_src = a; c_dst = b; c_vc = vc; c_name = name };
  Vec.push (Vec.get t.outs a) id;
  Vec.push (Vec.get t.ins b) id;
  Hashtbl.replace t.intern (intern_key a b vc) id;
  id

let add_bidirectional t a b =
  let f = add_channel t a b in
  let r = add_channel t b a in
  (f, r)

let node_name t v =
  check_node t v;
  Vec.get t.names v

let node_of_name t name =
  match Hashtbl.find_opt t.by_name name with
  | Some v -> v
  | None -> raise Not_found

let info t c =
  if c < 0 || c >= num_channels t then invalid_arg "Topology: unknown channel";
  Vec.get t.chans c

let src t c = (info t c).c_src

let dst t c = (info t c).c_dst

let vc t c = (info t c).c_vc

let channel_name t c =
  let i = info t c in
  match i.c_name with
  | Some n -> n
  | None ->
    let base = Printf.sprintf "%s->%s" (node_name t i.c_src) (node_name t i.c_dst) in
    if i.c_vc = 0 then base else Printf.sprintf "%s#%d" base i.c_vc

let out_channels t v =
  check_node t v;
  Vec.to_list (Vec.get t.outs v)

let in_channels t v =
  check_node t v;
  Vec.to_list (Vec.get t.ins v)

let nodes t = List.init (num_nodes t) Fun.id

let channels t = List.init (num_channels t) Fun.id

let iter_channels f t =
  for c = 0 to num_channels t - 1 do
    f c
  done

let strongly_connected t =
  let n = num_nodes t in
  n = 0
  ||
  let succ v = List.map (dst t) (out_channels t v) in
  let _, count = Scc.tarjan ~n ~succ in
  count = 1

(* Single-source BFS recording the channel that first reached each node. *)
let bfs t s =
  let n = num_nodes t in
  let dist = Array.make n max_int in
  let via = Array.make n (-1) in
  dist.(s) <- 0;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun c ->
        let v = dst t c in
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          via.(v) <- c;
          Queue.add v q
        end)
      (out_channels t u)
  done;
  (dist, via)

let distance t a b =
  check_node t b;
  let dist, _ = bfs t a in
  dist.(b)

let distance_matrix t =
  Array.init (num_nodes t) (fun s -> fst (bfs t s))

let shortest_path t a b =
  check_node t b;
  let dist, via = bfs t a in
  if dist.(b) = max_int then None
  else begin
    let rec collect v acc = if v = a then acc else collect (src t via.(v)) (via.(v) :: acc) in
    Some (collect b [])
  end
