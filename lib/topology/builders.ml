type coords = {
  topo : Topology.t;
  dims : int array;
  coord : Topology.node -> int array;
  node_at : int array -> Topology.node;
}

let coord_name prefix c =
  prefix ^ "(" ^ String.concat "," (List.map string_of_int (Array.to_list c)) ^ ")"

(* Generic k-ary n-dim grid; [wrap] adds the wraparound links of a torus. *)
let grid ?(vcs = 1) ~wrap dims_list =
  let dims = Array.of_list dims_list in
  if Array.length dims = 0 then invalid_arg "Builders.grid: no dimensions";
  Array.iter (fun k -> if k < 2 then invalid_arg "Builders.grid: radix < 2") dims;
  let n = Array.fold_left ( * ) 1 dims in
  let topo = Topology.create () in
  let coord_of_id id =
    let c = Array.make (Array.length dims) 0 in
    let rest = ref id in
    for d = Array.length dims - 1 downto 0 do
      c.(d) <- !rest mod dims.(d);
      rest := !rest / dims.(d)
    done;
    c
  in
  let id_of_coord c =
    let id = ref 0 in
    for d = 0 to Array.length dims - 1 do
      if c.(d) < 0 || c.(d) >= dims.(d) then invalid_arg "Builders: coordinate out of range";
      id := (!id * dims.(d)) + c.(d)
    done;
    !id
  in
  for id = 0 to n - 1 do
    ignore (Topology.add_node topo (coord_name "n" (coord_of_id id)))
  done;
  for id = 0 to n - 1 do
    let c = coord_of_id id in
    for d = 0 to Array.length dims - 1 do
      let link nc =
        let other = id_of_coord nc in
        for v = 0 to vcs - 1 do
          ignore (Topology.add_channel ~vc:v topo id other)
        done
      in
      if c.(d) + 1 < dims.(d) then begin
        let nc = Array.copy c in
        nc.(d) <- c.(d) + 1;
        link nc
      end;
      if c.(d) > 0 then begin
        let nc = Array.copy c in
        nc.(d) <- c.(d) - 1;
        link nc
      end;
      if wrap && dims.(d) > 2 then begin
        if c.(d) = dims.(d) - 1 then begin
          let nc = Array.copy c in
          nc.(d) <- 0;
          link nc
        end;
        if c.(d) = 0 then begin
          let nc = Array.copy c in
          nc.(d) <- dims.(d) - 1;
          link nc
        end
      end
    done
  done;
  { topo; dims; coord = coord_of_id; node_at = id_of_coord }

let mesh ?vcs dims = grid ?vcs ~wrap:false dims

let torus ?vcs dims = grid ?vcs ~wrap:true dims

let line ?vcs n = mesh ?vcs [ n ]

let ring ?(vcs = 1) ?(unidirectional = false) n =
  if n < 3 then invalid_arg "Builders.ring: need at least 3 nodes";
  if unidirectional then begin
    let topo = Topology.create () in
    for i = 0 to n - 1 do
      ignore (Topology.add_node topo (coord_name "n" [| i |]))
    done;
    for i = 0 to n - 1 do
      for v = 0 to vcs - 1 do
        ignore (Topology.add_channel ~vc:v topo i ((i + 1) mod n))
      done
    done;
    {
      topo;
      dims = [| n |];
      coord = (fun id -> [| id |]);
      node_at = (fun c -> c.(0));
    }
  end
  else torus ~vcs [ n ]

let hypercube d =
  if d < 1 then invalid_arg "Builders.hypercube: dimension < 1";
  let n = 1 lsl d in
  let topo = Topology.create () in
  let coord_of_id id = Array.init d (fun b -> (id lsr (d - 1 - b)) land 1) in
  let id_of_coord c =
    let id = ref 0 in
    Array.iter (fun bit -> id := (!id lsl 1) lor (bit land 1)) c;
    !id
  in
  for id = 0 to n - 1 do
    ignore (Topology.add_node topo (coord_name "h" (coord_of_id id)))
  done;
  for id = 0 to n - 1 do
    for b = 0 to d - 1 do
      ignore (Topology.add_channel topo id (id lxor (1 lsl b)))
    done
  done;
  { topo; dims = Array.make d 2; coord = coord_of_id; node_at = id_of_coord }

let complete ?(vcs = 1) n =
  if n < 2 then invalid_arg "Builders.complete: need at least 2 nodes";
  let topo = Topology.create () in
  for i = 0 to n - 1 do
    ignore (Topology.add_node topo (coord_name "n" [| i |]))
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        for v = 0 to vcs - 1 do
          ignore (Topology.add_channel ~vc:v topo i j)
        done
    done
  done;
  { topo; dims = [| n |]; coord = (fun id -> [| id |]); node_at = (fun c -> c.(0)) }

let star ?(vcs = 1) n =
  if n < 2 then invalid_arg "Builders.star: need at least 2 leaves";
  let topo = Topology.create () in
  let hub = Topology.add_node topo "hub" in
  for i = 1 to n do
    let leaf = Topology.add_node topo (coord_name "leaf" [| i |]) in
    for v = 0 to vcs - 1 do
      ignore (Topology.add_channel ~vc:v topo hub leaf);
      ignore (Topology.add_channel ~vc:v topo leaf hub)
    done
  done;
  { topo; dims = [| n + 1 |]; coord = (fun id -> [| id |]); node_at = (fun c -> c.(0)) }
