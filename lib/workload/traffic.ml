open Builders

type t = {
  name : string;
  dest : Topology.node -> Topology.node option;
}

let num_nodes coords = Topology.num_nodes coords.topo

let uniform rng coords =
  let n = num_nodes coords in
  {
    name = "uniform";
    dest =
      (fun src ->
        (* resample until the destination differs from the source *)
        let rec pick () =
          let d = Rng.int rng n in
          if d = src then pick () else Some d
        in
        if n < 2 then None else pick ());
  }

let permutation name f coords =
  {
    name;
    dest =
      (fun src ->
        let d = f (coords.coord src) in
        let dnode = coords.node_at d in
        if dnode = src then None else Some dnode);
  }

let transpose coords =
  if Array.length coords.dims <> 2 || coords.dims.(0) <> coords.dims.(1) then
    invalid_arg "Traffic.transpose: square 2-D scheme required";
  permutation "transpose" (fun c -> [| c.(1); c.(0) |]) coords

let bit_complement coords =
  permutation "bit-complement"
    (fun c -> Array.mapi (fun d x -> coords.dims.(d) - 1 - x) c)
    coords

let bit_reverse coords =
  permutation "bit-reverse"
    (fun c ->
      let n = Array.length c in
      Array.init n (fun i -> c.(n - 1 - i)))
    coords

let tornado coords =
  permutation "tornado"
    (fun c -> Array.mapi (fun d x -> (x + (((coords.dims.(d) + 1) / 2) - 1)) mod coords.dims.(d)) c)
    coords

let hotspot ?(fraction = 0.2) rng coords spot =
  let base = uniform rng coords in
  {
    name = "hotspot";
    dest =
      (fun src ->
        if src <> spot && Rng.bernoulli rng fraction then Some spot else base.dest src);
  }

let neighbor coords =
  permutation "neighbor" (fun c ->
      let c' = Array.copy c in
      c'.(0) <- (c.(0) + 1) mod coords.dims.(0);
      c')
    coords

let bernoulli_schedule rng pattern ~coords ~rate ~length ~horizon =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg (Printf.sprintf "Traffic.bernoulli_schedule: rate %g outside [0, 1]" rate);
  if horizon < 0 then
    invalid_arg (Printf.sprintf "Traffic.bernoulli_schedule: negative horizon %d" horizon);
  let n = num_nodes coords in
  let sched = ref [] in
  let seq = Array.make n 0 in
  for t = 0 to horizon - 1 do
    for src = 0 to n - 1 do
      if Rng.bernoulli rng rate then
        match pattern.dest src with
        | None -> ()
        | Some dst ->
          let label = Printf.sprintf "n%d/%d" src seq.(src) in
          seq.(src) <- seq.(src) + 1;
          sched := Schedule.message ~length ~at:t label src dst :: !sched
    done
  done;
  List.rev !sched

let permutation_schedule pattern ~coords ~length =
  let n = num_nodes coords in
  List.filter_map
    (fun src ->
      match pattern.dest src with
      | None -> None
      | Some dst -> Some (Schedule.message ~length (Printf.sprintf "n%d" src) src dst))
    (List.init n Fun.id)
