type certification =
  | Acyclic of int array
  | Cyclic_safe of string
  | Uncertified of string

type t = {
  routing : Routing.t;
  failed : Topology.channel list;
  certification : certification;
}

let certified t =
  match t.certification with Acyclic _ | Cyclic_safe _ -> true | Uncertified _ -> false

let reroute ?(quick = true) ~failed base =
  match Routing.avoiding ~failed base with
  | exception Invalid_argument e -> Error e
  | routing -> (
    match Routing.validate routing with
    | Error e -> Error e
    | Ok () ->
      let report = Verify.analyze ~quick routing in
      let certification =
        match (report.Verify.numbering, report.Verify.conclusion) with
        | Some f, _ -> Acyclic f
        | None, Verify.Deadlock_free why -> Cyclic_safe why
        | None, Verify.Deadlocks why -> Uncertified ("confirmed deadlock: " ^ why)
        | None, Verify.Unknown why -> Uncertified ("undecided: " ^ why)
      in
      Ok { routing; failed; certification })

let pp ppf t =
  let topo = Routing.topology t.routing in
  Format.fprintf ppf "%s avoiding {%s}: " (Routing.name t.routing)
    (String.concat ", " (List.map (Topology.channel_name topo) t.failed));
  match t.certification with
  | Acyclic _ -> Format.pp_print_string ppf "re-certified (acyclic CDG, numbering exists)"
  | Cyclic_safe why -> Format.fprintf ppf "re-certified (cyclic CDG, %s)" why
  | Uncertified why -> Format.fprintf ppf "UNCERTIFIED: %s" why
