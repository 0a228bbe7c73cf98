type result = {
  immune : bool array;
  rounds : int;
  used : bool array;
  stuck : Topology.channel list;
}

let analyze rt =
  let topo = Routing.topology rt in
  let nchan = Topology.num_channels topo in
  let paths = Routing.paths rt in
  (* per channel, the list of successor channels demanded by the messages
     that use it: None = the message is consumed right after this channel *)
  let demands = Array.make nchan [] in
  let used = Array.make nchan false in
  let n = Topology.num_nodes topo in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      match Routing.path_row paths s d with
      | Error _ -> ()
      | Ok p ->
        let len = Array.length p in
        Array.iteri
          (fun i c ->
            used.(c) <- true;
            demands.(c) <- (if i = len - 1 then None else Some p.(i + 1)) :: demands.(c))
          p
    done
  done;
  let immune = Array.make nchan false in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr rounds;
    for c = 0 to nchan - 1 do
      if used.(c) && not immune.(c) then begin
        let ok =
          List.for_all
            (function None -> true | Some c' -> immune.(c'))
            demands.(c)
        in
        if ok then begin
          immune.(c) <- true;
          changed := true
        end
      end
    done
  done;
  let stuck = ref [] in
  for c = nchan - 1 downto 0 do
    if used.(c) && not immune.(c) then stuck := c :: !stuck
  done;
  { immune; rounds = !rounds; used; stuck = !stuck }

let proves_deadlock_free r = r.stuck = []

let pp topo ppf r =
  let used_count = Array.fold_left (fun a u -> if u then a + 1 else a) 0 r.used in
  let immune_count = Array.fold_left (fun a i -> if i then a + 1 else a) 0 r.immune in
  Format.fprintf ppf "message-flow model: %d/%d used channels immune after %d rounds"
    immune_count used_count r.rounds;
  if r.stuck <> [] then begin
    Format.fprintf ppf "; stuck:";
    List.iter (fun c -> Format.fprintf ppf " %s" (Topology.channel_name topo c)) r.stuck
  end
