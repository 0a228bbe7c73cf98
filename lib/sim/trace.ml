(* Per-channel flit counts are replayed from the flit movements: an inject
   adds a flit to the named channel, a hop or cascade moves one from the
   channel the label acquired just before the named one, a consume takes
   one out, and an abort or give-up drains every flit of the label.  The
   end-of-cycle state of cycle [i] is column [i]. *)
let render ?(max_cycles = 120) topo events =
  let nchan = Topology.num_channels topo in
  let owner = Array.make nchan "" and flits = Array.make nchan 0 in
  (* label -> channels it acquired since its last drain, newest first *)
  let acquired = Hashtbl.create 16 in
  let acquired_by l = Option.value (Hashtbl.find_opt acquired l) ~default:[] in
  let add l c d =
    owner.(c) <- l;
    flits.(c) <- flits.(c) + d
  in
  let rec before c = function
    | c' :: (p :: _ as rest) -> if c' = c then Some p else before c rest
    | [ _ ] | [] -> None
  in
  let drain l =
    List.iter (fun c -> if owner.(c) = l then flits.(c) <- 0) (acquired_by l);
    Hashtbl.remove acquired l
  in
  (* first occupied column of every channel over the whole run, not just
     the shown prefix: a channel first occupied after the cutoff still gets
     a row (all dots plus the truncation marker) instead of silently
     vanishing from the picture *)
  let first_seen = Hashtbl.create 32 in
  let cells = Hashtbl.create 64 in
  let columns = ref 0 in
  let close_until t =
    while !columns < t do
      let i = !columns in
      Array.iteri
        (fun c n ->
          if n > 0 then begin
            if not (Hashtbl.mem first_seen c) then Hashtbl.add first_seen c i;
            if i < max_cycles then begin
              let l = owner.(c) in
              let ch = if l = "" then '?' else l.[0] in
              Hashtbl.replace cells (c, i)
                (if n > 1 then Char.uppercase_ascii ch else Char.lowercase_ascii ch)
            end
          end)
        flits;
      incr columns
    done
  in
  List.iter
    (fun (e : Obs_event.t) ->
      match e with
      | Channel_acquire { label; channel; _ } ->
        Hashtbl.replace acquired label (channel :: acquired_by label)
      | Flit { cycle; label; channel; kind } -> (
        close_until cycle;
        match kind with
        | Inject -> add label channel 1
        | Consume -> add label channel (-1)
        | Hop | Cascade ->
          Option.iter (fun p -> add label p (-1)) (before channel (acquired_by label));
          add label channel 1)
      | Abort { cycle; label; _ } | Gave_up { cycle; label; _ } ->
        close_until cycle;
        drain label
      | Run_end { cycle; _ } -> close_until (cycle + 1)
      | Run_start _ | Channel_release _ | Wait_add _ | Wait_drop _ | Delivered _ | Retry _
      | Fault _ | Deadlock_detected _ | Victim_aborted _ -> ())
    events;
  let cycles = !columns in
  let shown = min cycles max_cycles in
  let channels =
    Hashtbl.fold (fun c i acc -> (i, c) :: acc) first_seen []
    |> List.sort compare
    |> List.map snd
  in
  let buf = Buffer.create 1024 in
  let name_width =
    List.fold_left (fun w c -> max w (String.length (Topology.channel_name topo c))) 7 channels
  in
  let truncated = cycles > shown in
  Buffer.add_string buf (Printf.sprintf "%-*s " name_width "channel");
  for i = 0 to shown - 1 do
    Buffer.add_char buf (if i mod 10 = 0 then Char.chr (Char.code '0' + i / 10 mod 10) else ' ')
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      Buffer.add_string buf (Printf.sprintf "%-*s " name_width (Topology.channel_name topo c));
      for i = 0 to shown - 1 do
        Buffer.add_char buf
          (match Hashtbl.find_opt cells (c, i) with Some ch -> ch | None -> '.')
      done;
      if truncated then Buffer.add_string buf " …";
      Buffer.add_char buf '\n')
    channels;
  if truncated then Buffer.add_string buf (Printf.sprintf "… +%d cycles\n" (cycles - shown));
  Buffer.contents buf
