type event =
  | Link_failure of { channel : Topology.channel; at : int }
  | Transient_stall of { channel : Topology.channel; at : int; duration : int }
  | Message_drop of { label : string; at : int }

type plan = event list

let empty = []

let make events =
  List.iter
    (fun e ->
      match e with
      | Link_failure { at; _ } ->
        if at < 0 then invalid_arg "Fault.make: failure time < 0"
      | Transient_stall { at; duration; _ } ->
        if at < 0 then invalid_arg "Fault.make: stall time < 0";
        if duration < 1 then invalid_arg "Fault.make: stall duration < 1"
      | Message_drop { at; _ } ->
        if at < 0 then invalid_arg "Fault.make: drop time < 0")
    events;
  events

let events p = p

let is_empty p = p = []

let failed_channels p =
  List.filter_map (function Link_failure { channel; _ } -> Some channel | _ -> None) p
  |> List.sort_uniq compare

(* ---- compiled form ---- *)

type compiled = {
  fail_at : int array;  (* per channel, first permanent-failure cycle; max_int if none *)
  stalls : (int * int) list array;  (* per channel, [(start, end_exclusive)] *)
  last_change : int;  (* no event boundary strictly after this cycle *)
}

let compile ~nchan p =
  let fail_at = Array.make nchan max_int in
  let stalls = Array.make nchan [] in
  let last_change = ref (-1) in
  let chan c =
    if c < 0 || c >= nchan then invalid_arg "Fault.compile: channel out of range";
    c
  in
  List.iter
    (fun e ->
      match e with
      | Link_failure { channel; at } ->
        let c = chan channel in
        if at < fail_at.(c) then fail_at.(c) <- at;
        last_change := max !last_change at
      | Transient_stall { channel; at; duration } ->
        let c = chan channel in
        stalls.(c) <- (at, at + duration) :: stalls.(c);
        last_change := max !last_change (at + duration)
      | Message_drop { at; _ } -> last_change := max !last_change at)
    p;
  { fail_at; stalls; last_change = !last_change }

let perm_failed c ch t = ch >= 0 && ch < Array.length c.fail_at && c.fail_at.(ch) <= t

let down c ch t =
  perm_failed c ch t
  || (ch >= 0 && ch < Array.length c.stalls
      && List.exists (fun (s, e) -> s <= t && t < e) c.stalls.(ch))

let change_after c t = c.last_change > t

(* ---- generation ---- *)

let random ?(link_failures = 1) ?(stalls = 2) ?(max_stall = 8) ?(drops = []) ~horizon rng
    topo =
  if horizon < 1 then invalid_arg "Fault.random: horizon < 1";
  let nchan = Topology.num_channels topo in
  if nchan = 0 then invalid_arg "Fault.random: topology has no channels";
  let chans = Array.of_list (Topology.channels topo) in
  Rng.shuffle rng chans;
  let failures =
    List.init (min link_failures nchan) (fun i ->
        Link_failure { channel = chans.(i); at = Rng.int rng horizon })
  in
  let stall_events =
    List.init stalls (fun _ ->
        Transient_stall
          {
            channel = Rng.pick rng chans;
            at = Rng.int rng horizon;
            duration = 1 + Rng.int rng max_stall;
          })
  in
  let drop_events =
    List.map (fun label -> Message_drop { label; at = Rng.int rng horizon }) drops
  in
  make (failures @ stall_events @ drop_events)

(* ---- parsing ---- *)

let parse_channel topo s =
  match String.index_opt s '>' with
  | None -> Error (Printf.sprintf "bad channel %S (want SRC>DST[#VC])" s)
  | Some i -> (
    (* accept both "a>b" and the printed form "a->b" *)
    let src_name = String.trim (String.sub s 0 i) in
    let src_name =
      let n = String.length src_name in
      if n > 0 && src_name.[n - 1] = '-' then String.sub src_name 0 (n - 1) else src_name
    in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let dst_name, vc =
      match String.index_opt rest '#' with
      | None -> (String.trim rest, 0)
      | Some j ->
        ( String.trim (String.sub rest 0 j),
          int_of_string (String.trim (String.sub rest (j + 1) (String.length rest - j - 1)))
        )
    in
    match
      ( (try Some (Topology.node_of_name topo src_name) with Not_found -> None),
        try Some (Topology.node_of_name topo dst_name) with Not_found -> None )
    with
    | None, _ -> Error (Printf.sprintf "unknown node %S" src_name)
    | _, None -> Error (Printf.sprintf "unknown node %S" dst_name)
    | Some u, Some v -> (
      match Topology.find_channel ~vc topo u v with
      | Some c -> Ok c
      | None -> Error (Printf.sprintf "no channel %s>%s#%d" src_name dst_name vc)))

let parse_event topo s =
  let s = String.trim s in
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad fault event %S (want KIND:...)" s)
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.index_opt rest '@' with
    | None -> Error (Printf.sprintf "bad fault event %S (missing @TIME)" s)
    | Some j -> (
      let target = String.sub rest 0 j in
      let time_s = String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) in
      let int_of s =
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "bad time %S" s)
      in
      match kind with
      | "fail" -> (
        match (parse_channel topo target, int_of time_s) with
        | Ok channel, Ok at -> Ok (Link_failure { channel; at })
        | (Error e, _ | _, Error e) -> Error e)
      | "stall" -> (
        match String.index_opt time_s '+' with
        | None -> Error (Printf.sprintf "bad stall %S (want @TIME+DURATION)" s)
        | Some k -> (
          let at_s = String.sub time_s 0 k in
          let dur_s = String.sub time_s (k + 1) (String.length time_s - k - 1) in
          match (parse_channel topo target, int_of at_s, int_of dur_s) with
          | Ok channel, Ok at, Ok duration when duration >= 1 ->
            Ok (Transient_stall { channel; at; duration })
          | Ok _, Ok _, Ok _ -> Error (Printf.sprintf "bad stall duration in %S" s)
          | (Error e, _, _ | _, Error e, _ | _, _, Error e) -> Error e))
      | "drop" -> (
        match int_of time_s with
        | Ok at -> Ok (Message_drop { label = String.trim target; at })
        | Error e -> Error e)
      | k -> Error (Printf.sprintf "unknown fault kind %S (fail, stall or drop)" k)))

(* split on commas, but not inside parentheses: mesh node names are
   "n(0,0)" so channel names themselves contain commas *)
let split_events s =
  let parts = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun ch ->
      match ch with
      | '(' ->
        incr depth;
        Buffer.add_char buf ch
      | ')' ->
        decr depth;
        Buffer.add_char buf ch
      | ',' when !depth = 0 ->
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      | ch -> Buffer.add_char buf ch)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let parse topo s =
  let parts = split_events s |> List.map String.trim |> List.filter (fun p -> p <> "") in
  let rec go acc = function
    | [] -> Ok (make (List.rev acc))
    | p :: rest -> ( match parse_event topo p with Ok e -> go (e :: acc) rest | Error e -> Error e)
  in
  go [] parts

let pp topo ppf p =
  let pp_event ppf = function
    | Link_failure { channel; at } ->
      Format.fprintf ppf "fail:%s@@%d" (Topology.channel_name topo channel) at
    | Transient_stall { channel; at; duration } ->
      Format.fprintf ppf "stall:%s@@%d+%d" (Topology.channel_name topo channel) at duration
    | Message_drop { label; at } -> Format.fprintf ppf "drop:%s@@%d" label at
  in
  match p with
  | [] -> Format.pp_print_string ppf "(no faults)"
  | events ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      pp_event ppf events
