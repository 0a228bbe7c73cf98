(* The wait-for cycle walk, its rotation and the deadlock class; see
   waitfor.mli.  The walkers are top-level functions taking [next]
   explicitly, so a walk allocates only its path and the cycle. *)

(* [close w [] path] with the walk [path] newest first and [w] on it: the
   cycle from [w] to the newest vertex, in walk order. *)
let rec close w acc = function
  | x :: rest -> if x = w then x :: acc else close w (x :: acc) rest
  | [] -> acc

let rec walk next path v =
  match next v with
  | None -> []
  | Some w ->
    let path = v :: path in
    if List.mem w path then close w [] path else walk next path w

let rec cycle ~next = function
  | [] -> []
  | s :: rest -> (
    match walk next [] s with
    | [] -> cycle ~next rest
    | c -> c)

let rotate = function
  | [] -> []
  | v :: _ as c ->
    let smallest = List.fold_left min v c in
    let rec split before = function
      | x :: rest when x <> smallest -> split (x :: before) rest
      | from -> from @ List.rev before
    in
    split [] c

type deadlock_class = Global | Local | Weak

let deadlock_class_string = function
  | Global -> "global"
  | Local -> "local"
  | Weak -> "weak"

let classify ~cycle ~delivered =
  match cycle with
  | [] -> Weak
  | _ :: _ -> if delivered then Local else Global
