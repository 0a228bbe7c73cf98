(* Prometheus text exposition: families and samples print in the order the
   caller gives them, so the text is a pure function of the list. *)

type kind = Counter | Gauge | Histogram

type sample = { s_suffix : string; s_labels : (string * string) list; s_value : int }

type family = { f_name : string; f_kind : kind; f_help : string; f_samples : sample list }

let kind_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let label_text = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Diagnostic.json_escape v)) labels)
    ^ "}"

let to_prometheus families =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" f.f_name f.f_help f.f_name
        (kind_string f.f_kind);
      List.iter
        (fun s ->
          Printf.bprintf buf "%s%s%s %d\n" f.f_name s.s_suffix (label_text s.s_labels) s.s_value)
        f.f_samples)
    families;
  Buffer.contents buf
