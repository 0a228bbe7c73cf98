let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ~highlight ~label t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph network {\n";
  Buffer.add_string buf (Printf.sprintf "  label=\"%s\";\n" (escape label));
  Buffer.add_string buf "  node [shape=circle];\n";
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" v (escape (Topology.node_name t v))))
    (Topology.nodes t);
  Topology.iter_channels
    (fun c ->
      let attrs =
        if List.mem c highlight then " [color=red, penwidth=2.0]"
        else if Topology.vc t c > 0 then
          Printf.sprintf " [style=dashed, label=\"vc%d\"]" (Topology.vc t c)
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d%s;\n" (Topology.src t c) (Topology.dst t c) attrs))
    t;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
