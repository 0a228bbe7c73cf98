type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds";
  t.data.(i)

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let d = Array.make ncap x in
  Array.blit t.data 0 d 0 t.len;
  t.data <- d

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
  loop (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len
