(* Order statistics over timing samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile p a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile 0.5 a

let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  if Array.length a = 0 then nan else sum a /. float_of_int (Array.length a)

let geomean l =
  match l with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

(* [n] contiguous blocks of nearly equal length, in order; fewer when
   there are fewer samples than blocks. *)
let blocks n a =
  let len = Array.length a in
  let n = max 1 (min n len) in
  List.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      Array.sub a lo (hi - lo))
