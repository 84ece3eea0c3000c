let entropy p =
  Array.fold_left (fun acc x -> if x > 0. then acc -. (x *. log x) else acc) 0. p

let check_lengths p q =
  if Array.length p <> Array.length q then invalid_arg "Kl: length mismatch"

let kl_divergence p q =
  check_lengths p q;
  let acc = ref 0. in
  for i = 0 to Array.length p - 1 do
    let pi = p.(i) in
    if pi > 0. then
      if q.(i) <= 0. then acc := infinity else acc := !acc +. (pi *. log (pi /. q.(i)))
  done;
  !acc

let normalize v =
  let total = Array.fold_left ( +. ) 0. v in
  if total <= 0. then invalid_arg "Kl.normalize: non-positive total mass";
  Array.map (fun x -> x /. total) v

let of_counts counts = normalize (Array.map float_of_int counts)

let total_variation p q =
  check_lengths p q;
  let acc = ref 0. in
  for i = 0 to Array.length p - 1 do
    acc := !acc +. Float.abs (p.(i) -. q.(i))
  done;
  !acc /. 2.
